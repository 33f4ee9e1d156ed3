#include "service/service.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <utility>

#include "core/solve.h"
#include "util/cli.h"
#include "util/crashbox.h"
#include "util/fault.h"
#include "util/flight_recorder.h"
#include "util/flops.h"
#include "util/metrics.h"
#include "util/prof.h"
#include "util/stallguard.h"
#include "util/trace.h"

namespace bst::service {
namespace {

const util::PhaseId kSolvePhase = util::Tracer::phase("service_solve");
const util::PhaseId kRefinePhase = util::Tracer::phase("service_refine");
const util::CtrId kSubmitted = util::Metrics::counter("service_submitted");
const util::CtrId kRefineSweeps = util::Metrics::counter("service_refine_sweeps");
const util::CtrId kRejected = util::Metrics::counter("service_rejected");
const util::CtrId kCompleted = util::Metrics::counter("service_completed");
const util::CtrId kBatches = util::Metrics::counter("service_batches");
const util::CtrId kSlow = util::Metrics::counter("service_slow_requests");
// Watchdog::warn bumps this unconditionally; deltas around a request's
// factor+solve attribute warnings to the request (util/watchdog.cc).
const util::CtrId kWarnings = util::Metrics::counter("watchdog_warnings");
const util::GaugeId kQueueDepth = util::Metrics::gauge("service_queue_depth");
const util::GaugeId kInflight = util::Metrics::gauge("service_inflight");
const util::GaugeId kBacklogAge = util::Metrics::gauge("service_backlog_age_ms");
// Recorded unconditionally (not tracer-gated): the telemetry exporter's
// QPS/p50/p99 come from these, and a live service is exactly the case
// where no profiled run is watching.
const util::HistId kBatchHist = util::Metrics::histogram("service_batch_cols");
const util::HistId kLatencyHist = util::Metrics::histogram("service_request_ns");

// Emits the request's three-phase timeline as a tiny "req:<id>" track.
// The span `step` field carries cache hit (1) vs miss (0), so a trace
// shows hit and miss requests apart at a glance.  Only the first
// trace_requests ids get tracks: each track's ring is permanent, so an
// unbounded service must not mint one per request.
void emit_request_track(const ServiceOptions& opt, std::uint64_t id, bool hit,
                        std::uint64_t submit_ns, std::uint64_t pop_ns,
                        std::uint64_t factor_done_ns, std::uint64_t done_ns,
                        std::uint64_t cols) {
  if (!util::Tracer::enabled() || !util::FlightRecorder::enabled()) return;
  if (id > opt.trace_requests) return;
  static const util::PhaseId kQueueWait = util::Tracer::phase("req_queue_wait");
  static const util::PhaseId kCacheLookup = util::Tracer::phase("req_cache_lookup");
  static const util::PhaseId kReqSolve = util::Tracer::phase("req_solve");
  const std::uint32_t tid =
      util::FlightRecorder::track("req:" + std::to_string(id), 8);
  const std::int64_t step = hit ? 1 : 0;
  util::FlightRecorder::virtual_span(tid, kQueueWait, step, submit_ns, pop_ns, 0, -1);
  util::FlightRecorder::virtual_span(tid, kCacheLookup, step, pop_ns, factor_done_ns, 0, -1);
  util::FlightRecorder::virtual_span(tid, kReqSolve, step, factor_done_ns, done_ns, cols, -1);
}

// Decimated past the first few: an overload that makes one request slow
// makes thousands slow, and a log storm is its own outage.  The
// service_slow_requests counter stays exact; stderr gets the first 10
// lines, then every 100th with the suppressed count.
void log_slow(std::uint64_t id, const SolveResult& res) {
  static std::atomic<std::uint64_t> logged{0};
  const std::uint64_t seq = logged.fetch_add(1, std::memory_order_relaxed);
  if (seq >= 10 && seq % 100 != 0) return;
  const double total_ms =
      static_cast<double>(res.queue_ns + res.factor_ns + res.solve_ns) * 1e-6;
  std::fprintf(stderr,
               "[bst_service] slow request id=%llu total_ms=%.2f queue_ms=%.2f "
               "factor_ms=%.2f solve_ms=%.2f hit=%d batch=%lld warnings=%llu%s\n",
               static_cast<unsigned long long>(id), total_ms,
               static_cast<double>(res.queue_ns) * 1e-6,
               static_cast<double>(res.factor_ns) * 1e-6,
               static_cast<double>(res.solve_ns) * 1e-6, res.cache_hit ? 1 : 0,
               static_cast<long long>(res.batch_cols),
               static_cast<unsigned long long>(res.warnings),
               seq >= 10 ? " (slow log decimated to 1/100)" : "");
}

[[noreturn]] void rows_mismatch(const char* who) {
  throw std::invalid_argument(std::string(who) + ": rhs rows do not match the matrix order");
}

// The dispatcher thread reads opt_ from construction on, so every clamp
// must happen before it starts (at the end of the constructor).
ServiceOptions sanitize(ServiceOptions o) {
  o.max_batch = std::max<index_t>(1, o.max_batch);
  o.rhs_panel = std::max<index_t>(1, o.rhs_panel);
  o.queue_capacity = std::max<std::size_t>(1, o.queue_capacity);
  o.refine_steps = std::max(0, o.refine_steps);
  return o;
}

}  // namespace

ServiceOptions ServiceOptions::from_env(ServiceOptions base) {
  using util::env_u64;
  auto env_index = [](const char* name, index_t fallback) {
    return static_cast<index_t>(env_u64(name, static_cast<std::uint64_t>(fallback),
                                        std::numeric_limits<int>::max()));
  };
  base.cache_bytes = env_u64("BST_SERVICE_CACHE_BYTES", base.cache_bytes);
  base.queue_capacity = env_u64("BST_SERVICE_QUEUE", base.queue_capacity);
  base.max_batch = env_index("BST_SERVICE_BATCH", base.max_batch);
  base.rhs_panel = env_index("BST_SERVICE_PANEL", base.rhs_panel);
  if (const char* s = std::getenv("BST_SERVICE_NOCACHE"); s != nullptr && *s != '\0') {
    base.cache_enabled = (s[0] == '0' && s[1] == '\0');
  }
  base.slow_ms = util::env_f64("BST_SERVICE_SLOW_MS", base.slow_ms);
  base.trace_requests = env_u64("BST_SERVICE_TRACE_REQS", base.trace_requests);
  base.refine_steps =
      static_cast<int>(env_index("BST_SERVICE_REFINE", std::max(0, base.refine_steps)));
  return sanitize(base);
}

Service::Service(ServiceOptions opt) : opt_(sanitize(opt)), cache_(opt_.cache_bytes) {
  // Env-gated no-ops unless BST_CRASH_DIR / BST_STALL_MS are set: a live
  // service is exactly the process whose last moments are worth keeping.
  // Before the dispatcher starts, so a malformed BST_STALL_MS throws out of
  // a constructor that has no thread to join.
  util::Crashbox::install();
  util::StallGuard::start_from_env();
  dispatcher_ = std::thread([this] { dispatcher_loop(); });
}

Service::~Service() {
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
  cv_nonempty_.notify_all();
  cv_notfull_.notify_all();
  dispatcher_.join();
}

FactorPtr Service::factor_for(const toeplitz::BlockToeplitz& t, const std::string& key,
                              bool* hit) {
  auto factory = [&] { return core::block_schur_factor(t, opt_.schur); };
  if (opt_.cache_enabled) return cache_.get_or_factor(key, factory, hit);
  if (hit != nullptr) *hit = false;
  return std::make_shared<const core::SchurFactor>(factory());
}

void Service::solve_batch(const core::SchurFactor& f, la::View b) {
  util::TraceSpan span(kSolvePhase);
  core::solve_rtdr_panels(f.r.view(), nullptr, b, opt_.rhs_panel, /*parallel=*/true);
}

std::shared_ptr<const toeplitz::BlockCirculantMultiplier> Service::multiplier_for(
    const toeplitz::BlockToeplitz& t, const std::string& key) {
  std::lock_guard lock(fftmul_mu_);
  if (auto it = fftmul_.find(key); it != fftmul_.end()) return it->second;
  // Cheap bound: each entry holds m^2 spectra of O(2P) complex values, tiny
  // next to the factors -- a simple clear-on-overflow keeps it honest for
  // services that churn through many distinct matrices.
  if (fftmul_.size() >= 16) fftmul_.clear();
  auto mul = std::make_shared<const toeplitz::BlockCirculantMultiplier>(t);
  fftmul_.emplace(key, mul);
  return mul;
}

void Service::solve_batch_refined(const toeplitz::BlockToeplitz& t, const std::string& key,
                                  const core::SchurFactor& f, la::View b_inout) {
  if (opt_.refine_steps <= 0) {
    solve_batch(f, b_inout);
    return;
  }
  const index_t n = b_inout.rows(), cols = b_inout.cols();
  const auto mul = multiplier_for(t, key);
  // Keep B: after the in-place solve b_inout holds X, and each sweep needs
  // the original right-hand sides for R = B - T X.  Every column is
  // refined independently of the others, as it is solved.
  la::Mat b0(n, cols);
  la::copy(b_inout, b0.view());
  solve_batch(f, b_inout);
  la::Mat r(n, cols);
  for (int s = 0; s < opt_.refine_steps; ++s) {
    util::TraceSpan span(kRefinePhase);
    mul->residual(b0.view(), b_inout, r.view());
    solve_batch(f, r.view());  // r becomes the correction dX
    for (index_t j = 0; j < cols; ++j) {
      const double* dj = r.data() + j * r.ld();
      double* xj = b_inout.data() + j * b_inout.ld();
      for (index_t i = 0; i < n; ++i) xj[i] += dj[i];
    }
    util::FlopCounter::charge(static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(cols));
  }
  refine_sweeps_.fetch_add(static_cast<std::uint64_t>(opt_.refine_steps),
                          std::memory_order_relaxed);
  util::Metrics::add(kRefineSweeps, static_cast<std::uint64_t>(opt_.refine_steps));
}

Service::Ticket Service::open_ticket(index_t cols) {
  {
    std::lock_guard lock(mu_);
    submitted_ += static_cast<std::uint64_t>(cols);
  }
  util::Metrics::add(kSubmitted, static_cast<std::uint64_t>(cols));
  Ticket tk;
  tk.id = next_req_id_.fetch_add(1, std::memory_order_relaxed);
  tk.submit_ns = util::TraceClock::now_ns();
  tk.cb_slot = util::Crashbox::request_begin(tk.id, util::ReqPhase::kFactor);
  tk.cols = cols;
  return tk;
}

SolveResult Service::solve(const toeplitz::BlockToeplitz& t, const std::vector<double>& b) {
  if (static_cast<index_t>(b.size()) != t.order()) rows_mismatch("Service::solve");
  const std::string key = problem_key(t, opt_.schur);
  const double* rhs = b.data();
  const Ticket tk = open_ticket(1);
  return std::move(serve(t, key, {&rhs, 1}, {&tk, 1}, tk.submit_ns).front());
}

la::Mat Service::solve_many(const toeplitz::BlockToeplitz& t, la::CView b) {
  const index_t n = t.order(), k = b.cols();
  if (b.rows() != n) rows_mismatch("Service::solve_many");
  const std::string key = problem_key(t, opt_.schur);
  std::vector<const double*> rhs;
  for (index_t j = 0; j < k; ++j) rhs.push_back(b.col(j));
  const Ticket tk = open_ticket(k);
  const std::vector<double> xs = std::move(serve(t, key, rhs, {&tk, 1}, tk.submit_ns).front().x);
  la::Mat x(n, k);
  std::copy(xs.begin(), xs.end(), x.data());
  return x;
}

std::optional<std::future<SolveResult>> Service::admit(const toeplitz::BlockToeplitz& t,
                                                       std::vector<double> b, bool block) {
  if (static_cast<index_t>(b.size()) != t.order()) {
    rows_mismatch(block ? "Service::submit" : "Service::try_submit");
  }
  util::Fault::fire("admission");
  Request req;
  req.key = problem_key(t, opt_.schur);
  req.t = t;
  req.b = std::move(b);
  req.ticket.submit_ns = util::TraceClock::now_ns();
  req.ticket.id = next_req_id_.fetch_add(1, std::memory_order_relaxed);
  std::future<SolveResult> fut = req.done.get_future();
  {
    std::unique_lock lock(mu_);
    if (block) {
      cv_notfull_.wait(lock, [&] { return stop_ || queue_.size() < opt_.queue_capacity; });
      if (stop_) throw std::runtime_error("Service::submit: service is shutting down");
    } else if (stop_ || queue_.size() >= opt_.queue_capacity) {
      ++rejected_;
      util::Metrics::add(kRejected);
      return std::nullopt;
    }
    // Registered only once admission is certain; serve() owns the slot
    // from dispatch on (phase transitions + release).
    req.ticket.cb_slot = util::Crashbox::request_begin(req.ticket.id, util::ReqPhase::kQueued);
    queue_.push_back(std::move(req));
    ++submitted_;
    queue_peak_ = std::max(queue_peak_, static_cast<std::uint64_t>(queue_.size()));
    util::Metrics::gauge_set(kQueueDepth, static_cast<std::int64_t>(queue_.size()));
  }
  util::Metrics::add(kSubmitted);
  cv_nonempty_.notify_one();
  return fut;
}

std::future<SolveResult> Service::submit(const toeplitz::BlockToeplitz& t,
                                         std::vector<double> b) {
  return *admit(t, std::move(b), /*block=*/true);
}

bool Service::try_submit(const toeplitz::BlockToeplitz& t, std::vector<double> b,
                         std::future<SolveResult>& out) {
  std::optional<std::future<SolveResult>> fut = admit(t, std::move(b), /*block=*/false);
  if (!fut) return false;
  out = std::move(*fut);
  return true;
}

void Service::drain() {
  std::unique_lock lock(mu_);
  cv_drained_.wait(lock, [&] { return queue_.empty() && inflight_ == 0; });
}

std::vector<SolveResult> Service::serve(const toeplitz::BlockToeplitz& t, const std::string& key,
                                        std::span<const double* const> rhs,
                                        std::span<const Ticket> tickets, std::uint64_t pop_ns) {
  const index_t n = t.order(), k = static_cast<index_t>(rhs.size());
  // Profiler sample attribution: tag this thread's samples with the id
  // leading the batch (the same id the crashbox request table carries),
  // so flamegraphs fold per `req:<id>` like the flight-recorder tracks.
  util::Prof::set_request(tickets.front().id);
  const auto set_phase = [&](util::ReqPhase p) {
    for (const Ticket& tk : tickets) util::Crashbox::request_phase(tk.cb_slot, p);
  };
  std::vector<SolveResult> out;
  std::uint64_t slow_count = 0;
  // Runs whether the batch succeeded or failed: a failed request is
  // completed too -- its answer is the error.
  const auto finish = [&] {
    for (const Ticket& tk : tickets) util::Crashbox::request_end(tk.cb_slot);
    util::Prof::set_request(0);
    {
      std::lock_guard lock(mu_);
      completed_ += static_cast<std::uint64_t>(k);
      ++batches_;
      max_batch_ = std::max(max_batch_, static_cast<std::uint64_t>(k));
      slow_ += slow_count;
    }
    util::Metrics::add(kCompleted, static_cast<std::uint64_t>(k));
    util::Metrics::add(kBatches);
  };
  try {
    const std::uint64_t warn0 = util::Metrics::counter_value(kWarnings);
    set_phase(util::ReqPhase::kFactor);
    bool hit = false;
    const FactorPtr f = factor_for(t, key, &hit);
    const std::uint64_t factor_done_ns = util::TraceClock::now_ns();
    set_phase(util::ReqPhase::kSolve);
    // Exactly the k columns the batch holds: the left trsm's per-column
    // bits do not depend on its width, so neither batching nor rhs_panel
    // changes an answer.
    la::Mat xs(n, k);
    double* col = xs.data();
    for (const double* b : rhs) col = std::copy(b, b + n, col);
    solve_batch_refined(t, key, *f, xs.view());
    const std::uint64_t done_ns = util::TraceClock::now_ns();
    const std::uint64_t warn_delta = util::Metrics::counter_value(kWarnings) - warn0;
    util::Metrics::record(kBatchHist, static_cast<std::uint64_t>(k));
    out.reserve(tickets.size());
    const double* x = xs.data();
    for (const Ticket& tk : tickets) {
      SolveResult& res = out.emplace_back();
      res.x.assign(x, x + tk.cols * n);
      x += tk.cols * n;
      res.cache_hit = hit;
      res.factor_flops = f->flops;
      res.batch_cols = k;
      res.done_ns = done_ns;
      res.req_id = tk.id;
      res.queue_ns = pop_ns - tk.submit_ns;
      res.factor_ns = factor_done_ns - pop_ns;
      res.solve_ns = done_ns - factor_done_ns;
      res.warnings = warn_delta;
      res.refine_steps = opt_.refine_steps;
      res.solver_path = opt_.refine_steps > 0 ? "schur+refine" : "schur";
      util::Metrics::record(kLatencyHist, done_ns - tk.submit_ns);
      emit_request_track(opt_, tk.id, hit, tk.submit_ns, pop_ns, factor_done_ns, done_ns,
                         static_cast<std::uint64_t>(k));
      if (opt_.slow_ms > 0.0 &&
          static_cast<double>(done_ns - tk.submit_ns) > opt_.slow_ms * 1e6) {
        ++slow_count;
        util::Metrics::add(kSlow);
        log_slow(tk.id, res);
      }
    }
  } catch (...) {
    finish();
    throw;
  }
  finish();
  return out;
}

void Service::dispatcher_loop() {
  util::StallGuard::register_self("svc:dispatcher");
  for (;;) {
    std::vector<Request> batch;
    {
      util::StallGuard::idle();  // parked on the condvar: not a stall
      std::unique_lock lock(mu_);
      cv_nonempty_.wait(lock, [&] { return stop_ || !queue_.empty(); });
      util::StallGuard::beat();
      if (queue_.empty()) {
        if (stop_) return;  // drained shutdown: exit only once the queue is empty
        continue;
      }
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
      // Coalesce same-key requests into one factor lookup + blocked solve.
      for (auto it = queue_.begin();
           it != queue_.end() && static_cast<index_t>(batch.size()) < opt_.max_batch;) {
        if (it->key == batch.front().key) {
          batch.push_back(std::move(*it));
          it = queue_.erase(it);
        } else {
          ++it;
        }
      }
      inflight_ += batch.size();
      util::Metrics::gauge_set(kQueueDepth, static_cast<std::int64_t>(queue_.size()));
      util::Metrics::gauge_set(kInflight, static_cast<std::int64_t>(inflight_));
      // Age of the oldest request still waiting: a growing value with a
      // non-empty queue means the dispatcher is falling behind.
      const std::int64_t backlog_ms =
          queue_.empty() ? 0
                         : static_cast<std::int64_t>(
                               (util::TraceClock::now_ns() - queue_.front().ticket.submit_ns) /
                               1000000u);
      util::Metrics::gauge_set(kBacklogAge, backlog_ms);
    }
    cv_notfull_.notify_all();

    util::Fault::fire("dispatch");
    const std::uint64_t pop_ns = util::TraceClock::now_ns();
    try {
      std::vector<const double*> rhs;
      std::vector<Ticket> tickets;
      for (const Request& req : batch) {
        rhs.push_back(req.b.data());
        tickets.push_back(req.ticket);
      }
      std::vector<SolveResult> res =
          serve(batch.front().t, batch.front().key, rhs, tickets, pop_ns);
      for (std::size_t j = 0; j < batch.size(); ++j) batch[j].done.set_value(std::move(res[j]));
    } catch (...) {
      // Factorization failure (e.g. NotPositiveDefinite) fails the whole
      // batch -- every request is the same problem.
      for (Request& req : batch) req.done.set_exception(std::current_exception());
    }
    {
      std::lock_guard lock(mu_);
      inflight_ -= batch.size();
      util::Metrics::gauge_set(kInflight, static_cast<std::int64_t>(inflight_));
    }
    cv_drained_.notify_all();
  }
}

ServiceStats Service::stats() const {
  ServiceStats s;
  s.cache = cache_.stats();
  std::lock_guard lock(mu_);
  s.submitted = submitted_;
  s.rejected = rejected_;
  s.completed = completed_;
  s.batches = batches_;
  s.max_batch = max_batch_;
  s.queue_peak = queue_peak_;
  s.slow = slow_;
  s.refine_sweeps = refine_sweeps_.load(std::memory_order_relaxed);
  return s;
}

util::Json Service::stats_json() const {
  const ServiceStats s = stats();
  util::Json cache = util::Json::object();
  cache.set("hits", util::Json::number(s.cache.hits));
  cache.set("misses", util::Json::number(s.cache.misses));
  cache.set("evictions", util::Json::number(s.cache.evictions));
  cache.set("resident_bytes", util::Json::number(static_cast<std::uint64_t>(s.cache.resident_bytes)));
  cache.set("entries", util::Json::number(static_cast<std::uint64_t>(s.cache.entries)));
  cache.set("max_bytes", util::Json::number(static_cast<std::uint64_t>(cache_.max_bytes())));
  cache.set("hit_rate", util::Json::number(s.cache.hit_rate()));
  cache.set("enabled", util::Json::boolean(opt_.cache_enabled));
  util::Json queue = util::Json::object();
  queue.set("capacity", util::Json::number(static_cast<std::uint64_t>(opt_.queue_capacity)));
  queue.set("peak", util::Json::number(s.queue_peak));
  queue.set("submitted", util::Json::number(s.submitted));
  queue.set("rejected", util::Json::number(s.rejected));
  queue.set("completed", util::Json::number(s.completed));
  queue.set("slow", util::Json::number(s.slow));
  queue.set("slow_ms", util::Json::number(opt_.slow_ms));
  util::Json batch = util::Json::object();
  batch.set("batches", util::Json::number(s.batches));
  batch.set("max_batch", util::Json::number(s.max_batch));
  batch.set("mean_batch", util::Json::number(s.mean_batch()));
  batch.set("max_batch_limit", util::Json::number(static_cast<std::uint64_t>(opt_.max_batch)));
  batch.set("rhs_panel", util::Json::number(static_cast<std::uint64_t>(opt_.rhs_panel)));
  util::Json refine = util::Json::object();
  refine.set("steps", util::Json::number(static_cast<std::uint64_t>(opt_.refine_steps)));
  refine.set("sweeps", util::Json::number(s.refine_sweeps));
  util::Json root = util::Json::object();
  root.set("cache", std::move(cache));
  root.set("queue", std::move(queue));
  root.set("batch", std::move(batch));
  root.set("refine", std::move(refine));
  return root;
}

}  // namespace bst::service
