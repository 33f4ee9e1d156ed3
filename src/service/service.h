// bst::service::Service -- the batched factor-once/solve-many solver
// service (docs/SERVICE.md).
//
// Production traffic for this solver is *many* solves: GP-regression
// sweeps and per-user multichannel predictors fire thousands of small
// block Toeplitz systems, most sharing a handful of matrices.  The Service
// layers three things over core::block_schur_factor + the level-3 solve
// path to serve that shape of load:
//
//   * a FactorCache (service/cache.h): factors are cached by the ledger's
//     params hash and reused across requests -- factor once, solve many;
//   * blocked multi-RHS solves: a batch's k right-hand sides go through
//     core::solve_rtdr_panels, which drives the packed la/blas3 trsm over
//     panels of at most rhs_panel columns -- exactly the k columns, no zero
//     padding, since the left trsm's per-column bits do not depend on how
//     many columns it is given;
//   * an async submission path: submit() enqueues onto a bounded admission
//     queue (blocking when full -- backpressure; try_submit() rejects
//     instead) and a dispatcher thread coalesces same-key requests into
//     one factor lookup + one blocked solve.  Panel solves fan out across
//     util::ThreadPool.
//
// One request pipeline: solve(), solve_many() and each dispatched batch
// all go through the private serve() -- factor lookup, panel solve
// (+ refinement), per-request results and every counter, histogram,
// track and log line.  The synchronous calls run it on the caller's
// thread; the dispatcher runs it once per coalesced batch.
//
// Determinism: concurrent submit()s return solutions bitwise identical to
// the serial solve() path at any thread count, any batching outcome and
// any rhs_panel -- each output column depends only on its own input
// column, and the trsm picks its update path from the factor's shape
// alone (tests/test_service.cc, docs/KERNELS.md).
//
// Scope: the Service serves the SPD fast path.  A matrix that is not
// positive definite fails the factorization; the error propagates through
// the returned future (or throws from the synchronous calls).  Indefinite
// traffic belongs on core::toeplitz_solve.
//
// Observability: hits/misses/evictions/admissions land in util::Metrics
// counters; batch sizes and request latencies record unconditionally into
// histograms so the live telemetry exporter (util/telemetry.h) sees QPS and
// tail latency without a profiled run.  Live state mirrors into gauges
// (service_queue_depth, service_inflight, service_backlog_age_ms,
// service_cache_resident_bytes).  Every request carries a monotone id
// minted at admission; its queue-wait / cache-lookup / solve split comes
// back in the SolveResult, and (while tracing) the first trace_requests
// requests additionally emit "req:<id>" flight-recorder tracks whose span
// `step` field encodes cache hit (1) vs miss (0).  Requests slower than
// slow_ms log one structured stderr line and bump service_slow_requests;
// watchdog warnings fired while a request was being served come back in
// SolveResult::warnings and the `watchdog_warnings` counter.
// stats_json() returns the "service" report section bench_service emits
// and bst_report pretty-prints.
//
// Environment knobs (all overridable via ServiceOptions::from_env):
//   BST_SERVICE_CACHE_BYTES  factor-cache budget in bytes
//   BST_SERVICE_QUEUE        admission queue capacity (requests)
//   BST_SERVICE_BATCH        max same-key requests coalesced per dispatch
//   BST_SERVICE_PANEL        RHS panel width: fan-out grain of the solves
//   BST_SERVICE_NOCACHE      "1" disables the factor cache (baseline mode)
//   BST_SERVICE_SLOW_MS      slow-request log threshold in ms (0 = off)
//   BST_SERVICE_TRACE_REQS   max requests that get "req:<id>" trace tracks
//   BST_SERVICE_REFINE       iterative-refinement sweeps per solve (0 = off)
//
// Refinement (BST_SERVICE_REFINE / ServiceOptions::refine_steps): every
// solve -- sync, batched, or dispatched -- is followed by that many sweeps
// of  R = B - T X;  solve R panels;  X += dX, with the residuals computed
// through the cached block-circulant FFT embedding (toeplitz/fft.h), so a
// k-column batch pays O(k m^2 P log P) per sweep instead of k dense
// matvecs.  The multipliers are cached per problem key alongside the
// factor cache.  Requests report the route as SolveResult::solver_path
// ("schur" or "schur+refine") plus the sweeps applied.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/schur.h"
#include "service/cache.h"
#include "toeplitz/block_toeplitz.h"
#include "toeplitz/fft.h"
#include "util/report.h"

namespace bst::service {

using la::index_t;

/// Service configuration (see the header comment for the env knobs).
struct ServiceOptions {
  core::SchurOptions schur;            // factorization knobs (m_s, rep, ...)
  std::size_t cache_bytes = 256ull << 20;  // factor-cache budget
  std::size_t queue_capacity = 4096;   // bounded admission queue
  index_t max_batch = 256;             // same-key requests per dispatch
  index_t rhs_panel = 32;              // RHS panel width (fan-out grain)
  bool cache_enabled = true;
  double slow_ms = 100.0;              // slow-request log threshold (0 = off)
  std::uint64_t trace_requests = 32;   // "req:<id>" tracks minted while tracing
  int refine_steps = 0;                // FFT-residual refinement sweeps (0 = off)

  /// Applies BST_SERVICE_* environment overrides on top of `base`.
  static ServiceOptions from_env(ServiceOptions base);
  static ServiceOptions from_env() { return from_env(ServiceOptions{}); }
};

/// Per-request outcome.
struct SolveResult {
  std::vector<double> x;
  bool cache_hit = false;         // factor came from the cache
  std::uint64_t factor_flops = 0; // flops of the (possibly cached) factor
  index_t batch_cols = 1;         // requests coalesced into the same solve
  std::uint64_t done_ns = 0;      // TraceClock stamp at completion
  std::uint64_t req_id = 0;       // monotone id minted at admission
  std::uint64_t queue_ns = 0;     // admission-to-dispatch wait
  std::uint64_t factor_ns = 0;    // cache lookup + (on miss) factorization
  std::uint64_t solve_ns = 0;     // panel solve + scatter
  std::uint64_t warnings = 0;     // watchdog warnings fired while serving it
  int refine_steps = 0;           // FFT-residual sweeps applied to this solve
  std::string solver_path = "schur";  // "schur" or "schur+refine"
};

/// Copied-out service counters (cache + queue + batching).
struct ServiceStats {
  CacheStats cache;
  std::uint64_t submitted = 0;  // requests admitted (sync calls included)
  std::uint64_t rejected = 0;   // try_submit refusals on a full queue
  std::uint64_t completed = 0;
  std::uint64_t batches = 0;    // dispatches (each = 1 factor lookup)
  std::uint64_t max_batch = 0;  // largest coalesced batch
  std::uint64_t queue_peak = 0; // high-water mark of the admission queue
  std::uint64_t slow = 0;       // requests past the slow_ms threshold
  std::uint64_t refine_sweeps = 0;  // FFT-residual sweeps executed

  [[nodiscard]] double mean_batch() const {
    return batches == 0 ? 0.0 : static_cast<double>(completed) / static_cast<double>(batches);
  }
};

class Service {
 public:
  explicit Service(ServiceOptions opt = ServiceOptions::from_env());
  /// Drains the queue (outstanding futures complete), then joins.
  ~Service();
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Synchronous solve of T x = b through the cache.  Throws
  /// core::NotPositiveDefinite (and std::invalid_argument on a size
  /// mismatch) like the underlying factorization.
  SolveResult solve(const toeplitz::BlockToeplitz& t, const std::vector<double>& b);

  /// Synchronous blocked multi-RHS solve: returns X with T X = B
  /// (B is order x k, each column an independent right-hand side).
  la::Mat solve_many(const toeplitz::BlockToeplitz& t, la::CView b);

  /// Asynchronous solve: enqueues and returns a future.  Blocks while the
  /// admission queue is full (backpressure); throws std::runtime_error
  /// when the service is shutting down.
  std::future<SolveResult> submit(const toeplitz::BlockToeplitz& t, std::vector<double> b);

  /// Non-blocking admission: false (and no enqueue) when the queue is
  /// full.  On success `out` receives the future.
  bool try_submit(const toeplitz::BlockToeplitz& t, std::vector<double> b,
                  std::future<SolveResult>& out);

  /// Blocks until every admitted request has completed.
  void drain();

  [[nodiscard]] ServiceStats stats() const;

  /// The "service" perf-report section (attach via PerfReport::set_extra):
  /// cache/queue/batch counters plus the effective options.
  [[nodiscard]] util::Json stats_json() const;

  [[nodiscard]] const ServiceOptions& options() const noexcept { return opt_; }

 private:
  /// One request's share of a batch: `cols` consecutive right-hand sides.
  /// solve() and each queued request own one column; solve_many() owns k.
  struct Ticket {
    std::uint64_t id = 0;  // minted at admission (next_req_id_)
    std::uint64_t submit_ns = 0;
    int cb_slot = -1;      // crashbox active-request slot (-1 = table full)
    index_t cols = 1;
  };

  struct Request {
    Ticket ticket;
    std::string key;
    toeplitz::BlockToeplitz t;
    std::vector<double> b;
    std::promise<SolveResult> done;
  };

  /// Admits a direct (solve / solve_many) call of `cols` right-hand sides.
  Ticket open_ticket(index_t cols);

  /// Queue admission for submit() (`block`: wait while full) and
  /// try_submit() (reject when full; nullopt).
  std::optional<std::future<SolveResult>> admit(const toeplitz::BlockToeplitz& t,
                                                std::vector<double> b, bool block);

  /// The request pipeline.  Solves the columns `rhs` (each of order
  /// t.order()) of one problem, split among `tickets` in order, and
  /// returns one result per ticket.  `pop_ns` is when the batch left the
  /// queue (the submit time for direct calls).  Owns the tickets' crashbox
  /// slots from here on and does all the per-batch and per-request
  /// accounting; a factorization failure is accounted, then rethrown.
  std::vector<SolveResult> serve(const toeplitz::BlockToeplitz& t, const std::string& key,
                                 std::span<const double* const> rhs,
                                 std::span<const Ticket> tickets, std::uint64_t pop_ns);

  /// Factor via the cache (or directly when caching is off).
  FactorPtr factor_for(const toeplitz::BlockToeplitz& t, const std::string& key, bool* hit);

  /// Solves the batch in place: panels of up to rhs_panel columns over
  /// the pool.
  void solve_batch(const core::SchurFactor& f, la::View b);

  /// solve_batch plus opt_.refine_steps batched FFT-residual sweeps (the
  /// plain solve when refinement is off; needs `t`/`key` for the cached
  /// block-circulant multiplier).
  void solve_batch_refined(const toeplitz::BlockToeplitz& t, const std::string& key,
                           const core::SchurFactor& f, la::View b_inout);

  /// Cached block-circulant embedding for the FFT residuals, keyed like
  /// the factor cache.
  std::shared_ptr<const toeplitz::BlockCirculantMultiplier> multiplier_for(
      const toeplitz::BlockToeplitz& t, const std::string& key);

  void dispatcher_loop();

  ServiceOptions opt_;
  FactorCache cache_;

  mutable std::mutex mu_;
  std::condition_variable cv_nonempty_;
  std::condition_variable cv_notfull_;
  std::condition_variable cv_drained_;
  std::deque<Request> queue_;
  std::size_t inflight_ = 0;  // requests popped but not yet completed
  bool stop_ = false;
  std::uint64_t submitted_ = 0, rejected_ = 0, completed_ = 0;
  std::uint64_t batches_ = 0, max_batch_ = 0, queue_peak_ = 0, slow_ = 0;
  std::atomic<std::uint64_t> next_req_id_{1};
  std::atomic<std::uint64_t> refine_sweeps_{0};

  // Cached FFT embeddings for refinement residuals (small: spectra are
  // O(m^2 P) complex values per matrix; bounded by eviction below).
  mutable std::mutex fftmul_mu_;
  std::unordered_map<std::string, std::shared_ptr<const toeplitz::BlockCirculantMultiplier>>
      fftmul_;

  std::thread dispatcher_;  // started at the end of the constructor, joined first
};

}  // namespace bst::service
