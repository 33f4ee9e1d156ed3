#include "util/telemetry.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <utility>

#include "util/cli.h"
#include "util/crashbox.h"
#include "util/report.h"
#include "util/stallguard.h"
#include "util/trace.h"

namespace bst::util {
namespace {

const CtrId kTicks = Metrics::counter("telemetry_ticks");

std::string env_str(const char* name, std::string fallback) {
  const char* s = std::getenv(name);
  if (s == nullptr || *s == '\0') return fallback;
  return s;
}

// Prometheus metric names are [a-zA-Z_:][a-zA-Z0-9_:]*; our interned names
// can carry anything (phase histograms like "req:12_ns"), so map the rest
// to '_'.  The "bst_" prefix handles the leading-character rule.
std::string prom_name(const std::string& name) {
  std::string out = "bst_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

std::string num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// HELP text shares the label-value escapes except for the double quote,
// which is legal in help text.
std::string prom_escape_help(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    if (c == '\\') out += "\\\\";
    else if (c == '\n') out += "\\n";
    else out.push_back(c);
  }
  return out;
}

std::string gauge_help(const std::string& name) {
  if (name == "bst_qps") return "Rolling-window completed-request throughput (1/s).";
  if (name == "bst_p50_ms") return "Rolling-window p50 request latency (ms).";
  if (name == "bst_p99_ms") return "Rolling-window p99 request latency (ms).";
  if (name == "bst_slo_p99_ms") return "Configured p99 latency SLO target (ms).";
  if (name == "bst_burn_rate") return "SLO error-budget burn rate (bad fraction over a 1% budget).";
  if (name == "bst_uptime_seconds") return "Telemetry exporter uptime (s).";
  if (name == "bst_telemetry_self_seconds") return "Cumulative telemetry exporter self time (s).";
  return "Instantaneous gauge from the bst metrics registry.";
}

const CounterStats* find_counter(const TelemetrySnapshot& s, const std::string& name) {
  for (const CounterStats& c : s.counters) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

const HistogramStats* find_hist(const TelemetrySnapshot& s, const std::string& name) {
  for (const HistogramStats& h : s.histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

// Distribution of exactly the window's samples: per-bucket count deltas
// between the window's newest and oldest snapshot of one histogram (the
// accumulators are monotone, so the difference is the window).
HistogramStats window_hist(const HistogramStats* oldest, const HistogramStats* newest) {
  HistogramStats w;
  if (newest == nullptr) return w;
  std::map<double, std::uint64_t> delta;
  for (const auto& [lo, c] : newest->buckets) delta[lo] = c;
  if (oldest != nullptr) {
    for (const auto& [lo, c] : oldest->buckets) {
      auto it = delta.find(lo);
      if (it != delta.end()) it->second -= std::min(it->second, c);
    }
  }
  for (const auto& [lo, c] : delta) {
    if (c == 0) continue;
    w.buckets.emplace_back(lo, c);
    w.count += c;
    w.sum += static_cast<std::uint64_t>(lo) * c;  // bucket-floor approximation
  }
  if (!w.buckets.empty()) {
    w.min = static_cast<std::uint64_t>(w.buckets.front().first);
    w.max = static_cast<std::uint64_t>(
        hist_bucket_hi(hist_bucket(static_cast<std::uint64_t>(w.buckets.back().first))));
  }
  return w;
}

}  // namespace

TelemetryOptions TelemetryOptions::from_env(TelemetryOptions base) {
  base.interval_ms = std::max<std::uint64_t>(
      10, env_u64("BST_TELEMETRY_INTERVAL_MS", base.interval_ms));
  base.out = env_str("BST_TELEMETRY_OUT", base.out);
  base.prom = env_str("BST_TELEMETRY_PROM", base.prom);
  base.slo_p99_ms = env_f64("BST_SLO_P99_MS", base.slo_p99_ms);
  base.window_ticks = std::max<std::size_t>(
      1, static_cast<std::size_t>(env_u64("BST_TELEMETRY_WINDOW", base.window_ticks)));
  return base;
}

TelemetrySnapshot telemetry_capture(std::uint64_t ts_ns) {
  TelemetrySnapshot s;
  s.ts_ns = ts_ns;
  s.counters = Metrics::counters_snapshot();
  s.gauges = Metrics::gauges_snapshot();
  s.histograms = Metrics::snapshot();
  return s;
}

TelemetryDerived telemetry_derive(const TelemetrySnapshot& oldest,
                                  const TelemetrySnapshot& newest,
                                  const TelemetryOptions& opt) {
  TelemetryDerived d;
  d.slo_p99_ms = opt.slo_p99_ms;
  d.window_s = newest.ts_ns > oldest.ts_ns
                   ? static_cast<double>(newest.ts_ns - oldest.ts_ns) * 1e-9
                   : 0.0;

  if (d.window_s > 0.0) {
    const CounterStats* c1 = find_counter(newest, opt.qps_counter);
    const CounterStats* c0 = find_counter(oldest, opt.qps_counter);
    const std::uint64_t v1 = c1 != nullptr ? c1->value : 0;
    const std::uint64_t v0 = c0 != nullptr ? c0->value : 0;
    if (v1 > v0) d.qps = static_cast<double>(v1 - v0) / d.window_s;
  }

  const HistogramStats w = window_hist(find_hist(oldest, opt.latency_hist),
                                       find_hist(newest, opt.latency_hist));
  d.window_count = w.count;
  if (w.count > 0) {
    d.p50_ms = w.quantile(0.50) * 1e-6;
    d.p99_ms = w.quantile(0.99) * 1e-6;
    if (opt.slo_p99_ms > 0.0) {
      const double slo_ns = opt.slo_p99_ms * 1e6;
      double bad = 0.0;
      for (const auto& [lo, c] : w.buckets) {
        const double hi = hist_bucket_hi(hist_bucket(static_cast<std::uint64_t>(lo)));
        if (lo >= slo_ns) {
          bad += static_cast<double>(c);
        } else if (hi > slo_ns) {
          // The SLO falls inside this bucket: apportion linearly.
          bad += static_cast<double>(c) * (hi - slo_ns) / (hi - lo);
        }
      }
      d.bad_fraction = bad / static_cast<double>(w.count);
      d.burn_rate = d.bad_fraction / 0.01;  // budget of a p99 target
    }
  }
  return d;
}

std::string telemetry_tick_json(std::uint64_t seq, const TelemetrySnapshot& snap,
                                const TelemetryDerived& d, double uptime_s,
                                double self_s) {
  Json tick = Json::object();
  tick.set("seq", Json::number(seq));
  tick.set("ts_ns", Json::number(snap.ts_ns));
  tick.set("uptime_s", Json::number(uptime_s));
  tick.set("telemetry_self_s", Json::number(self_s));
  tick.set("window_s", Json::number(d.window_s));
  tick.set("window_count", Json::number(d.window_count));
  tick.set("qps", Json::number(d.qps));
  tick.set("p50_ms", Json::number(d.p50_ms));
  tick.set("p99_ms", Json::number(d.p99_ms));
  tick.set("slo_p99_ms", Json::number(d.slo_p99_ms));
  tick.set("burn_rate", Json::number(d.burn_rate));

  std::vector<std::pair<std::string, std::uint64_t>> ctrs;
  for (const CounterStats& c : snap.counters) ctrs.emplace_back(c.name, c.value);
  std::sort(ctrs.begin(), ctrs.end());
  Json counters = Json::object();
  for (const auto& [name, value] : ctrs) counters.set(name, Json::number(value));
  tick.set("counters", std::move(counters));

  std::vector<std::pair<std::string, std::int64_t>> gs;
  for (const GaugeStats& g : snap.gauges) gs.emplace_back(g.name, g.value);
  std::sort(gs.begin(), gs.end());
  Json gauges = Json::object();
  for (const auto& [name, value] : gs) gauges.set(name, Json::number(value));
  tick.set("gauges", std::move(gauges));

  std::vector<const HistogramStats*> hs;
  for (const HistogramStats& h : snap.histograms) hs.push_back(&h);
  std::sort(hs.begin(), hs.end(),
            [](const HistogramStats* a, const HistogramStats* b) { return a->name < b->name; });
  Json hists = Json::object();
  for (const HistogramStats* h : hs) {
    Json o = Json::object();
    o.set("count", Json::number(h->count));
    o.set("sum", Json::number(h->sum));
    o.set("min", Json::number(h->min));
    o.set("max", Json::number(h->max));
    o.set("p50", Json::number(h->p50));
    o.set("p95", Json::number(h->p95));
    o.set("p99", Json::number(h->p99));
    hists.set(h->name, std::move(o));
  }
  tick.set("histograms", std::move(hists));
  return tick.dump_compact();
}

std::string prom_escape_label(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    if (c == '\\') out += "\\\\";
    else if (c == '"') out += "\\\"";
    else if (c == '\n') out += "\\n";
    else out.push_back(c);
  }
  return out;
}

std::string prometheus_exposition(const TelemetrySnapshot& snap, const TelemetryDerived& d,
                                  double uptime_s, double self_s) {
  std::ostringstream os;

  std::vector<std::pair<std::string, std::uint64_t>> ctrs;
  for (const CounterStats& c : snap.counters) ctrs.emplace_back(prom_name(c.name), c.value);
  std::sort(ctrs.begin(), ctrs.end());
  for (const auto& [name, value] : ctrs) {
    os << "# HELP " << name << "_total "
       << prom_escape_help("Monotonic counter from the bst metrics registry.") << "\n";
    os << "# TYPE " << name << "_total counter\n";
    os << name << "_total " << value << "\n";
  }

  std::vector<std::pair<std::string, std::string>> gs;
  for (const GaugeStats& g : snap.gauges) {
    gs.emplace_back(prom_name(g.name), std::to_string(g.value));
  }
  gs.emplace_back("bst_qps", num(d.qps));
  gs.emplace_back("bst_p50_ms", num(d.p50_ms));
  gs.emplace_back("bst_p99_ms", num(d.p99_ms));
  gs.emplace_back("bst_slo_p99_ms", num(d.slo_p99_ms));
  gs.emplace_back("bst_burn_rate", num(d.burn_rate));
  gs.emplace_back("bst_uptime_seconds", num(uptime_s));
  gs.emplace_back("bst_telemetry_self_seconds", num(self_s));
  std::sort(gs.begin(), gs.end());
  for (const auto& [name, value] : gs) {
    os << "# HELP " << name << " " << prom_escape_help(gauge_help(name)) << "\n";
    os << "# TYPE " << name << " gauge\n";
    os << name << " " << value << "\n";
  }

  std::vector<std::pair<std::string, const HistogramStats*>> hs;
  for (const HistogramStats& h : snap.histograms) hs.emplace_back(prom_name(h.name), &h);
  std::sort(hs.begin(), hs.end());
  for (const auto& [name, h] : hs) {
    os << "# HELP " << name << " "
       << prom_escape_help("Log-bucketed summary (quantiles interpolated, <=25% bucket error).")
       << "\n";
    os << "# TYPE " << name << " summary\n";
    os << name << "{quantile=\"" << prom_escape_label("0.5") << "\"} " << num(h->p50) << "\n";
    os << name << "{quantile=\"" << prom_escape_label("0.95") << "\"} " << num(h->p95) << "\n";
    os << name << "{quantile=\"" << prom_escape_label("0.99") << "\"} " << num(h->p99) << "\n";
    os << name << "_sum " << h->sum << "\n";
    os << name << "_count " << h->count << "\n";
  }
  return os.str();
}

TelemetryExporter::TelemetryExporter(TelemetryOptions opt) : opt_(std::move(opt)) {}

TelemetryExporter::~TelemetryExporter() { stop(); }

void TelemetryExporter::start() {
  if (!opt_.active()) return;
  Crashbox::install();          // env-gated no-ops: a telemetry-carrying
  StallGuard::start_from_env();  // process gets the post-mortem layer too
  std::lock_guard lock(mu_);
  if (running_) return;
  stop_ = false;
  ticks_ = 0;
  self_s_ = 0.0;
  start_ns_ = TraceClock::now_ns();
  window_.clear();
  running_ = true;
  thread_ = std::thread([this] { run(); });
}

void TelemetryExporter::stop() {
  {
    std::lock_guard lock(mu_);
    if (!running_) return;
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
  std::lock_guard lock(mu_);
  running_ = false;
}

bool TelemetryExporter::running() const {
  std::lock_guard lock(mu_);
  return running_;
}

std::uint64_t TelemetryExporter::ticks() const {
  std::lock_guard lock(mu_);
  return ticks_;
}

double TelemetryExporter::self_seconds() const {
  std::lock_guard lock(mu_);
  return self_s_;
}

void TelemetryExporter::run() {
  StallGuard::register_self("telemetry");
  std::uint64_t seq = 0;
  for (;;) {
    bool stopping = false;
    {
      StallGuard::idle();  // parked between ticks: not a stall
      std::unique_lock lock(mu_);
      cv_.wait_for(lock, std::chrono::milliseconds(opt_.interval_ms),
                   [&] { return stop_; });
      stopping = stop_;
    }
    StallGuard::beat();
    tick(seq++);
    if (stopping) {
      StallGuard::idle();
      return;  // one final tick on stop(): short runs still observe
    }
  }
}

void TelemetryExporter::tick(std::uint64_t seq) {
  const std::uint64_t t0 = TraceClock::now_ns();
  const TelemetrySnapshot snap = telemetry_capture(t0);
  TelemetrySnapshot oldest;
  double uptime_s = 0.0, self_before = 0.0;
  {
    std::lock_guard lock(mu_);
    window_.push_back(snap);
    // window_ticks deltas need window_ticks + 1 snapshots.
    while (window_.size() > opt_.window_ticks + 1) window_.erase(window_.begin());
    oldest = window_.front();
    uptime_s = static_cast<double>(t0 - start_ns_) * 1e-9;
    self_before = self_s_;
  }
  const TelemetryDerived d = telemetry_derive(oldest, snap, opt_);
  const std::string line = telemetry_tick_json(seq, snap, d, uptime_s, self_before);
  // Publish to the crashbox seqlock buffer: a crash report carries the most
  // recent tick even though the exporter thread dies with the process.
  Crashbox::set_last_tick(line.data(), line.size());
  if (!opt_.out.empty()) {
    std::ofstream f(opt_.out, std::ios::app);
    if (f) f << line << '\n';
  }
  if (!opt_.prom.empty()) {
    // Atomic replace: scrapers never see a half-written exposition.
    const std::string tmp = opt_.prom + ".tmp";
    {
      std::ofstream f(tmp, std::ios::trunc);
      if (!f) return;
      f << prometheus_exposition(snap, d, uptime_s, self_before);
    }
    std::rename(tmp.c_str(), opt_.prom.c_str());
  }
  Metrics::add(kTicks);
  const std::uint64_t t1 = TraceClock::now_ns();
  std::lock_guard lock(mu_);
  ++ticks_;
  self_s_ += static_cast<double>(t1 - t0) * 1e-9;
}

}  // namespace bst::util
