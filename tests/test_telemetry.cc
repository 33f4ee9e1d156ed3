// Tests for the live-telemetry layer: gauges (set/add semantics, snapshot
// includes zero readings), the no-silent-caps registry overflow contract,
// concurrent writers vs snapshot() (exercised under the TSan CI job), the
// pure tick/exposition serializers (byte-determinism), the rolling-window
// derivation math (QPS, quantiles, burn-rate), and the TelemetryExporter
// end to end against temp files.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "util/metrics.h"
#include "util/report.h"
#include "util/telemetry.h"
#include "util/trace.h"

namespace bst {
namespace {

using util::GaugeStats;
using util::Metrics;
using util::TelemetryDerived;
using util::TelemetryOptions;
using util::TelemetrySnapshot;

// ------------------------------------------------------------------ gauges

TEST(MetricsGauges, SetAddAndValue) {
  const util::GaugeId id = Metrics::gauge("test_gauge_basic");
  EXPECT_EQ(id, Metrics::gauge("test_gauge_basic"));  // interned
  Metrics::gauge_set(id, 42);
  EXPECT_EQ(Metrics::gauge_value(id), 42);
  Metrics::gauge_add(id, -40);
  EXPECT_EQ(Metrics::gauge_value(id), 2);
  Metrics::gauge_add(id, -5);
  EXPECT_EQ(Metrics::gauge_value(id), -3);  // gauges go below zero
}

TEST(MetricsGauges, SnapshotIncludesZeroReadings) {
  const util::GaugeId id = Metrics::gauge("test_gauge_zero");
  Metrics::gauge_set(id, 0);
  bool found = false;
  for (const GaugeStats& g : Metrics::gauges_snapshot()) {
    if (g.name == "test_gauge_zero") {
      found = true;
      EXPECT_EQ(g.value, 0);  // an empty queue is a measurement
    }
  }
  EXPECT_TRUE(found);
}

TEST(MetricsGauges, InvalidIdIsNoop) {
  Metrics::gauge_set(-1, 99);       // must not crash
  Metrics::gauge_add(-1, 1);
  EXPECT_EQ(Metrics::gauge_value(-1), 0);
}

// Concurrent counter/gauge writers racing snapshot() -- the TSan job runs
// this binary, so any unsynchronized access to the tables fails loudly.
TEST(MetricsGauges, ConcurrentWritersVsSnapshot) {
  const util::GaugeId g = Metrics::gauge("test_gauge_race");
  const util::CtrId c = Metrics::counter("test_ctr_race");
  const std::uint64_t c0 = Metrics::counter_value(c);
  std::vector<std::thread> threads;
  threads.reserve(4);
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&, i] {
      for (int k = 0; k < 4000; ++k) {
        Metrics::gauge_add(g, (i % 2 == 0) ? 1 : -1);
        Metrics::gauge_set(g, k);
        Metrics::add(c);
      }
    });
  }
  for (int k = 0; k < 200; ++k) {  // snapshots race the writers
    (void)Metrics::gauges_snapshot();
    (void)Metrics::counters_snapshot();
    (void)Metrics::gauge_value(g);
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(Metrics::counter_value(c), c0 + 16000u);
  (void)Metrics::gauges_snapshot();
}

// ------------------------------------------------- snapshot + pure derive

TelemetrySnapshot fixed_snapshot(std::uint64_t ts_ns) {
  TelemetrySnapshot s;
  s.ts_ns = ts_ns;
  s.counters.push_back({"service_completed", 100});
  s.counters.push_back({"service_cache_hits", 90});
  s.gauges.push_back({"service_queue_depth", 3});
  s.gauges.push_back({"service_cache_resident_bytes", 1 << 20});
  util::HistogramStats h;
  h.name = "service_request_ns";
  h.count = 100;
  h.sum = 100'000'000;
  h.min = 500'000;
  h.max = 2'000'000;
  h.p50 = 1'000'000.0;
  h.p95 = 1'900'000.0;
  h.p99 = 1'990'000.0;
  h.buckets.push_back({util::hist_bucket_lo(util::hist_bucket(1'000'000)), 90});
  h.buckets.push_back({util::hist_bucket_lo(util::hist_bucket(2'000'000)), 10});
  s.histograms.push_back(h);
  return s;
}

TEST(Telemetry, CaptureSeesCountersGaugesHistograms) {
  const util::CtrId c = Metrics::counter("test_tel_ctr");
  const util::GaugeId g = Metrics::gauge("test_tel_gauge");
  const util::HistId h = Metrics::histogram("test_tel_hist");
  Metrics::add(c, 5);
  Metrics::gauge_set(g, 11);
  Metrics::record(h, 1234);
  const TelemetrySnapshot snap = util::telemetry_capture(777);
  EXPECT_EQ(snap.ts_ns, 777u);
  auto has = [](const auto& vec, const std::string& name) {
    for (const auto& e : vec)
      if (e.name == name) return true;
    return false;
  };
  EXPECT_TRUE(has(snap.counters, "test_tel_ctr"));
  EXPECT_TRUE(has(snap.gauges, "test_tel_gauge"));
  EXPECT_TRUE(has(snap.histograms, "test_tel_hist"));
}

// Window math on hand-built snapshots: 60 completions over 2 seconds at a
// known latency distribution.
TEST(Telemetry, DeriveWindowQpsAndQuantiles) {
  TelemetrySnapshot oldest = fixed_snapshot(0);
  TelemetrySnapshot newest = fixed_snapshot(2'000'000'000);  // +2 s
  newest.counters[0].value = 160;            // +60 completions
  newest.histograms[0].count = 160;
  newest.histograms[0].buckets[0].second = 140;  // +50 fast
  newest.histograms[0].buckets[1].second = 20;   // +10 slow
  TelemetryOptions opt;
  opt.slo_p99_ms = 100.0;
  const TelemetryDerived d = util::telemetry_derive(oldest, newest, opt);
  EXPECT_NEAR(d.window_s, 2.0, 1e-12);
  EXPECT_EQ(d.window_count, 60u);
  EXPECT_NEAR(d.qps, 30.0, 1e-9);
  // 50/60 samples sit in the ~1 ms bucket, 10/60 in the ~2 ms bucket: the
  // p50 must land in the first, the p99 in the second (25% bucket error).
  EXPECT_GT(d.p50_ms, 0.5);
  EXPECT_LT(d.p50_ms, 1.5);
  EXPECT_GT(d.p99_ms, 1.4);
  EXPECT_LT(d.p99_ms, 3.0);
  EXPECT_EQ(d.bad_fraction, 0.0);  // nothing slower than 100 ms
  EXPECT_EQ(d.burn_rate, 0.0);
}

TEST(Telemetry, DeriveBurnRateCountsSlowRequests) {
  TelemetrySnapshot oldest = fixed_snapshot(0);
  TelemetrySnapshot newest = fixed_snapshot(1'000'000'000);
  newest.counters[0].value = 200;  // +100 completions
  newest.histograms[0].count = 200;
  newest.histograms[0].buckets[0].second = 188;  // +98 fast (~1 ms)
  newest.histograms[0].buckets[1].second = 12;   // +2 slow (~2 ms)
  TelemetryOptions opt;
  opt.slo_p99_ms = 1.5;  // the ~2 ms bucket violates the SLO
  const TelemetryDerived d = util::telemetry_derive(oldest, newest, opt);
  EXPECT_GT(d.bad_fraction, 0.0);
  EXPECT_LE(d.bad_fraction, 0.05);
  EXPECT_NEAR(d.burn_rate, d.bad_fraction / 0.01, 1e-12);
  // ~2% of requests blow a p99 budget of 1% -> burning ~2x faster.
  EXPECT_GT(d.burn_rate, 1.0);
}

TEST(Telemetry, DeriveSameSnapshotYieldsZeroWindow) {
  const TelemetrySnapshot s = fixed_snapshot(42);
  const TelemetryDerived d = util::telemetry_derive(s, s, TelemetryOptions{});
  EXPECT_EQ(d.window_s, 0.0);
  EXPECT_EQ(d.window_count, 0u);
  EXPECT_EQ(d.qps, 0.0);
  EXPECT_EQ(d.burn_rate, 0.0);
}

// ------------------------------------------------------- pure serializers

TEST(Telemetry, TickJsonIsDeterministicAndParses) {
  const TelemetrySnapshot snap = fixed_snapshot(123456789);
  const TelemetryDerived d =
      util::telemetry_derive(fixed_snapshot(0), snap, TelemetryOptions{});
  const std::string a = util::telemetry_tick_json(7, snap, d, 1.5, 0.001);
  const std::string b = util::telemetry_tick_json(7, snap, d, 1.5, 0.001);
  EXPECT_EQ(a, b);  // byte-identical on identical inputs
  EXPECT_EQ(a.find('\n'), std::string::npos);  // one line
  const util::Json doc = util::parse_json(a);
  ASSERT_EQ(doc.kind(), util::Json::Kind::Object);
  for (const char* key : {"seq", "ts_ns", "uptime_s", "telemetry_self_s", "qps", "p50_ms",
                          "p99_ms", "burn_rate", "counters", "gauges", "histograms"}) {
    EXPECT_NE(doc.find(key), nullptr) << key << " missing from " << a;
  }
  EXPECT_EQ(doc.find("seq")->as_number(), 7.0);
  const util::Json* gauges = doc.find("gauges");
  ASSERT_NE(gauges->find("service_queue_depth"), nullptr);
  EXPECT_EQ(gauges->find("service_queue_depth")->as_number(), 3.0);
}

TEST(Telemetry, TickJsonSectionsSortedByName) {
  TelemetrySnapshot snap = fixed_snapshot(1);
  snap.counters.push_back({"aaa_first", 1});  // interned last, sorts first
  const TelemetryDerived d = util::telemetry_derive(snap, snap, TelemetryOptions{});
  const std::string line = util::telemetry_tick_json(0, snap, d, 0.0, 0.0);
  EXPECT_LT(line.find("aaa_first"), line.find("service_cache_hits"));
  EXPECT_LT(line.find("service_cache_hits"), line.find("service_completed"));
}

TEST(Telemetry, PrometheusExpositionWellFormed) {
  const TelemetrySnapshot snap = fixed_snapshot(1);
  const TelemetryDerived d = util::telemetry_derive(snap, snap, TelemetryOptions{});
  const std::string a = util::prometheus_exposition(snap, d, 2.0, 0.01);
  EXPECT_EQ(a, util::prometheus_exposition(snap, d, 2.0, 0.01));  // deterministic
  // Counters gain the _total suffix; gauges and derived series are plain.
  EXPECT_NE(a.find("# TYPE bst_service_completed_total counter"), std::string::npos) << a;
  EXPECT_NE(a.find("bst_service_completed_total 100"), std::string::npos) << a;
  EXPECT_NE(a.find("# TYPE bst_service_queue_depth gauge"), std::string::npos);
  EXPECT_NE(a.find("bst_service_queue_depth 3"), std::string::npos);
  EXPECT_NE(a.find("# TYPE bst_qps gauge"), std::string::npos);
  EXPECT_NE(a.find("bst_burn_rate"), std::string::npos);
  EXPECT_NE(a.find("bst_uptime_seconds 2"), std::string::npos);
  // Histograms export as summaries with quantile labels.
  EXPECT_NE(a.find("# TYPE bst_service_request_ns summary"), std::string::npos);
  EXPECT_NE(a.find("bst_service_request_ns{quantile=\"0.99\"}"), std::string::npos);
  EXPECT_NE(a.find("bst_service_request_ns_count 100"), std::string::npos);
  EXPECT_EQ(a.back(), '\n');
}

TEST(Telemetry, PrometheusNameSanitization) {
  TelemetrySnapshot snap;
  snap.counters.push_back({"weird-name.with/chars", 5});
  const TelemetryDerived d{};
  const std::string a = util::prometheus_exposition(snap, d, 0.0, 0.0);
  EXPECT_NE(a.find("bst_weird_name_with_chars_total 5"), std::string::npos) << a;
  EXPECT_EQ(a.find("weird-name"), std::string::npos);
}

// ---------------------------------------------------------- env overrides

TEST(TelemetryOptions, FromEnvOverridesAndClamps) {
  setenv("BST_TELEMETRY_INTERVAL_MS", "5", 1);  // clamped to 10
  setenv("BST_TELEMETRY_OUT", "/tmp/ticks.jsonl", 1);
  setenv("BST_TELEMETRY_PROM", "/tmp/bst.prom", 1);
  setenv("BST_SLO_P99_MS", "25.5", 1);
  setenv("BST_TELEMETRY_WINDOW", "0", 1);  // clamped to 1
  const TelemetryOptions o = TelemetryOptions::from_env();
  EXPECT_EQ(o.interval_ms, 10u);
  EXPECT_EQ(o.out, "/tmp/ticks.jsonl");
  EXPECT_EQ(o.prom, "/tmp/bst.prom");
  EXPECT_NEAR(o.slo_p99_ms, 25.5, 1e-12);
  EXPECT_EQ(o.window_ticks, 1u);
  EXPECT_TRUE(o.active());
  for (const char* v : {"BST_TELEMETRY_INTERVAL_MS", "BST_TELEMETRY_OUT",
                        "BST_TELEMETRY_PROM", "BST_SLO_P99_MS", "BST_TELEMETRY_WINDOW"}) {
    unsetenv(v);
  }
  const TelemetryOptions d = TelemetryOptions::from_env();
  EXPECT_EQ(d.interval_ms, 1000u);
  EXPECT_FALSE(d.active());  // no outputs -> exporter start() is a no-op
}

TEST(TelemetryOptions, FromEnvRejectsMalformedAndNegative) {
  for (const auto& [var, value] : {std::pair{"BST_TELEMETRY_WINDOW", "-1"},
                                   std::pair{"BST_TELEMETRY_INTERVAL_MS", "50ms"},
                                   std::pair{"BST_SLO_P99_MS", "-2.5"}}) {
    setenv(var, value, 1);
    try {
      (void)TelemetryOptions::from_env();
      ADD_FAILURE() << var << "=" << value << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(var), std::string::npos) << e.what();
    }
    unsetenv(var);
  }
}

// ------------------------------------------------------- exporter, end to end

std::string temp_path(const char* stem) {
  const char* dir = std::getenv("TMPDIR");
  std::ostringstream os;
  os << (dir != nullptr ? dir : "/tmp") << "/" << stem << "_" << ::getpid();
  return os.str();
}

TEST(TelemetryExporter, InactiveOptionsNeverStart) {
  util::TelemetryExporter exp{TelemetryOptions{}};
  exp.start();
  EXPECT_FALSE(exp.running());
  exp.stop();  // harmless
  EXPECT_EQ(exp.ticks(), 0u);
}

TEST(TelemetryExporter, WritesTicksAndPromAndFinalTickOnStop) {
  const std::string out = temp_path("bst_test_ticks") + ".jsonl";
  const std::string prom = temp_path("bst_test_prom") + ".prom";
  std::remove(out.c_str());
  std::remove(prom.c_str());

  TelemetryOptions opt;
  opt.out = out;
  opt.prom = prom;
  opt.interval_ms = 20;
  const util::CtrId c = Metrics::counter("service_completed");
  {
    util::TelemetryExporter exp(opt);
    exp.start();
    EXPECT_TRUE(exp.running());
    Metrics::add(c, 10);
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    exp.stop();
    EXPECT_FALSE(exp.running());
    EXPECT_GE(exp.ticks(), 1u);  // at least the final stop() tick
    EXPECT_GE(exp.self_seconds(), 0.0);
  }

  // The tick stream parses line by line with consecutive seq.
  std::ifstream f(out);
  ASSERT_TRUE(f.is_open()) << out;
  std::string line;
  std::uint64_t expect_seq = 0, ticks = 0;
  while (std::getline(f, line)) {
    if (line.empty()) continue;
    const util::Json doc = util::parse_json(line);
    ASSERT_EQ(doc.kind(), util::Json::Kind::Object) << line;
    EXPECT_EQ(doc.find("seq")->as_number(), static_cast<double>(expect_seq));
    ++expect_seq;
    ++ticks;
  }
  EXPECT_GE(ticks, 1u);

  // The Prometheus file exists, is non-empty, and carries the derived series.
  std::ifstream pf(prom);
  ASSERT_TRUE(pf.is_open()) << prom;
  std::stringstream ss;
  ss << pf.rdbuf();
  const std::string exposition = ss.str();
  EXPECT_NE(exposition.find("bst_qps"), std::string::npos);
  EXPECT_NE(exposition.find("bst_uptime_seconds"), std::string::npos);
  EXPECT_NE(exposition.find("# TYPE"), std::string::npos);
  EXPECT_EQ(exposition.find(".tmp"), std::string::npos);  // renamed, not partial

  std::remove(out.c_str());
  std::remove(prom.c_str());
}

TEST(TelemetryExporter, StopIsIdempotentAndRestartable) {
  const std::string out = temp_path("bst_test_restart") + ".jsonl";
  std::remove(out.c_str());
  TelemetryOptions opt;
  opt.out = out;
  opt.interval_ms = 10;
  util::TelemetryExporter exp(opt);
  exp.start();
  exp.stop();
  exp.stop();  // second stop: no-op, no crash
  EXPECT_GE(exp.ticks(), 1u);
  exp.start();  // a fresh run after stop (tick count restarts with it)
  exp.stop();
  EXPECT_GE(exp.ticks(), 1u);
  std::remove(out.c_str());
}

// Shutdown racing an in-flight tick: stop() from another thread while the
// exporter thread is mid-tick and the process keeps mutating metrics.  The
// assertions are deliberately weak (no crash, monotone tick count, not
// running afterwards); the real check is the TSan CI job, which runs this
// binary and flags any data race between the tick loop, the metric
// writers, and the stop path.
TEST(TelemetryExporter, StopRacesInflightTick) {
  const std::string out = temp_path("bst_test_race") + ".jsonl";
  std::remove(out.c_str());
  const util::CtrId c = Metrics::counter("service_completed");
  for (int round = 0; round < 8; ++round) {
    TelemetryOptions opt;
    opt.out = out;
    opt.interval_ms = 1;  // as many in-flight ticks as possible
    util::TelemetryExporter exp(opt);
    exp.start();
    std::atomic<bool> done{false};
    std::thread stopper([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(2 + round));
      exp.stop();
      done.store(true);
    });
    // Keep the registry hot while the tick loop reads it...
    while (!done.load()) {
      Metrics::add(c, 1);
      (void)exp.running();
      (void)exp.ticks();
    }
    stopper.join();
    exp.stop();  // second stop from this thread: idempotent under the race
    EXPECT_FALSE(exp.running());
    EXPECT_GE(exp.ticks(), 1u);  // the final stop() tick always lands
  }
  std::remove(out.c_str());
}

// A full registry refuses further names without throwing or aborting: the
// id is invalid, records no-op, the drop is counted, and counters_snapshot
// surfaces the synthetic `metrics_dropped` entry (no silent caps).  Interned
// names persist for the process, so this saturating test runs LAST in the
// binary -- everything after it would fail to register fresh gauges.
TEST(MetricsGaugesZZZ, RegistryOverflowIsCountedNotSilent) {
  for (int i = 0; i < Metrics::kMaxGauges; ++i) {
    Metrics::gauge("test_gauge_fill_" + std::to_string(i));  // idempotent refill
  }
  const std::uint64_t dropped0 = Metrics::dropped();
  const util::GaugeId overflow = Metrics::gauge("test_gauge_overflow_xyz");
  ASSERT_LT(overflow, 0);  // table is saturated: invalid id, not a throw
  EXPECT_GT(Metrics::dropped(), dropped0);
  Metrics::gauge_set(overflow, 7);  // no-op, no crash
  EXPECT_EQ(Metrics::gauge_value(overflow), 0);
  bool synthetic = false;
  for (const util::CounterStats& c : Metrics::counters_snapshot()) {
    if (c.name == "metrics_dropped") {
      synthetic = true;
      EXPECT_GE(c.value, dropped0 + 1);
    }
  }
  EXPECT_TRUE(synthetic);
}

}  // namespace
}  // namespace bst
