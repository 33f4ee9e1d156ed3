// Tests for util/ledger: entry distillation, JSONL round-trip, the trend
// gate semantics behind `bst_report --trend`, and the report-determinism
// guarantees the ledger relies on.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bst.h"

using namespace bst;

namespace {

// Temp-file path in the test's working directory, removed on destruction.
struct TempFile {
  std::string path;
  explicit TempFile(std::string name) : path(std::move(name)) { std::remove(path.c_str()); }
  ~TempFile() { std::remove(path.c_str()); }
};

util::Json entry_with(double solve_s, double residual) {
  util::Json phases = util::Json::object();
  phases.set("solve", util::Json::number(solve_s));
  util::Json metrics = util::Json::object();
  metrics.set("residual", util::Json::number(residual));
  util::Json e = util::Json::object();
  e.set("phases", std::move(phases));
  e.set("metrics", std::move(metrics));
  return e;
}

}  // namespace

TEST(Ledger, UtcTimestampShape) {
  const std::string ts = util::utc_timestamp();
  ASSERT_EQ(ts.size(), 20u);
  EXPECT_EQ(ts[4], '-');
  EXPECT_EQ(ts[7], '-');
  EXPECT_EQ(ts[10], 'T');
  EXPECT_EQ(ts[13], ':');
  EXPECT_EQ(ts[16], ':');
  EXPECT_EQ(ts.back(), 'Z');
}

TEST(Ledger, Fnv1aKnownVectors) {
  EXPECT_EQ(util::fnv1a_hex(""), "cbf29ce484222325");
  EXPECT_EQ(util::fnv1a_hex("a"), "af63dc4c8601ec8c");
  EXPECT_NE(util::fnv1a_hex("{\"n\":256}"), util::fnv1a_hex("{\"n\":512}"));
}

TEST(Ledger, EntryDistillsReportDocument) {
  util::PerfReport report("test_tool");
  report.param("n", static_cast<std::int64_t>(128));
  report.metric("time_s", 0.25);
  const util::Json entry = util::ledger_entry(report.build(/*include_tracer=*/false));

  ASSERT_NE(entry.find("utc"), nullptr);
  ASSERT_NE(entry.find("git"), nullptr);
  ASSERT_NE(entry.find("tool"), nullptr);
  EXPECT_EQ(entry.find("tool")->as_string(), "test_tool");
  ASSERT_NE(entry.find("params_hash"), nullptr);
  ASSERT_NE(entry.find("params"), nullptr);
  ASSERT_NE(entry.find("metrics"), nullptr);
  EXPECT_DOUBLE_EQ(entry.find("metrics")->find("time_s")->as_number(), 0.25);
  ASSERT_NE(entry.find("warnings"), nullptr);
  EXPECT_DOUBLE_EQ(entry.find("warnings")->as_number(), 0.0);
  // One line, no whitespace: the JSONL contract.
  const std::string line = entry.dump_compact();
  EXPECT_EQ(line.find('\n'), std::string::npos);
  EXPECT_EQ(line.find(": "), std::string::npos);
}

TEST(Ledger, AppendReadRoundTripSkipsCorruptLines) {
  TempFile f("test_ledger_roundtrip.jsonl");
  util::PerfReport report("test_tool");
  report.metric("time_s", 1.0);
  const util::Json doc = report.build(false);
  util::append_ledger(f.path, doc);
  util::append_ledger(f.path, doc);
  {
    std::ofstream os(f.path, std::ios::app);
    os << "{not json\n\n";  // corrupt + blank line must not poison the rest
  }
  util::append_ledger(f.path, doc);

  const std::vector<util::Json> entries = util::read_ledger(f.path);
  ASSERT_EQ(entries.size(), 3u);
  for (const util::Json& e : entries) EXPECT_EQ(e.find("tool")->as_string(), "test_tool");
  EXPECT_THROW(util::read_ledger("no_such_ledger_file.jsonl"), std::runtime_error);
}

TEST(Ledger, TrendFlagsRegressionOfLastAgainstRollingMedian) {
  std::vector<util::Json> entries{entry_with(1.0, 1e-12), entry_with(1.0, 1e-12),
                                  entry_with(2.0, 5e-12)};
  const util::TrendReport trend = util::ledger_trend(entries, /*max_regress=*/0.5,
                                                     /*min_seconds=*/0.0);
  EXPECT_EQ(trend.regressions, 1);
  bool saw_solve = false, saw_residual = false;
  for (const util::TrendStat& s : trend.series) {
    if (s.key == "phases.solve") {
      saw_solve = true;
      EXPECT_TRUE(s.gated);
      EXPECT_TRUE(s.regressed);
      EXPECT_DOUBLE_EQ(s.baseline, 1.0);
      EXPECT_DOUBLE_EQ(s.last, 2.0);
      EXPECT_NEAR(s.rel, 1.0, 1e-12);
    }
    if (s.key == "metrics.residual") {
      saw_residual = true;
      // Residuals are reported but never fail the gate (5x jump here).
      EXPECT_FALSE(s.gated);
      EXPECT_FALSE(s.regressed);
    }
  }
  EXPECT_TRUE(saw_solve);
  EXPECT_TRUE(saw_residual);
}

TEST(Ledger, TrendRespectsNoiseFloorAndDisabledGate) {
  std::vector<util::Json> entries{entry_with(1e-5, 0), entry_with(1e-5, 0),
                                  entry_with(1e-3, 0)};
  // Baseline 1e-5 is under the 1e-3 noise floor: a 100x jump is ignored.
  EXPECT_EQ(util::ledger_trend(entries, 0.5, 1e-3).regressions, 0);
  // max_regress < 0 disables gating entirely.
  std::vector<util::Json> bad{entry_with(1.0, 0), entry_with(1.0, 0), entry_with(10.0, 0)};
  EXPECT_EQ(util::ledger_trend(bad, -1.0, 0.0).regressions, 0);
}

TEST(Ledger, TrendSingleEntryIsInsufficientHistoryNotRegression) {
  std::vector<util::Json> entries{entry_with(1.0, 1e-12)};
  const util::TrendReport trend = util::ledger_trend(entries, 0.5, 0.0);
  EXPECT_EQ(trend.regressions, 0);
  EXPECT_TRUE(trend.insufficient_history);
  for (const util::TrendStat& s : trend.series) {
    EXPECT_FALSE(s.regressed);
    // baseline falls back to the single value; rel must be 0, not NaN/inf.
    EXPECT_DOUBLE_EQ(s.rel, 0.0);
  }
  std::vector<util::Json> two{entry_with(1.0, 0), entry_with(1.0, 0)};
  EXPECT_FALSE(util::ledger_trend(two, 0.5, 0.0).insufficient_history);
}

TEST(Ledger, TrendSkipsEntriesFromOtherMachines) {
  auto on_machine = [](double solve_s, const char* fp) {
    util::Json e = entry_with(solve_s, 0.0);
    e.set("machine", util::Json::string(fp));
    return e;
  };
  // Fast history from machine B would make A's last entry look like a 4x
  // regression; B must be filtered out against A's reference fingerprint.
  std::vector<util::Json> entries{on_machine(2.0, "aaaa"), on_machine(0.5, "bbbb"),
                                  on_machine(0.5, "bbbb"), on_machine(2.0, "aaaa")};
  const util::TrendReport trend = util::ledger_trend(entries, 0.5, 0.0);
  EXPECT_EQ(trend.skipped_machines, 2);
  EXPECT_EQ(trend.regressions, 0);
  for (const util::TrendStat& s : trend.series) {
    if (s.key == "phases.solve") {
      EXPECT_EQ(s.values.size(), 2u);
    }
  }
  // Entries predating the fingerprint field ("machine" absent) stay in.
  std::vector<util::Json> mixed{entry_with(1.0, 0), on_machine(1.0, "aaaa")};
  EXPECT_EQ(util::ledger_trend(mixed, 0.5, 0.0).skipped_machines, 0);
}

TEST(Ledger, TrendSkipsEntriesOnDifferentSolverPath) {
  auto on_path = [](double solve_s, const char* sp) {
    util::Json e = entry_with(solve_s, 0.0);
    util::Json params = util::Json::object();
    params.set("solver_path", util::Json::string(sp));
    e.set("params", std::move(params));
    return e;
  };
  // A much-faster PCG history would make the Schur entry look regressed;
  // cross-path entries must be excluded, not compared.
  std::vector<util::Json> entries{on_path(0.1, "pcg"), on_path(0.1, "pcg"),
                                  on_path(2.0, "schur")};
  const util::TrendReport trend = util::ledger_trend(entries, 0.5, 0.0);
  EXPECT_EQ(trend.skipped_paths, 2);
  EXPECT_EQ(trend.regressions, 0);
  for (const util::TrendStat& s : trend.series) {
    if (s.key == "phases.solve") {
      EXPECT_EQ(s.values.size(), 1u);
    }
  }
  // Entries predating the field stay in (old ledgers keep their history),
  // and a same-path history is compared as before.
  std::vector<util::Json> mixed{entry_with(1.0, 0), on_path(1.0, "schur")};
  EXPECT_EQ(util::ledger_trend(mixed, 0.5, 0.0).skipped_paths, 0);
  std::vector<util::Json> same{on_path(1.0, "pcg"), on_path(1.0, "pcg"), on_path(2.0, "pcg")};
  EXPECT_EQ(util::ledger_trend(same, 0.5, 0.0).skipped_paths, 0);
  EXPECT_EQ(util::ledger_trend(same, 0.5, 0.0).regressions, 1);
}

TEST(Ledger, TrendGatesAttainmentOnDropsNotRises) {
  auto with_attainment = [](double a) {
    util::Json att = util::Json::object();
    att.set("reflector_apply", util::Json::number(a));
    util::Json e = util::Json::object();
    e.set("attainment", std::move(att));
    return e;
  };
  // 0.6 -> 0.2 is a 67% drop: regresses at max_regress = 0.5.
  std::vector<util::Json> drop{with_attainment(0.6), with_attainment(0.6),
                               with_attainment(0.2)};
  const util::TrendReport bad = util::ledger_trend(drop, 0.5, /*min_seconds=*/1.0);
  EXPECT_EQ(bad.regressions, 1);
  for (const util::TrendStat& s : bad.series) {
    EXPECT_TRUE(s.gated);
    EXPECT_TRUE(s.higher_is_better);
    EXPECT_TRUE(s.regressed);  // min_seconds floor must not shield fractions
  }
  // The reverse move (0.2 -> 0.6, a 3x *rise*) is an improvement, not a
  // regression, even though |rel| is far past the gate.
  std::vector<util::Json> rise{with_attainment(0.2), with_attainment(0.2),
                               with_attainment(0.6)};
  EXPECT_EQ(util::ledger_trend(rise, 0.5, 0.0).regressions, 0);
}

TEST(Ledger, EntryCarriesMachineAndAttainmentColumns) {
  util::PerfReport report("test_tool");
  report.metric("time_s", 1.0);
  util::Json att = util::Json::object();
  util::Json rows = util::Json::object();
  util::Json row = util::Json::object();
  row.set("attainment", util::Json::number(0.42));
  row.set("gflops", util::Json::number(3.0));
  rows.set("reflector_apply", std::move(row));
  att.set("phases", std::move(rows));
  report.set_attainment(std::move(att));

  const util::Json entry = util::ledger_entry(report.build(false));
  const util::Json* machine = entry.find("machine");
  ASSERT_NE(machine, nullptr);
  EXPECT_EQ(machine->as_string(), util::machine_fingerprint());
  const util::Json* a = entry.find("attainment");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(a->find("reflector_apply"), nullptr);
  EXPECT_DOUBLE_EQ(a->find("reflector_apply")->as_number(), 0.42);
}

TEST(Ledger, EntryCarriesPmuColumnsWhenCountersPresent) {
  util::Json row = util::Json::object();
  row.set("seconds", util::Json::number(0.5));
  row.set("cycles", util::Json::number(1.5e9));
  row.set("instructions", util::Json::number(3.0e9));
  row.set("llc_loads", util::Json::number(1.0e6));
  row.set("llc_misses", util::Json::number(2.5e5));
  util::Json phases = util::Json::object();
  phases.set("reflector_apply", std::move(row));
  util::Json doc = util::Json::object();
  doc.set("tool", util::Json::string("test_tool"));
  doc.set("phases", std::move(phases));

  const util::Json entry = util::ledger_entry(doc);
  const util::Json* pmu = entry.find("pmu");
  ASSERT_NE(pmu, nullptr);
  ASSERT_NE(pmu->find("ipc"), nullptr);
  EXPECT_DOUBLE_EQ(pmu->find("ipc")->as_number(), 2.0);
  ASSERT_NE(pmu->find("llc_miss_rate"), nullptr);
  EXPECT_DOUBLE_EQ(pmu->find("llc_miss_rate")->as_number(), 0.25);
}

TEST(Ledger, EntryOmitsPmuColumnsWithoutCounters) {
  // A run where perf_event_open was denied (or --prof never given) has no
  // hardware columns in its phases; the entry must omit "pmu" entirely
  // rather than write zeros that would poison the trend series.
  util::PerfReport report("test_tool");
  report.metric("time_s", 0.25);
  const util::Json entry = util::ledger_entry(report.build(false));
  EXPECT_EQ(entry.find("pmu"), nullptr);
}

TEST(Ledger, TrendSkipsPmuOnPrePmuHistory) {
  // Two pre-PR lines without pmu columns plus a new one with them: the
  // pmu series is informational (never gated) and absent keys drop out of
  // the series instead of failing the trend.
  util::Json newest = entry_with(1.0, 1e-12);
  util::Json pmu = util::Json::object();
  pmu.set("ipc", util::Json::number(1.8));
  pmu.set("llc_miss_rate", util::Json::number(0.1));
  newest.set("pmu", std::move(pmu));
  std::vector<util::Json> entries{entry_with(1.0, 1e-12), entry_with(1.0, 1e-12),
                                  std::move(newest)};
  const util::TrendReport trend = util::ledger_trend(entries, /*max_regress=*/0.5,
                                                     /*min_seconds=*/0.0);
  EXPECT_EQ(trend.regressions, 0);
  bool saw_ipc = false;
  for (const util::TrendStat& s : trend.series) {
    if (s.key == "pmu.ipc") {
      saw_ipc = true;
      EXPECT_FALSE(s.gated);
      EXPECT_FALSE(s.regressed);
      ASSERT_EQ(s.values.size(), 1u);  // only the new line carries it
      EXPECT_DOUBLE_EQ(s.last, 1.8);
    }
  }
  EXPECT_TRUE(saw_ipc);
}

TEST(Ledger, SparklineShapes) {
  const std::string ramp = util::sparkline({0.0, 1.0, 2.0, 3.0});
  ASSERT_EQ(ramp.size(), 4u);
  EXPECT_EQ(ramp.front(), '.');
  EXPECT_EQ(ramp.back(), '@');
  EXPECT_EQ(util::sparkline({5.0, 5.0, 5.0}), "---");
  const std::string with_nan = util::sparkline({0.0, std::nan(""), 1.0});
  EXPECT_EQ(with_nan[1], '?');
  EXPECT_TRUE(util::sparkline({}).empty());
}

TEST(Ledger, ReportBuildIsDeterministic) {
  // Two identical reports serialize byte-identically, and the tracer's
  // phase section comes out sorted by name regardless of registration
  // order -- both needed for stable ledger diffs.
  util::Tracer::reset();
  util::Tracer::enable();
  const util::PhaseId zz = util::Tracer::phase("zz_last_registered");
  const util::PhaseId aa = util::Tracer::phase("aa_first_alphabetically");
  { util::TraceSpan span(zz); }
  { util::TraceSpan span(aa); }
  util::Tracer::disable();

  auto make = [] {
    util::PerfReport r("det_tool");
    r.param("n", static_cast<std::int64_t>(64));
    r.metric("time_s", 0.5);
    return r.build();
  };
  const util::Json a = make();
  EXPECT_EQ(a.dump(), make().dump());

  const util::Json* phases = a.find("phases");
  ASSERT_NE(phases, nullptr);
  std::string prev;
  bool saw_both = false;
  for (const auto& [name, stats] : phases->members()) {
    EXPECT_LE(prev, name);
    prev = name;
    saw_both |= name == "zz_last_registered";
  }
  EXPECT_TRUE(saw_both);
  util::Tracer::reset();
}
