// Tests for the event flight recorder (util/flight_recorder.h): ring
// overflow, cross-thread recording, the chrome-trace exporter's per-tid B/E
// re-balancing, and watchdog warnings landing as instant markers.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "util/flight_recorder.h"
#include "util/flops.h"
#include "util/report.h"
#include "util/trace.h"
#include "util/watchdog.h"

namespace bst::util {
namespace {

class FlightTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::reset();
    Tracer::enable();
  }
  void TearDown() override {
    FlightRecorder::disable();
    Tracer::disable();
    Tracer::reset();
  }
};

// The one ring that recorded anything (tests enable() fresh, which clears
// every ring, so single-threaded tests see exactly one non-empty ring).
ThreadEvents only_ring() {
  const std::vector<ThreadEvents> threads = FlightRecorder::snapshot();
  EXPECT_EQ(threads.size(), 1u);
  return threads.empty() ? ThreadEvents{} : threads.front();
}

// Chrome-trace invariant the exporter guarantees: within every tid, B/E
// events nest like parentheses (matching names) and end balanced.
void expect_balanced(const Json& doc) {
  const Json* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  std::map<double, std::vector<std::string>> stacks;
  std::map<double, double> last_ts;
  for (const Json& e : events->items()) {
    ASSERT_NE(e.find("ph"), nullptr);
    ASSERT_NE(e.find("tid"), nullptr);
    ASSERT_NE(e.find("ts"), nullptr);
    const std::string ph = e.find("ph")->as_string();
    const double tid = e.find("tid")->as_number();
    const double ts = e.find("ts")->as_number();
    const std::string name = e.find("name")->as_string();
    if (name != "flight_recorder_dropped") {  // dropped marker pins ts = 0
      auto it = last_ts.find(tid);
      if (it != last_ts.end()) {
        EXPECT_LE(it->second, ts) << "ts went backwards in tid " << tid;
        it->second = ts;
      } else {
        last_ts.emplace(tid, ts);
      }
    }
    if (ph == "B") {
      stacks[tid].push_back(name);
    } else if (ph == "E") {
      ASSERT_FALSE(stacks[tid].empty()) << "orphan End in tid " << tid;
      EXPECT_EQ(stacks[tid].back(), name);
      stacks[tid].pop_back();
    } else {
      EXPECT_EQ(ph, "i");
    }
  }
  for (const auto& [tid, stack] : stacks) {
    EXPECT_TRUE(stack.empty()) << "unclosed Begin in tid " << tid;
  }
}

Json export_trace() {
  std::ostringstream os;
  FlightRecorder::write_chrome_trace(os);
  return parse_json(os.str());
}

TEST_F(FlightTest, DisabledRecorderRecordsNothing) {
  FlightRecorder::enable(16);
  FlightRecorder::reset();
  FlightRecorder::disable();
  FlightRecorder::instant(Tracer::phase("flight_test_off"), 0, 1.0, 2.0);
  { TraceSpan span(Tracer::phase("flight_test_off")); }
  EXPECT_TRUE(FlightRecorder::snapshot().empty());
}

TEST_F(FlightTest, RingOverflowKeepsTheMostRecentEvents) {
  FlightRecorder::enable(8);
  const PhaseId p = Tracer::phase("flight_test_overflow");
  for (int i = 0; i < 20; ++i) {
    FlightRecorder::instant(p, i, static_cast<double>(i), 0.0);
  }
  const ThreadEvents te = only_ring();
  EXPECT_EQ(te.dropped, 12u);
  ASSERT_EQ(te.events.size(), 8u);
  for (std::size_t i = 0; i < te.events.size(); ++i) {
    EXPECT_EQ(te.events[i].kind, EventKind::kInstant);
    EXPECT_EQ(te.events[i].step, static_cast<std::int64_t>(12 + i));  // oldest first
    if (i > 0) {
      EXPECT_GE(te.events[i].ts_ns, te.events[i - 1].ts_ns);
    }
  }
}

TEST_F(FlightTest, SpansEmitNestedBeginEndWithFlopDeltas) {
  FlightRecorder::enable(64);
  const PhaseId outer = Tracer::phase("flight_test_outer");
  const PhaseId inner = Tracer::phase("flight_test_inner");
  {
    TraceSpan so(outer);
    FlopCounter::charge(3);
    {
      TraceSpan si(inner);
      FlopCounter::charge(7);
    }
  }
  const ThreadEvents te = only_ring();
  ASSERT_EQ(te.events.size(), 4u);
  EXPECT_EQ(te.events[0].kind, EventKind::kBegin);
  EXPECT_EQ(te.events[0].phase, outer);
  EXPECT_EQ(te.events[1].kind, EventKind::kBegin);
  EXPECT_EQ(te.events[1].phase, inner);
  EXPECT_EQ(te.events[2].kind, EventKind::kEnd);
  EXPECT_EQ(te.events[2].phase, inner);
  EXPECT_EQ(te.events[3].kind, EventKind::kEnd);
  EXPECT_EQ(te.events[3].phase, outer);
  // End events carry the span's flop delta (spans are inclusive).
  EXPECT_EQ(te.events[2].a, 7u);
  EXPECT_EQ(te.events[3].a, 10u);
}

TEST_F(FlightTest, ThreadsRecordIntoDistinctRings) {
  FlightRecorder::enable(1024);
  const PhaseId p = Tracer::phase("flight_test_threads");
  constexpr int kThreads = 4;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([p, t] {
      Tracer::set_step(t);
      for (int i = 0; i < 10; ++i) {
        TraceSpan span(p);
      }
      FlightRecorder::instant(p, t, static_cast<double>(t), 0.0);
    });
  }
  for (std::thread& w : workers) w.join();

  const std::vector<ThreadEvents> threads = FlightRecorder::snapshot();
  ASSERT_EQ(threads.size(), static_cast<std::size_t>(kThreads));
  std::set<std::uint32_t> tids;
  for (const ThreadEvents& te : threads) {
    tids.insert(te.tid);
    EXPECT_EQ(te.dropped, 0u);
    EXPECT_EQ(te.events.size(), 21u);  // 10 B/E pairs + 1 instant
    for (std::size_t i = 1; i < te.events.size(); ++i) {
      EXPECT_GE(te.events[i].ts_ns, te.events[i - 1].ts_ns);
    }
    // Every event on a ring carries that thread's step index.
    const std::int64_t step = te.events.back().step;
    for (const FlightEvent& e : te.events) EXPECT_EQ(e.step, step);
  }
  EXPECT_EQ(tids.size(), static_cast<std::size_t>(kThreads));

  // The multi-thread export parses and stays balanced per tid.
  expect_balanced(export_trace());
}

TEST_F(FlightTest, ExporterDropsOrphanEndsAndUnclosedBegins) {
  FlightRecorder::enable(64);
  const PhaseId p = Tracer::phase("flight_test_orphans");
  FlightRecorder::end(p, TraceClock::now_ns(), 0, 0);  // orphan End
  {
    TraceSpan span(p);  // the one balanced pair
  }
  FlightRecorder::begin(p, TraceClock::now_ns(), 0, 0);  // never closed
  ASSERT_EQ(only_ring().events.size(), 4u);

  const Json doc = export_trace();
  expect_balanced(doc);
  int begins = 0, ends = 0;
  for (const Json& e : doc.find("traceEvents")->items()) {
    const std::string ph = e.find("ph")->as_string();
    begins += ph == "B";
    ends += ph == "E";
  }
  EXPECT_EQ(begins, 1);
  EXPECT_EQ(ends, 1);
}

TEST_F(FlightTest, ExportStaysBalancedAfterRingWrap) {
  FlightRecorder::enable(8);
  const PhaseId p = Tracer::phase("flight_test_wrap");
  FlightRecorder::begin(p, TraceClock::now_ns(), 0, 0);  // wraps away mid-run
  for (int i = 0; i < 10; ++i) {
    TraceSpan span(p);
  }
  const ThreadEvents te = only_ring();
  EXPECT_GT(te.dropped, 0u);

  const Json doc = export_trace();
  expect_balanced(doc);
  // The overflow leaves a drop marker on the tid.
  bool saw_drop_marker = false;
  for (const Json& e : doc.find("traceEvents")->items()) {
    if (e.find("name")->as_string() == "flight_recorder_dropped") {
      saw_drop_marker = true;
      EXPECT_GT(e.find("args")->find("dropped")->as_number(), 0.0);
    }
  }
  EXPECT_TRUE(saw_drop_marker);
}

TEST_F(FlightTest, WatchdogWarningsBecomeInstantMarkers) {
  FlightRecorder::enable(64);
  Watchdog::warn("flight_test_code", 5, 1.5, 2.5);
  const ThreadEvents te = only_ring();
  ASSERT_EQ(te.events.size(), 1u);
  EXPECT_EQ(te.events[0].kind, EventKind::kInstant);
  EXPECT_EQ(te.events[0].step, 5);

  const Json doc = export_trace();
  const std::vector<Json>& events = doc.find("traceEvents")->items();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].find("name")->as_string(), "warn:flight_test_code");
  EXPECT_EQ(events[0].find("ph")->as_string(), "i");
  const Json* args = events[0].find("args");
  ASSERT_NE(args, nullptr);
  EXPECT_DOUBLE_EQ(args->find("step")->as_number(), 5.0);
  EXPECT_DOUBLE_EQ(args->find("value")->as_number(), 1.5);
  EXPECT_DOUBLE_EQ(args->find("threshold")->as_number(), 2.5);
}

TEST_F(FlightTest, EmptyTraceIsStillValidJson) {
  FlightRecorder::enable(16);
  const Json doc = export_trace();
  ASSERT_NE(doc.find("traceEvents"), nullptr);
  EXPECT_TRUE(doc.find("traceEvents")->items().empty());
  EXPECT_EQ(doc.find("displayTimeUnit")->as_string(), "ms");
}

}  // namespace
}  // namespace bst::util
