// Tests for the stall guard (util/stallguard.h): heartbeat registration,
// synchronous scan detection with the stalls_detected counter, idle parking,
// per-episode recovery, monitor start/stop cycles, and TSan-exercised
// shutdown races (stallguard + telemetry exporter stopping concurrently with
// in-flight service submits).
//
// The race tests use a huge stall_ms on purpose: open_span_name reads a
// flagged thread's ring unsynchronized against its owner, so nothing may
// flag while owners are still recording.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "service/service.h"
#include "toeplitz/generators.h"
#include "util/metrics.h"
#include "util/stallguard.h"
#include "util/telemetry.h"

namespace bst::util {
namespace {

void sleep_ms(int ms) { std::this_thread::sleep_for(std::chrono::milliseconds(ms)); }

// A registered thread that never beats until released.
struct StuckThread {
  std::atomic<bool> release{false};
  std::atomic<bool> registered{false};
  std::thread th;

  explicit StuckThread(const char* label) {
    th = std::thread([this, label] {
      StallGuard::register_self(label);
      registered.store(true);
      while (!release.load()) sleep_ms(1);
    });
    while (!registered.load()) sleep_ms(1);
  }
  ~StuckThread() {
    release.store(true);
    th.join();
  }
};

TEST(StallGuard, ScanDetectsAMissedHeartbeatOnce) {
  StuckThread stuck("test:stuck");
  sleep_ms(30);
  const std::uint64_t before = StallGuard::stalls_detected();
  StallGuardOptions opt;
  opt.stall_ms = 10;
  EXPECT_GE(StallGuard::scan_once(opt), 1u);
  EXPECT_GE(StallGuard::stalls_detected(), before + 1);
  // Detection is per-episode: a still-stalled thread is not re-counted.
  const std::uint64_t after = StallGuard::stalls_detected();
  EXPECT_EQ(StallGuard::scan_once(opt), 0u);
  EXPECT_EQ(StallGuard::stalls_detected(), after);
}

TEST(StallGuard, IdleThreadIsNeverAStall) {
  std::atomic<bool> release{false};
  std::atomic<bool> parked{false};
  std::thread th([&] {
    StallGuard::register_self("test:idle");
    StallGuard::idle();
    parked.store(true);
    while (!release.load()) sleep_ms(1);
  });
  while (!parked.load()) sleep_ms(1);
  sleep_ms(30);
  StallGuardOptions opt;
  opt.stall_ms = 10;
  EXPECT_EQ(StallGuard::scan_once(opt), 0u);
  release.store(true);
  th.join();
}

TEST(StallGuard, FlaggedThreadRecoversOnNextBeat) {
  std::atomic<bool> release{false};
  std::atomic<bool> beat_again{false};
  std::atomic<bool> registered{false};
  std::thread th([&] {
    StallGuard::register_self("test:recover");
    registered.store(true);
    while (!release.load()) {
      if (beat_again.load()) {
        StallGuard::beat();
        beat_again.store(false);
      }
      sleep_ms(1);
    }
  });
  while (!registered.load()) sleep_ms(1);
  sleep_ms(30);
  StallGuardOptions opt;
  opt.stall_ms = 10;
  EXPECT_GE(StallGuard::scan_once(opt), 1u);
  beat_again.store(true);
  while (beat_again.load()) sleep_ms(1);
  // The fresh beat unflags the slot; the episode is over.
  EXPECT_EQ(StallGuard::scan_once(opt), 0u);
  sleep_ms(30);
  // ...and a new stall after recovery counts as a new episode.
  EXPECT_GE(StallGuard::scan_once(opt), 1u);
  release.store(true);
  th.join();
}

TEST(StallGuard, MonitorStartStopCycles) {
  for (int cycle = 0; cycle < 3; ++cycle) {
    StallGuardOptions opt;
    opt.stall_ms = 60000;  // nothing flags; exercises lifecycle only
    opt.poll_ms = 5;
    StallGuard::start(opt);
    EXPECT_TRUE(StallGuard::running());
    StallGuard::start(opt);  // idempotent while running
    StallGuard::stop();
    EXPECT_FALSE(StallGuard::running());
    StallGuard::stop();  // idempotent while stopped
  }
}

TEST(StallGuardOptions, FromEnvRejectsMalformedAndNegative) {
  // strtoull wrapped "-1" to 2^64-1 ms (stall detection silently never
  // fired) and read "200ms" as 200: each must be refused instead.
  for (const char* value : {"-1", "200ms", "soon"}) {
    ::setenv("BST_STALL_MS", value, 1);
    try {
      (void)StallGuardOptions::from_env();
      ADD_FAILURE() << "BST_STALL_MS=" << value << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("BST_STALL_MS"), std::string::npos) << e.what();
    }
  }
  ::setenv("BST_STALL_MS", "200", 1);
  EXPECT_EQ(StallGuardOptions::from_env().stall_ms, 200u);
  ::unsetenv("BST_STALL_MS");
  EXPECT_EQ(StallGuardOptions::from_env().stall_ms, 0u);
}

TEST(StallGuard, ZeroStallMsNeverStarts) {
  StallGuardOptions off;
  off.stall_ms = 0;
  StallGuard::start(off);
  EXPECT_FALSE(StallGuard::running());
}

// Shutdown races, meant to run under TSan: the stallguard monitor and the
// telemetry exporter stop concurrently with in-flight submit()s.
TEST(StallGuardShutdown, ConcurrentStopWithInflightSubmits) {
  StallGuardOptions opt;
  opt.stall_ms = 60000;  // see the file comment: nothing may flag here
  opt.poll_ms = 5;
  StallGuard::start(opt);

  TelemetryOptions topt;
  topt.interval_ms = 10;
  topt.out = "stallguard_shutdown_ticks.jsonl";
  std::remove(topt.out.c_str());

  const toeplitz::BlockToeplitz t = toeplitz::kms(32, 0.5);
  const std::vector<double> rhs(static_cast<std::size_t>(t.order()), 1.0);

  {
    service::ServiceOptions sopt;
    sopt.queue_capacity = 16;
    service::Service svc(sopt);
    TelemetryExporter exporter(topt);
    exporter.start();

    std::thread submitter([&] {
      for (int i = 0; i < 40; ++i) {
        std::future<service::SolveResult> fut = svc.submit(t, rhs);
        fut.get();
      }
    });
    std::thread exporter_stop([&] {
      sleep_ms(15);
      exporter.stop();
    });
    std::thread guard_stop([&] {
      sleep_ms(10);
      StallGuard::stop();
    });
    submitter.join();
    exporter_stop.join();
    guard_stop.join();
    svc.drain();
  }
  StallGuard::stop();
  EXPECT_FALSE(StallGuard::running());
}

// Repeated start/stop while a service churns: the monitor must come and go
// without touching freed state (slots outlive it; the Metrics counters are
// process-global).
TEST(StallGuardShutdown, RestartWhileServiceChurns) {
  const toeplitz::BlockToeplitz t = toeplitz::kms(24, 0.4);
  std::vector<double> rhs(static_cast<std::size_t>(t.order()), 1.0);
  service::Service svc{service::ServiceOptions{}};
  std::atomic<bool> done{false};
  std::thread submitter([&] {
    while (!done.load()) {
      std::future<service::SolveResult> fut = svc.submit(t, rhs);
      fut.get();
    }
  });
  for (int cycle = 0; cycle < 5; ++cycle) {
    StallGuardOptions opt;
    opt.stall_ms = 60000;
    opt.poll_ms = 5;
    StallGuard::start(opt);
    sleep_ms(10);
    StallGuard::stop();
  }
  done.store(true);
  submitter.join();
  svc.drain();
}

}  // namespace
}  // namespace bst::util
