#include "util/stallguard.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>

#include "util/cli.h"
#include "util/crashbox.h"
#include "util/flight_recorder.h"
#include "util/metrics.h"
#include "util/trace.h"
#include "util/watchdog.h"

namespace bst::util {
namespace {

constexpr std::size_t kLabelMax = 48;

// Heartbeat slots.  beat_ns/busy/flagged are the hot fields (relaxed
// atomics); used/label/fr_tid change only at registration/release and are
// guarded by g_mu, which the monitor also takes per scan -- that keeps the
// label reads race-free under TSan without putting a lock on beat().
struct Slot {
  std::atomic<std::uint64_t> beat_ns{0};
  std::atomic<bool> busy{false};
  std::atomic<bool> flagged{false};
  bool used = false;
  std::uint32_t fr_tid = 0;
  char label[kLabelMax] = {};
};

Slot g_slots[StallGuard::kMaxThreads];
std::mutex g_mu;
std::atomic<std::uint64_t> g_slot_overflow{0};

CtrId stalls_ctr() {
  static const CtrId id = Metrics::counter("stalls_detected");
  return id;
}

GaugeId stalled_gauge() {
  static const GaugeId id = Metrics::gauge("stalled_threads");
  return id;
}

// Releases the slot when the registering thread exits, so pools that are
// torn down and rebuilt (tests) do not leak heartbeat slots.
struct SlotGuard {
  int slot = -1;
  ~SlotGuard() {
    if (slot < 0) return;
    std::lock_guard lock(g_mu);
    g_slots[slot].busy.store(false, std::memory_order_relaxed);
    g_slots[slot].flagged.store(false, std::memory_order_relaxed);
    g_slots[slot].used = false;
  }
};
thread_local SlotGuard tl_guard;

struct Monitor {
  std::mutex mu;
  std::condition_variable cv;
  std::thread th;
  bool stop_requested = false;
  bool running = false;
  StallGuardOptions opt;
};

Monitor& monitor() {
  static Monitor* m = new Monitor;  // leaked: outlives static teardown
  return *m;
}

std::uint64_t effective_poll_ms(const StallGuardOptions& opt) {
  std::uint64_t poll = opt.poll_ms != 0 ? opt.poll_ms : opt.stall_ms / 4;
  if (poll < 5) poll = 5;
  if (poll > 1000) poll = 1000;
  return poll;
}

}  // namespace

StallGuardOptions StallGuardOptions::from_env() {
  StallGuardOptions opt;
  opt.stall_ms = env_u64("BST_STALL_MS", opt.stall_ms);
  if (const char* v = std::getenv("BST_STALL_FATAL"); v != nullptr) {
    opt.fatal = (std::strcmp(v, "1") == 0 || std::strcmp(v, "true") == 0);
  }
  return opt;
}

int StallGuard::register_self(const char* label) {
  if (tl_guard.slot >= 0) return tl_guard.slot;
  const std::uint32_t fr_tid = FlightRecorder::current_tid();
  std::lock_guard lock(g_mu);
  for (int s = 0; s < kMaxThreads; ++s) {
    if (g_slots[s].used) continue;
    Slot& sl = g_slots[s];
    sl.used = true;
    sl.fr_tid = fr_tid;
    std::snprintf(sl.label, sizeof sl.label, "%s", label != nullptr ? label : "");
    sl.flagged.store(false, std::memory_order_relaxed);
    sl.beat_ns.store(TraceClock::now_ns(), std::memory_order_relaxed);
    sl.busy.store(true, std::memory_order_relaxed);
    tl_guard.slot = s;
    return s;
  }
  g_slot_overflow.fetch_add(1, std::memory_order_relaxed);
  return -1;
}

void StallGuard::beat() noexcept {
  const int s = tl_guard.slot;
  if (s < 0) return;
  g_slots[s].beat_ns.store(TraceClock::now_ns(), std::memory_order_relaxed);
  g_slots[s].busy.store(true, std::memory_order_relaxed);
}

void StallGuard::idle() noexcept {
  const int s = tl_guard.slot;
  if (s < 0) return;
  g_slots[s].busy.store(false, std::memory_order_relaxed);
}

std::uint64_t StallGuard::scan_once(const StallGuardOptions& opt) {
  const std::uint64_t now = TraceClock::now_ns();
  const std::uint64_t limit_ns = opt.stall_ms * 1'000'000ull;
  std::uint64_t newly = 0;
  std::lock_guard lock(g_mu);
  for (int s = 0; s < kMaxThreads; ++s) {
    Slot& sl = g_slots[s];
    if (!sl.used) continue;
    if (!sl.busy.load(std::memory_order_relaxed)) {
      if (sl.flagged.exchange(false, std::memory_order_relaxed)) {
        Metrics::gauge_add(stalled_gauge(), -1);
      }
      continue;
    }
    const std::uint64_t beat = sl.beat_ns.load(std::memory_order_relaxed);
    const std::uint64_t age_ns = now > beat ? now - beat : 0;
    if (age_ns >= limit_ns) {
      if (!sl.flagged.exchange(true, std::memory_order_relaxed)) {
        ++newly;
        Metrics::add(stalls_ctr());
        Metrics::gauge_add(stalled_gauge(), 1);
        const double age_ms = static_cast<double>(age_ns) / 1e6;
        Watchdog::warn("thread_stall", 0, age_ms, static_cast<double>(opt.stall_ms));
        const std::string span = FlightRecorder::open_span_name(sl.fr_tid);
        std::fprintf(stderr,
                     "[bst_stallguard] thread '%s' stalled: no heartbeat for %.0f ms "
                     "(limit %llu ms); open span: %s\n",
                     sl.label, age_ms, static_cast<unsigned long long>(opt.stall_ms),
                     span.empty() ? "(none)" : span.c_str());
        if (opt.fatal) {
          Crashbox::dump(0, "stall");
          std::abort();
        }
      }
    } else if (sl.flagged.exchange(false, std::memory_order_relaxed)) {
      Metrics::gauge_add(stalled_gauge(), -1);
      std::fprintf(stderr, "[bst_stallguard] thread '%s' recovered\n", sl.label);
    }
  }
  return newly;
}

void StallGuard::start(const StallGuardOptions& opt) {
  if (opt.stall_ms == 0) return;
  Monitor& m = monitor();
  std::lock_guard lock(m.mu);
  if (m.running) return;
  m.opt = opt;
  m.stop_requested = false;
  m.running = true;
  m.th = std::thread([&m] {
    const std::uint64_t poll = effective_poll_ms(m.opt);
    std::unique_lock lk(m.mu);
    while (!m.stop_requested) {
      m.cv.wait_for(lk, std::chrono::milliseconds(poll),
                    [&m] { return m.stop_requested; });
      if (m.stop_requested) break;
      const StallGuardOptions opt_copy = m.opt;
      lk.unlock();
      scan_once(opt_copy);
      lk.lock();
    }
  });
}

void StallGuard::start_from_env() { start(StallGuardOptions::from_env()); }

void StallGuard::stop() {
  Monitor& m = monitor();
  std::thread th;
  {
    std::lock_guard lock(m.mu);
    if (!m.running) return;
    m.stop_requested = true;
    th = std::move(m.th);
    m.running = false;
  }
  m.cv.notify_all();
  if (th.joinable()) th.join();
}

bool StallGuard::running() {
  Monitor& m = monitor();
  std::lock_guard lock(m.mu);
  return m.running;
}

std::uint64_t StallGuard::stalls_detected() noexcept {
  return Metrics::counter_value(stalls_ctr());
}

}  // namespace bst::util
