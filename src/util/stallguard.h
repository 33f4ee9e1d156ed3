// Hang/stall detection: per-thread heartbeats plus a monitor thread.
//
// A crashed process trips the crashbox signal handler; a *wedged* one dies
// silently -- a dispatcher stuck on a lock, a pool worker spinning in a
// pathological kernel, an exporter blocked on a full disk.  StallGuard
// closes that gap: long-lived threads register a heartbeat slot and stamp
// it as they make progress (`beat()`), or park it while they are
// legitimately idle (`idle()`).  A monitor thread wakes every few hundred
// milliseconds and flags any busy slot whose stamp is older than
// `BST_STALL_MS`:
//
//   * logs the stalled thread's label and its current open flight-recorder
//     span to stderr,
//   * bumps the `stalls_detected` counter and the `stalled_threads` gauge,
//     so the live telemetry tick stream carries the detection,
//   * raises a `thread_stall` watchdog warning,
//   * and, with `BST_STALL_FATAL=1`, escalates: crashbox dump + abort, so
//     a wedged service turns into a decodable crash report.
//
// A flagged slot that beats again is unflagged (and logged as recovered):
// detection is per-episode, not per-scan.  Heartbeats are two relaxed
// stores; everything is a no-op until start() runs, so the cost in
// unmonitored processes is one thread-local read per beat() call.
//
// Wired in: ThreadPool workers ("pool:<slot>"), the service dispatcher
// ("svc:dispatcher"), the telemetry exporter ("telemetry"), plus beats
// inside the Schur step and refinement loops so genuinely long
// factorizations never read as stalls.  Tuning: docs/OBSERVABILITY.md.
#pragma once

#include <cstdint>

namespace bst::util {

struct StallGuardOptions {
  std::uint64_t stall_ms = 0;  // heartbeat age that counts as a stall; 0 = off
  bool fatal = false;          // escalate a stall to crashbox dump + abort
  std::uint64_t poll_ms = 0;   // monitor period; 0 = stall_ms/4, clamped [5, 1000]

  /// BST_STALL_MS / BST_STALL_FATAL (unset -> disabled).  A malformed or
  /// negative BST_STALL_MS throws std::invalid_argument naming it.
  static StallGuardOptions from_env();
};

class StallGuard {
 public:
  static constexpr int kMaxThreads = 64;  // heartbeat slots (overflow -> -1, counted)

  /// Claims (or returns) the calling thread's heartbeat slot and stamps it
  /// busy.  Idempotent per thread; the slot is released at thread exit.
  /// Returns -1 when the table is full.
  static int register_self(const char* label);

  /// Stamps the calling thread's heartbeat (no-op when unregistered).
  static void beat() noexcept;

  /// Parks the calling thread's slot: an idle thread is never a stall.
  static void idle() noexcept;

  /// Starts the monitor thread.  No-op when opt.stall_ms == 0 or already
  /// running.  start_from_env() is the env-gated form subsystems call.
  static void start(const StallGuardOptions& opt);
  static void start_from_env();
  static void stop();
  static bool running();

  /// One synchronous monitor pass with explicit options (tests; does not
  /// require the monitor thread).  Returns the number of newly flagged
  /// stalls.
  static std::uint64_t scan_once(const StallGuardOptions& opt);

  /// Lifetime total of detected stall episodes (the `stalls_detected`
  /// counter).
  static std::uint64_t stalls_detected() noexcept;
};

}  // namespace bst::util
