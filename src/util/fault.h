// Deterministic fault injection: `BST_FAULT=<site>:<kind>[:<count>]`.
//
// The post-mortem layer (util/crashbox, util/stallguard) is only testable
// if failures are reproducible on demand, so the hot paths carry named
// fault sites -- `Fault::fire("cache_fill")` -- that are a single relaxed
// atomic load when no fault is armed.  Arming one via the environment makes
// the `count`-th hit of the named site misbehave:
//
//   crash    null-pointer write -> SIGSEGV (exercises the crashbox handler)
//   fp-trap  enables FE_DIVBYZERO traps and divides by zero -> SIGFPE
//   hang     sleeps BST_FAULT_HANG_MS (default 2000) -> trips stallguard
//   slow     sleeps BST_FAULT_SLOW_MS (default 50) on every hit from
//            `count` on -> exercises the slow-request/SLO paths
//
// Sites (docs/OBSERVABILITY.md keeps the catalog): admission, dispatch,
// cache_fill, schur_step, refine.  `count` defaults to 1 (first hit).
//
// Exactly one site can be armed per process; parsing happens once at load
// time (reload() re-parses for tests).
#pragma once

#include <cstdint>

namespace bst::util {

enum class FaultKind : int { kNone = 0, kCrash, kHang, kFpTrap, kSlow };

class Fault {
 public:
  /// True when BST_FAULT parsed to an armed site (one relaxed load).
  static bool armed() noexcept;

  /// Hit the named site: no-op unless this site is armed and the hit count
  /// reached the configured threshold, in which case the fault triggers
  /// (crash/fp-trap do not return).
  static void fire(const char* site) noexcept;

  /// Re-parses BST_FAULT / BST_FAULT_*_MS from the environment.  Tests use
  /// this after setenv(); death tests call it inside the forked child.  A
  /// malformed or negative BST_FAULT_*_MS throws std::invalid_argument
  /// naming the variable and leaves the fault disarmed (at load time the
  /// error is printed to stderr instead).
  static void reload();

  /// "site:kind:count" of the armed fault, or "" when disarmed.
  static const char* describe() noexcept;
};

}  // namespace bst::util
