#include "util/thread_pool.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "util/cli.h"
#include "util/metrics.h"
#include "util/stallguard.h"
#include "util/trace.h"

namespace bst::util {
namespace {

std::uint64_t now_ns() {
  using clock = std::chrono::steady_clock;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now().time_since_epoch())
          .count());
}

// Latency of individual parallel_for chunks (load-balance visibility).
HistId chunk_hist() {
  static const HistId id = Metrics::histogram("pool_chunk_ns");
  return id;
}

// See in_parallel_region(): true for workers always, for callers while a
// parallel_for they dispatched is in flight.
thread_local bool tl_in_parallel = false;

}  // namespace

ThreadPool::ThreadPool(std::size_t workers) {
  if (workers == 0) {
    workers = std::max(1u, std::thread::hardware_concurrency());
  }
  stats_ = std::vector<StatSlot>(workers);
  // The calling thread participates, so spawn workers-1 threads.
  threads_.reserve(workers - 1);
  for (std::size_t i = 1; i < workers; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
  cv_start_.notify_all();
  for (auto& t : threads_) t.join();
}

bool ThreadPool::in_parallel_region() noexcept { return tl_in_parallel; }

void ThreadPool::worker_loop(std::size_t slot) {
  tl_in_parallel = true;  // workers only ever run parallel_for chunks
  {
    char label[32];
    std::snprintf(label, sizeof label, "pool:%zu", slot);
    StallGuard::register_self(label);
  }
  StatSlot& stats = stats_[slot];
  std::size_t seen = 0;
  std::uint64_t counter_epoch_seen = counter_epoch_.load(std::memory_order_acquire);
  for (;;) {
    Task task;
    {
      const bool timed = Tracer::enabled();
      const std::uint64_t w0 = timed ? now_ns() : 0;
      StallGuard::idle();  // parked on the condvar: not a stall
      std::unique_lock lock(mu_);
      cv_start_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (timed) stats.idle_ns.fetch_add(now_ns() - w0, std::memory_order_relaxed);
      if (stop_) return;
      StallGuard::beat();
      seen = generation_;
      task = task_;
      ++inflight_;
    }
    // Between tasks this worker has no open FlopScope/TraceSpan, so it is
    // safe to honour a pending counter reset here (never on the caller
    // thread, whose enclosing spans hold counter baselines).
    const std::uint64_t epoch = counter_epoch_.load(std::memory_order_acquire);
    if (epoch != counter_epoch_seen) {
      counter_epoch_seen = epoch;
      FlopCounter::reset();
      ByteCounter::reset();
    }
    run_and_merge(task, stats);
    {
      std::lock_guard lock(mu_);
      --inflight_;
    }
    cv_done_.notify_all();
  }
}

// Kept out of the worker_loop body (and never inlined there): GCC 12's
// jump threading under -fsanitize=undefined specializes an impossible
// null-address path for the thread-local counter reads when this code sits
// inside the condvar loop, producing a false "load of null pointer" report.
__attribute__((noinline)) void ThreadPool::run_and_merge(Task& task, StatSlot& stats) {
  const std::uint64_t flops0 = FlopCounter::now();
  const std::uint64_t bytes0 = ByteCounter::now();
  const std::uint64_t executed = run_chunks(task, stats);
  // Merge-on-join: publish this worker's counter deltas for the caller to
  // charge.  Only after running a chunk -- a worker that raced in late and
  // claimed nothing may hold a task whose dispatcher already returned, so
  // its (zero) delta must not touch the dangling atomics.  When a chunk
  // did run, the dispatcher is still blocked on our inflight_ decrement,
  // so the pointers are alive.
  if (executed > 0 && task.flops != nullptr) {
    task.flops->fetch_add(FlopCounter::now() - flops0, std::memory_order_relaxed);
    task.bytes->fetch_add(ByteCounter::now() - bytes0, std::memory_order_relaxed);
  }
}

void ThreadPool::run_inline(std::size_t begin, std::size_t end,
                            const std::function<void(std::size_t)>& body) {
  // Inline execution still counts as a parallel region so the invariant
  // "in_parallel_region() is true inside any parallel_for body" holds for
  // every pool size and dispatch path (kernels rely on it to avoid nesting).
  const bool was_in_parallel = tl_in_parallel;
  tl_in_parallel = true;
  for (std::size_t i = begin; i < end; ++i) body(i);
  tl_in_parallel = was_in_parallel;
}

std::uint64_t ThreadPool::run_chunks(Task& task, StatSlot& stats) {
  const bool timed = Tracer::enabled();
  const std::uint64_t t0 = timed ? now_ns() : 0;
  std::uint64_t executed = 0;
  std::uint64_t prev = t0;  // chunk boundary timestamp (reused across chunks)
  for (;;) {
    std::size_t lo;
    {
      std::lock_guard lock(mu_);
      if (next_ >= task.end) break;
      lo = next_;
      next_ = std::min(task.end, next_ + task.grain);
    }
    const std::size_t hi = std::min(task.end, lo + task.grain);
    for (std::size_t i = lo; i < hi; ++i) (*task.body)(i);
    ++executed;
    StallGuard::beat();  // per-chunk progress: long tasks never read as stalls
    if (timed) {
      const std::uint64_t now = now_ns();
      Metrics::record(chunk_hist(), now - prev);
      prev = now;
    }
  }
  if (executed > 0) {
    stats.chunks.fetch_add(executed, std::memory_order_relaxed);
    if (timed) stats.busy_ns.fetch_add(now_ns() - t0, std::memory_order_relaxed);
  }
  return executed;
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& body,
                              std::size_t grain) {
  if (begin >= end) return;
  grain = std::max<std::size_t>(1, grain);
  if (threads_.empty() || end - begin <= grain) {
    run_inline(begin, end, body);
    return;
  }
  // One dispatcher at a time: if another thread (or a body nested under this
  // pool) is mid-parallel_for, run inline rather than clobbering the shared
  // task slot.  Inline execution keeps counter totals trivially correct.
  if (busy_.exchange(true, std::memory_order_acquire)) {
    run_inline(begin, end, body);
    return;
  }
  // Worker-side flop/byte deltas, merged into this thread's counters at
  // join so threaded and serial runs charge identical totals.
  std::atomic<std::uint64_t> flops{0};
  std::atomic<std::uint64_t> bytes{0};
  Task task{begin, end, grain, &body, &flops, &bytes};
  {
    std::lock_guard lock(mu_);
    task_ = task;
    next_ = begin;
    ++generation_;
  }
  cv_start_.notify_all();
  const bool was_in_parallel = tl_in_parallel;
  tl_in_parallel = true;
  run_chunks(task, stats_[0]);  // the caller helps, charging slot 0
  {
    std::unique_lock lock(mu_);
    cv_done_.wait(lock, [&] { return inflight_ == 0 && next_ >= task.end; });
  }
  tl_in_parallel = was_in_parallel;
  busy_.store(false, std::memory_order_release);
  FlopCounter::charge(flops.load(std::memory_order_relaxed));
  ByteCounter::charge(bytes.load(std::memory_order_relaxed));
}

std::vector<WorkerStats> ThreadPool::worker_stats() const {
  std::vector<WorkerStats> out(stats_.size());
  for (std::size_t i = 0; i < stats_.size(); ++i) {
    out[i].busy_seconds =
        static_cast<double>(stats_[i].busy_ns.load(std::memory_order_relaxed)) * 1e-9;
    out[i].idle_seconds =
        static_cast<double>(stats_[i].idle_ns.load(std::memory_order_relaxed)) * 1e-9;
    out[i].chunks = stats_[i].chunks.load(std::memory_order_relaxed);
  }
  return out;
}

void ThreadPool::reset_worker_stats() {
  for (StatSlot& s : stats_) {
    s.busy_ns.store(0, std::memory_order_relaxed);
    s.idle_ns.store(0, std::memory_order_relaxed);
    s.chunks.store(0, std::memory_order_relaxed);
  }
  counter_epoch_.fetch_add(1, std::memory_order_release);
}

std::size_t ThreadPool::threads_from_env() {
  return static_cast<std::size_t>(env_u64("BST_THREADS", 0, kMaxThreads));
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(threads_from_env());
  return pool;
}

}  // namespace bst::util
