// In-memory span log for the benchmark's traced runs.
//
// Spans are recorded by the benchmark's own code around each call into a
// library layer (name, start, end, parent span, request id), kept in memory
// and written out once at the end as chrome-trace JSON.  A layer's self time
// is its span's duration minus the part of that interval its child spans
// cover.  One thread records: the service workload reconstructs its
// per-request spans on the generator thread from the SolveResult split.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Steady-clock nanoseconds (the same clock as bst::util::TraceClock).
std::uint64_t now_ns();

struct Span {
  std::string name;
  std::uint64_t req = 0;  // operation / request id shared by its spans
  int parent = -1;        // index into SpanLog::spans(), -1 for a root
  std::uint64_t t0 = 0, t1 = 0;
};

class SpanLog {
 public:
  /// RAII span: opens on construction (when the log is recording), closes
  /// on destruction.  Nested scopes become children of the enclosing one.
  class Scope {
   public:
    Scope(SpanLog& log, const char* name, std::uint64_t req);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    int index_ = -1;
  };

  /// Recording switch; toggled per operation to interleave traced and
  /// untraced operations (their latency difference is the trace overhead).
  void set_recording(bool on) noexcept { recording_ = on; }

  /// Adds a finished span with explicit times; returns its index.
  int add(const std::string& name, std::uint64_t req, int parent, std::uint64_t t0,
          std::uint64_t t1);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Durations (seconds) of the spans with this name recorded at index
  /// `from` or later, in record order.
  [[nodiscard]] std::vector<double> durations(const std::string& name,
                                              std::size_t from = 0) const;

  /// Summed self time (seconds) per span name.
  [[nodiscard]] std::map<std::string, double> self_seconds() const;

  /// Writes the chrome-trace ("traceEvents") JSON; false when the file
  /// cannot be written.
  bool write_chrome(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;  // stack of open Scope indices
  bool recording_ = false;
};

}  // namespace perfbench
