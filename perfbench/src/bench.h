// Shared types of the benchmark program (see perfbench/README.md).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "spans.h"

namespace perfbench {

/// One run, as given on the command line.
struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;         // shrunken sizes for the benchmark's own tests
  bool corrupt_one = false;  // damage one answer before its check (negative test)
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::size_t samples = 0;  // measurements behind the value
};

/// What one run reports: operation counts, metrics and free-form notes
/// (sizes, the per-layer self-time table) for the provenance line.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> notes;
};

/// Runs one workload.  Untraced: the end-to-end metrics.  Traced: the
/// per-layer metrics, with spans recorded into `spans`.  Throws
/// std::invalid_argument for an unknown workload name.
Outcome run_workload(const Config& cfg, SpanLog& spans);

/// Times block_schur_factor serially and with `parallel` on the global pool
/// (sized by BST_THREADS); reports core.factor.parallel_speedup.
Outcome run_parallel_probe(const Config& cfg);

/// Linear-interpolated quantile (q in [0, 1]) of `v`; 0 for an empty `v`.
double quantile(std::vector<double> v, double q);

}  // namespace perfbench
