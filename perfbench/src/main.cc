// bst_perfbench: runs one benchmark workload and prints its metrics.
//
//   bst_perfbench --workload=<name> --seed=<n> --seconds=<s> --trace=<0|1>
//                 [--trace-out=<file>] [--git-describe=<rev>]
//                 [--cleared-env=<A,B,...>] [--tiny] [--corrupt-one]
//   bst_perfbench --probe=parallel_speedup --seed=<n> [--tiny]
//
// perfbench/run.py builds this program and runs it with a pinned
// environment; see perfbench/README.md.  The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.  The
// line before it is the provenance record.
#include <malloc.h>

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.h"
#include "util/calibrate.h"
#include "util/cli.h"
#include "util/fpenv.h"
#include "util/report.h"

extern char** environ;

namespace {

using bst::util::Json;

/// The BST_* variables the program sees (run.py pins BST_THREADS and clears
/// the rest).
Json bst_env() {
  Json out = Json::object();
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv = *e;
    if (kv.rfind("BST_", 0) != 0) continue;
    const std::size_t eq = kv.find('=');
    out.set(kv.substr(0, eq), Json::string(eq == std::string::npos ? "" : kv.substr(eq + 1)));
  }
  return out;
}

perfbench::Config parse(const bst::util::Cli& cli, bool probe) {
  perfbench::Config cfg;
  cfg.workload = cli.get("workload", "");
  const std::string seed = cli.get("seed", "");
  std::size_t used = 0;
  if (seed.empty() || seed[0] == '-') throw std::invalid_argument("--seed: expected n >= 0");
  cfg.seed = std::stoull(seed, &used);
  if (used != seed.size()) throw std::invalid_argument("--seed: expected n >= 0");
  cfg.tiny = cli.has("tiny");
  cfg.corrupt_one = cli.has("corrupt-one");
  if (probe) return cfg;
  cfg.seconds = cli.get_double("seconds", 0.0);
  if (!(cfg.seconds > 0.0 && cfg.seconds <= 600.0)) {
    throw std::invalid_argument("--seconds: expected 0 < s <= 600");
  }
  const std::string trace = cli.get("trace", "");
  if (trace != "0" && trace != "1") throw std::invalid_argument("--trace: expected 0 or 1");
  cfg.trace = trace == "1";
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  // Output-neutral pinning, before any thread starts (threads inherit the
  // FP control word).  Flush-to-zero as in every bench/ program.  Large
  // blocks come from one heap that is never trimmed: otherwise whether an
  // n x n factor lands on already-mapped pages depends on the order of
  // unrelated frees and on which thread's arena serves it, and latency and
  // peak RSS turn bimodal.
  bst::util::enable_flush_to_zero();
  mallopt(M_MMAP_THRESHOLD, 32 << 20);  // glibc's maximum
  mallopt(M_TRIM_THRESHOLD, -1);
  mallopt(M_ARENA_MAX, 1);

  const bst::util::Cli cli(argc, argv);
  const std::string probe = cli.get("probe", "");
  perfbench::Outcome out;
  perfbench::SpanLog spans;
  perfbench::Config cfg;
  try {
    if (!probe.empty() && probe != "parallel_speedup") {
      throw std::invalid_argument("unknown probe '" + probe + "'");
    }
    cfg = parse(cli, !probe.empty());
    out = probe.empty() ? perfbench::run_workload(cfg, spans) : perfbench::run_parallel_probe(cfg);
  } catch (const std::exception& e) {
    std::cerr << "bst_perfbench: error: " << e.what() << "\n";
    return 1;
  }

  Json prov = Json::object();
  prov.set("workload", Json::string(probe.empty() ? cfg.workload : probe));
  prov.set("seed", Json::number(cfg.seed));
  prov.set("seconds", Json::number(cfg.seconds));
  prov.set("trace", Json::boolean(cfg.trace));
  prov.set("tiny", Json::boolean(cfg.tiny));
  prov.set("machine_fingerprint", Json::string(bst::util::machine_fingerprint()));
  prov.set("nproc", Json::number(static_cast<std::uint64_t>(std::thread::hardware_concurrency())));
  prov.set("git_describe", Json::string(cli.get("git-describe", "unknown")));
  prov.set("env_bst", bst_env());
  prov.set("env_cleared", Json::string(cli.get("cleared-env", "")));
  Json samples = Json::object();
  for (const perfbench::Metric& m : out.metrics) {
    samples.set(m.name, Json::number(static_cast<std::uint64_t>(m.samples)));
  }
  prov.set("samples", std::move(samples));
  for (const auto& [k, v] : out.notes) prov.set(k, Json::string(v));

  if (cfg.trace && probe.empty()) {
    // Self time per span name, largest first (also in the chrome trace).
    std::vector<std::pair<double, std::string>> self;
    for (const auto& [name, s] : spans.self_seconds()) self.emplace_back(s, name);
    std::sort(self.rbegin(), self.rend());
    Json self_ms = Json::object();
    for (const auto& [s, name] : self) self_ms.set(name, Json::number(s * 1e3));
    prov.set("self_ms", std::move(self_ms));
    const std::string path = cli.get("trace-out", "");
    if (!path.empty()) {
      if (!spans.write_chrome(path)) {
        std::cerr << "bst_perfbench: error: cannot write " << path << "\n";
        return 1;
      }
      prov.set("chrome_trace", Json::string(path));
    }
  }
  Json wrapper = Json::object();
  wrapper.set("provenance", std::move(prov));
  std::cout << wrapper.dump_compact() << "\n";

  Json res = Json::object();
  res.set("correct", Json::boolean(out.failed == 0 && out.attempted > 0));
  res.set("attempted", Json::number(out.attempted));
  res.set("failed", Json::number(out.failed));
  Json metrics = Json::object();
  for (const perfbench::Metric& m : out.metrics) {
    Json v = Json::object();
    v.set("value", Json::number(m.value));
    v.set("unit", Json::string(m.unit));
    metrics.set(m.name, std::move(v));
  }
  res.set("metrics", std::move(metrics));
  std::cout << res.dump_compact() << std::endl;
  return 0;
}
