// Using the distributed-memory simulator to pick a data distribution
// scheme before committing to one on a real machine (paper section 7).
//
// Sweeps the three layouts (V1 block-cyclic, V2 grouped, V3 split) for a
// user-chosen problem, validates one configuration against the sequential
// factorization, and prints the time breakdown of the winner.
#include <cstdio>

#include "bst.h"

using namespace bst;

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const la::index_t m = cli.get_int("m", 8);
  const la::index_t p = cli.get_int("p", 256);
  const int np = static_cast<int>(cli.get_int("np", 32));

  std::printf("problem: %td x %td block Toeplitz (m = %td), machine: %d PEs (T3D model)\n",
              m * p, m * p, m, np);

  // 1. Sweep candidate layouts with the cost model (no numerics needed).
  struct Candidate {
    simnet::DistOptions opt;
    const char* label;
  };
  std::vector<Candidate> cands;
  {
    simnet::DistOptions o;
    o.np = np;
    cands.push_back({o, "V1 cyclic"});
  }
  for (la::index_t b : {2, 4, 8}) {
    simnet::DistOptions o;
    o.np = np;
    o.layout = simnet::Layout::V2;
    o.group = b;
    cands.push_back({o, "V2 grouped"});
  }
  for (la::index_t s : {2, 4}) {
    if (m % s != 0) continue;  // V3 splits a block into whole columns
    simnet::DistOptions o;
    o.np = np;
    o.layout = simnet::Layout::V3;
    o.spread = s;
    cands.push_back({o, "V3 split"});
  }

  std::printf("%-12s %-8s %-8s %10s %10s %10s %10s\n", "layout", "group", "spread", "total(s)",
              "compute", "shift", "idle");
  const Candidate* best = nullptr;
  double best_time = 1e300;
  for (const auto& c : cands) {
    simnet::DistResult r = simnet::dist_schur_model(m, p, c.opt);
    std::printf("%-12s %-8td %-8td %10.4f %10.4f %10.4f %10.4f\n", c.label, c.opt.group,
                c.opt.spread, r.sim_seconds, r.breakdown.compute / np, r.breakdown.shift / np,
                r.breakdown.barrier / np);
    if (r.sim_seconds < best_time) {
      best_time = r.sim_seconds;
      best = &c;
    }
  }
  std::printf("model pick: %s (%.4f simulated seconds)\n", best->label, best_time);

  // 2. Validate the winner numerically on a smaller instance of the same
  //    shape: the SPMD program runs the real factorization on per-PE
  //    storage.
  const simnet::DistOptions& vopt = best->opt;
  const la::index_t pv = std::min<la::index_t>(p, 24);
  toeplitz::BlockToeplitz t = toeplitz::random_spd_block(m, pv, 2, 7);
  simnet::DistResult dist = simnet::dist_schur_factor(t, vopt, /*want_factor=*/true);
  core::SchurFactor seq = core::block_schur_factor(t);
  const double diff = la::max_diff(dist.r->view(), seq.r.view());
  std::printf("validation on %td x %td: max |R_dist - R_seq| = %.3e\n", t.order(), t.order(),
              diff);
  return 0;
}
