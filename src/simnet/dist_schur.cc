#include "simnet/dist_schur.h"

#include <algorithm>
#include <map>
#include <optional>
#include <stdexcept>
#include <utility>

#include "core/flop_model.h"
#include "core/generator.h"
#include "core/schur.h"
#include "la/blas.h"
#include "simnet/runtime.h"
#include "simnet/threaded_schur.h"
#include "util/par_analysis.h"
#include "util/trace.h"

namespace bst::simnet {
namespace {

// Build/apply share names with the sequential driver (core/schur.cc) so a
// report aggregates their cost identically across backends; the
// message-passing phases get their own buckets.  Spans run inside the PE
// threads, so the accumulated seconds are summed across PEs.
const util::PhaseId kBuildPhase = util::Tracer::phase("reflector_build");
const util::PhaseId kApplyPhase = util::Tracer::phase("reflector_apply");
const util::PhaseId kShiftPhase = util::Tracer::phase("dist_shift");
const util::PhaseId kGatherPhase = util::Tracer::phase("dist_gather");
const util::PhaseId kBarrierPhase = util::Tracer::phase("dist_barrier");

using core::BlockReflector;
using core::Reflector;
using la::Mat;

// Number of integers j in [lo, hi) with j mod q == r (0 <= r < q).
index_t count_mod(index_t lo, index_t hi, index_t q, index_t r) {
  if (hi <= lo) return 0;
  auto upto = [q, r](index_t x) {  // count in [0, x]
    return (x >= r) ? (x - r) / q + 1 : 0;
  };
  return upto(hi - 1) - (lo > 0 ? upto(lo - 1) : 0);
}

// Static owner map: logical block column -> PE (V1/V2) or first PE of its
// group (V3).  The cost model charges by it and the SPMD program stores by it.
struct OwnerMap {
  Layout layout;
  int np;
  index_t group;   // V2 group size
  index_t spread;  // V3 spread

  [[nodiscard]] int owner(index_t j) const {
    switch (layout) {
      case Layout::V1: return static_cast<int>(j % np);
      case Layout::V2: return static_cast<int>((j / group) % np);
      case Layout::V3: {
        const index_t groups = np / spread;
        return static_cast<int>((j % groups) * spread);  // first PE of the group
      }
    }
    return 0;
  }

  /// PEs sharing one block column: slice q of column j lives on owner(j) + q.
  [[nodiscard]] index_t slices() const { return layout == Layout::V3 ? spread : 1; }

  /// Blocks in [lo, hi) owned by `pe` (V1/V2) or by pe's group (V3).
  [[nodiscard]] index_t owned_in_range(index_t lo, index_t hi, int pe) const {
    switch (layout) {
      case Layout::V1: return count_mod(lo, hi, np, pe);
      case Layout::V2: {
        const index_t period = static_cast<index_t>(np) * group;
        index_t c = 0;
        for (index_t r = static_cast<index_t>(pe) * group; r < (pe + 1) * group; ++r) {
          c += count_mod(lo, hi, period, r);
        }
        return c;
      }
      case Layout::V3: {
        const index_t groups = static_cast<index_t>(np) / spread;
        return count_mod(lo, hi, groups, static_cast<index_t>(pe) / spread);
      }
    }
    return 0;
  }

  /// Shift boundary crossings: blocks j in [lo, hi) owned by `pe` whose
  /// right neighbor j+1 lives on a different PE.
  [[nodiscard]] index_t crossings_in_range(index_t lo, index_t hi, int pe) const {
    switch (layout) {
      case Layout::V1: return count_mod(lo, hi, np, pe);
      case Layout::V2: {
        const index_t period = static_cast<index_t>(np) * group;
        return count_mod(lo, hi, period, (static_cast<index_t>(pe) + 1) * group - 1);
      }
      case Layout::V3:
        // every block crosses to the next group
        return owned_in_range(lo, hi, pe);
    }
    return 0;
  }
};

// Cost accounting for one Schur step (step index i, p block columns total),
// shared by the model-only and the real-data paths.
void charge_step(Machine& mach, const OwnerMap& map, const DistOptions& opt, index_t m,
                 index_t i, index_t p) {
  const double rep_bytes = representation_bytes(opt.rep, m);
  const double block_bytes = static_cast<double>(m * m) * 8.0;
  const int np = mach.np();

  // ---- phase 3: shift A_{j-1} -> A_j for j in [i, p) -------------------
  // Sources are columns [i-1, p-1); each PE aggregates its boundary
  // crossings into one message to the right neighbor (V1/V2) or to the
  // matching PE of the next group (V3: one message per slice PE).
  std::vector<Machine::ShiftMsg> shift;
  for (int pe = 0; pe < np; ++pe) {
    const index_t cross = map.crossings_in_range(i - 1, p - 1, pe);
    if (cross == 0) continue;
    if (map.layout == Layout::V3) {
      const index_t groups = static_cast<index_t>(np) / opt.spread;
      if (groups == 1) continue;  // single group: all moves are local
      if (pe % static_cast<int>(opt.spread) != 0) continue;  // charge once per group
      for (index_t s = 0; s < opt.spread; ++s) {
        const int src = pe + static_cast<int>(s);
        const int dst = ((pe + static_cast<int>(opt.spread)) % np + static_cast<int>(s)) % np;
        shift.push_back({src, dst, static_cast<double>(cross),
                         block_bytes / static_cast<double>(opt.spread)});
      }
    } else {
      // One shmem put per crossing block: the blocks are not contiguous in
      // the local store, so each costs the message latency (this is what
      // makes grouping pay off so sharply in Fig. 6).
      shift.push_back({pe, (pe + 1) % np, static_cast<double>(cross), block_bytes});
    }
  }
  mach.exchange(shift);  // all puts are concurrent one-sided operations

  // ---- phase 1: build the block reflector at the pivot owner -----------
  const double eff = opt.machine.block_efficiency(static_cast<double>(m));
  const double build_flops = core::blocking_flops(opt.rep, m, m) / eff;
  const int pivot_pe = map.owner(i);
  if (map.layout == Layout::V3) {
    // The build parallelizes over the group's column slices, at the price
    // of `spread` broadcasts per step (paper section 7.1.3) *and* one
    // intra-group exchange per pivot column: each scalar reflector's
    // x-vector pieces live on different PEs of the group and must be
    // combined before the slices can be updated.
    const int hops = [&] {
      int d = 0;
      while ((1 << d) < static_cast<int>(opt.spread)) ++d;
      return d;
    }();
    // Gather of the column's pieces serializes over the group (one message
    // from each of the `spread` PEs into the column owner), then a tree
    // broadcast of the combined x-vector back out.
    const double per_column =
        static_cast<double>(opt.spread) * (opt.machine.latency + opt.machine.barrier_hop) +
        static_cast<double>(hops) * 2.0 * static_cast<double>(m) /
            static_cast<double>(opt.spread) * 8.0 / opt.machine.bandwidth;
    const double chain = static_cast<double>(m) * per_column;
    for (index_t s = 0; s < opt.spread; ++s) {
      const int pe = pivot_pe + static_cast<int>(s);
      mach.compute(pe, build_flops / static_cast<double>(opt.spread));
      mach.comm_delay(pe, chain);
    }
    for (index_t s = 0; s < opt.spread; ++s) {
      mach.broadcast(pivot_pe + static_cast<int>(s), rep_bytes / static_cast<double>(opt.spread));
    }
  } else {
    mach.compute(pivot_pe, build_flops);
    mach.broadcast(pivot_pe, rep_bytes);
  }

  // ---- phase 2: apply to the owned trailing columns ---------------------
  const double per_block = core::application_flops(opt.rep, m, 1, m) / eff;
  for (int pe = 0; pe < np; ++pe) {
    index_t blocks = map.owned_in_range(i + 1, p, pe);
    if (blocks == 0) continue;
    double flops = per_block * static_cast<double>(blocks);
    if (map.layout == Layout::V3) flops /= static_cast<double>(opt.spread);
    mach.compute(pe, flops);
  }

  // ---- explicit synchronization between phases --------------------------
  mach.barrier();
}

// One check for the cost model and the program; the program also needs
// every block column to split into whole slices.
void validate(const DistOptions& opt, index_t m, bool numeric) {
  if (opt.np < 1) throw std::invalid_argument("dist_schur: np must be >= 1");
  if (opt.layout == Layout::V2 && opt.group < 1)
    throw std::invalid_argument("dist_schur: V2 needs group >= 1");
  if (opt.layout == Layout::V3) {
    if (opt.spread < 1 || opt.np % static_cast<int>(opt.spread) != 0)
      throw std::invalid_argument("dist_schur: V3 spread must divide np");
    if (numeric && m % opt.spread != 0)
      throw std::invalid_argument("dist_schur: V3 spread must divide the block size");
  }
}

toeplitz::BlockToeplitz resized(const toeplitz::BlockToeplitz& t, index_t block_size) {
  return (block_size == 0 || block_size == t.block_size()) ? t : t.with_block_size(block_size);
}

// Message tags: disjoint ranges per protocol phase, + slice id j * s + q.
constexpr int kTagShiftBase = 1'000'000;
constexpr int kTagGatherBase = 2'000'000;

// Wire format of a run of reflectors: [pivot, beta, sigma, x...] each.  A
// record is 3 + 2m >= 5 doubles, so a 2-double wire {column, hnorm} is
// unambiguous: the owner's breakdown, which every PE then throws.
constexpr std::size_t kBreakdownWire = 2;

std::vector<Reflector> unpack_reflectors(const std::vector<double>& in, index_t m) {
  const std::size_t stride = 3 + static_cast<std::size_t>(2 * m);
  std::vector<Reflector> rs;
  rs.reserve(in.size() / stride);
  for (std::size_t off = 0; off + stride <= in.size(); off += stride) {
    Reflector r;
    r.pivot = static_cast<index_t>(in[off]);
    r.beta = in[off + 1];
    r.sigma = in[off + 2];
    r.x.assign(in.begin() + static_cast<std::ptrdiff_t>(off + 3),
               in.begin() + static_cast<std::ptrdiff_t>(off + stride));
    rs.push_back(std::move(r));
  }
  return rs;
}

std::vector<double> flatten(la::CView v) {
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(v.rows() * v.cols()));
  for (index_t j = 0; j < v.cols(); ++j)
    for (index_t i = 0; i < v.rows(); ++i) out.push_back(v(i, j));
  return out;
}

void unflatten(const std::vector<double>& in, la::View v) {
  std::size_t idx = 0;
  for (index_t j = 0; j < v.cols(); ++j)
    for (index_t i = 0; i < v.rows(); ++i) v(i, j) = in[idx++];
}

// One PE's m x ws slice of a block column's A and B parts.
struct Slice {
  Mat a, b;
};

// Builds the reflectors of pivot columns k0, k0 + 1, ... from the PE's own
// pivot slice, one column at a time as the sequential build does: each
// reflector is applied to the whole slice before the next column is read,
// and its column is then set to the exact elimination.  Returns their wire,
// or the breakdown wire of the first column that fails.
std::vector<double> build_slice(Slice& piv, const core::Signature& sig, index_t k0) {
  const index_t m = piv.a.rows();
  const double tol = core::SchurOptions{}.breakdown_tol;
  std::vector<double> wire;
  std::vector<double> u(static_cast<std::size_t>(2 * m));
  for (index_t kl = 0; kl < piv.a.cols(); ++kl) {
    const index_t k = k0 + kl;
    std::fill(u.begin(), u.end(), 0.0);
    u[static_cast<std::size_t>(k)] = piv.a(k, kl);
    for (index_t rr = 0; rr < m; ++rr) u[static_cast<std::size_t>(m + rr)] = piv.b(rr, kl);
    const std::optional<Reflector> r = core::make_reflector(u, sig, k, tol);
    if (!r) return {static_cast<double>(k), core::hyperbolic_norm(u, sig)};
    BlockReflector::from_reflectors(core::Representation::Sequential, m, sig, {*r})
        .apply(piv.a.view(), piv.b.view());
    piv.a(k, kl) = -r->sigma;
    for (index_t rr = 0; rr < m; ++rr) piv.b(rr, kl) = 0.0;
    wire.insert(wire.end(), {static_cast<double>(r->pivot), r->beta, r->sigma});
    wire.insert(wire.end(), r->x.begin(), r->x.end());
  }
  return wire;
}

}  // namespace

const char* to_string(Layout l) {
  switch (l) {
    case Layout::V1: return "V1";
    case Layout::V2: return "V2";
    case Layout::V3: return "V3";
  }
  return "?";
}

double representation_bytes(Representation rep, index_t m) {
  const double n = static_cast<double>(2 * m);
  const double k = static_cast<double>(m);
  switch (rep) {
    case Representation::AccumulatedU: return n * n * 8.0;
    case Representation::VY1:
    case Representation::VY2: return 2.0 * n * k * 8.0;
    case Representation::YTY: return (n * k + k * (k + 1) / 2.0) * 8.0;
    case Representation::Sequential: return (n + 1.0) * k * 8.0;  // the m x-vectors
  }
  return 0.0;
}

DistResult dist_schur_model(index_t m, index_t p, const DistOptions& opt) {
  validate(opt, m, /*numeric=*/false);
  OwnerMap map{opt.layout, opt.np, opt.group, opt.spread};
  Machine mach(opt.np, opt.machine);
  for (index_t i = 1; i < p; ++i) {
    util::Tracer::set_step(i);
    charge_step(mach, map, opt, m, i, p);
  }
  util::emit_schedule(mach.schedule());
  DistResult res;
  res.sim_seconds = mach.time();
  res.breakdown = mach.breakdown();
  res.comm = mach.comm_stats();
  res.steps = p - 1;
  res.schedule = mach.take_schedule();
  return res;
}


la::Mat threaded_schur_factor(const toeplitz::BlockToeplitz& t, const DistOptions& opt) {
  const toeplitz::BlockToeplitz spec = resized(t, opt.block_size);
  const index_t m = spec.block_size(), p = spec.num_blocks(), n = spec.order();
  validate(opt, m, /*numeric=*/true);
  const OwnerMap map{opt.layout, opt.np, opt.group, opt.spread};
  const index_t s = map.slices();
  const index_t ws = m / s;  // slice width
  auto pe_of = [&](index_t j, index_t q) { return map.owner(j) + static_cast<int>(q); };
  auto tag = [&](int base, index_t j, index_t q) { return base + static_cast<int>(j * s + q); };
  // Built once; read-only while the PEs copy their slices out of it.
  const core::Generator g = core::make_generator_spd(spec);

  Mat r_out(n, n);

  run_spmd(opt.np, [&](Comm& comm) {
    const int me = comm.rank();
    const index_t myq = static_cast<index_t>(me) % s;  // my slice index
    std::map<index_t, Slice> mine;                      // by logical block column
    for (index_t j = 0; j < p; ++j) {
      if (pe_of(j, myq) != me) continue;
      Slice sl{Mat(m, ws), Mat(m, ws)};
      la::copy(g.a.block(0, j * m + myq * ws, m, ws), sl.a.view());
      la::copy(g.b.block(0, j * m + myq * ws, m, ws), sl.b.view());
      mine.emplace(j, std::move(sl));
    }

    // Gather of R block row `step` on PE 0.
    auto gather_row = [&](index_t step) {
      util::TraceSpan span(kGatherPhase);
      if (me != 0) {
        for (auto& [j, sl] : mine) {
          if (j >= step) comm.send(0, tag(kTagGatherBase, j, myq), flatten(sl.a.view()));
        }
        return;
      }
      for (index_t j = step; j < p; ++j) {
        for (index_t q = 0; q < s; ++q) {
          la::View dst = r_out.block(step * m, j * m + q * ws, m, ws);
          if (pe_of(j, q) == 0) {
            la::copy(mine.at(j).a.view(), dst);
          } else {
            unflatten(comm.recv(pe_of(j, q), tag(kTagGatherBase, j, q)), dst);
          }
        }
      }
    };

    gather_row(0);
    for (index_t i = 1; i < p; ++i) {
      util::Tracer::set_step(i);
      // ---- phase 3: shift A_{j-1} -> A_j, same slice on the next owner ---
      // Sends first (pre-shift values), then local right-to-left moves,
      // then receives.
      {
        util::TraceSpan span(kShiftPhase);
        for (index_t j = i; j < p; ++j) {
          if (pe_of(j - 1, myq) == me && pe_of(j, myq) != me) {
            comm.send(pe_of(j, myq), tag(kTagShiftBase, j, myq),
                      flatten(mine.at(j - 1).a.view()));
          }
        }
        for (auto it = mine.rbegin(); it != mine.rend(); ++it) {
          const index_t j = it->first;
          if (j >= i && pe_of(j - 1, myq) == me) {
            la::copy(mine.at(j - 1).a.view(), it->second.a.view());
          }
        }
        for (auto& [j, sl] : mine) {
          if (j >= i && pe_of(j - 1, myq) != me) {
            unflatten(comm.recv(pe_of(j - 1, myq), tag(kTagShiftBase, j, myq)), sl.a.view());
          }
        }
      }

      // ---- phase 1: build, one pivot slice after another ----------------
      // The slice's owner builds its ws reflectors and broadcasts them; the
      // other PEs holding a pivot slice apply them before their own turn.
      std::vector<Reflector> reflectors;
      reflectors.reserve(static_cast<std::size_t>(m));
      Slice* pivot = pe_of(i, myq) == me ? &mine.at(i) : nullptr;
      for (index_t q = 0; q < s; ++q) {
        const int root = pe_of(i, q);
        std::vector<double> wire;
        if (root == me) {
          util::TraceSpan span(kBuildPhase);
          wire = build_slice(*pivot, g.sig, q * ws);
        }
        comm.broadcast(root, wire);
        if (wire.size() == kBreakdownWire) {
          throw core::NotPositiveDefinite(i, static_cast<index_t>(wire[0]), wire[1]);
        }
        std::vector<Reflector> rs = unpack_reflectors(wire, m);
        if (pivot != nullptr && root != me) {
          util::TraceSpan span(kBuildPhase);
          BlockReflector::from_reflectors(core::Representation::Sequential, m, g.sig, rs)
              .apply(pivot->a.view(), pivot->b.view());
        }
        reflectors.insert(reflectors.end(), rs.begin(), rs.end());
      }

      // ---- phase 2: every PE updates its slices of the trailing columns --
      {
        util::TraceSpan span(kApplyPhase);
        const BlockReflector bref =
            BlockReflector::from_reflectors(opt.rep, m, g.sig, reflectors);
        for (auto& [j, sl] : mine) {
          if (j > i) bref.apply(sl.a.view(), sl.b.view());
        }
      }

      gather_row(i);
      {
        util::TraceSpan span(kBarrierPhase);
        comm.barrier();
      }
    }
  });
  return r_out;
}

DistResult dist_schur_factor(const toeplitz::BlockToeplitz& t, const DistOptions& opt,
                             bool want_factor) {
  const toeplitz::BlockToeplitz spec = resized(t, opt.block_size);
  std::optional<Mat> r;
  if (want_factor) r = threaded_schur_factor(spec, opt);
  DistResult res = dist_schur_model(spec.block_size(), spec.num_blocks(), opt);
  res.r = std::move(r);
  return res;
}

}  // namespace bst::simnet
