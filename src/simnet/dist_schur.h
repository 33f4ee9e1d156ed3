// Distributed block Schur factorization on the simulated machine
// (paper section 7.1): the generator's block columns are laid out over a
// linear array of NP PEs in one of three schemes --
//
//   V1: block-cyclic, one block per PE per round,
//   V2: groups of `group` adjacent blocks per PE (less shift traffic,
//       less parallelism),
//   V3: each block split across `spread` adjacent PEs (more parallelism,
//       `spread` times more broadcasts)
//
// -- and each Schur step runs the compute/communicate phases of section 6.1
// with explicit barrier synchronization:
//   phase 3: shift the upper generator row one block to the right,
//   phase 1: the pivot owner builds the block reflector,
//   broadcast it, phase 2: every PE updates its owned columns, barrier.
//
// Two things run over one owner map.  The cost model charges those phases
// to the virtual clocks of a Machine (any layout, any size, no numerics).
// The SPMD program (threaded_schur.h) carries the factorization out on PE
// threads that hold only their own slices of the generator; in every
// layout its factor is bitwise equal to core::block_schur_factor's.
#pragma once

#include <optional>
#include <vector>

#include "core/block_reflector.h"
#include "simnet/machine.h"
#include "toeplitz/block_toeplitz.h"

namespace bst::simnet {

using core::index_t;
using core::Representation;

/// Generator layout over the linear PE array.
enum class Layout { V1, V2, V3 };

const char* to_string(Layout l);

/// Options for a distributed factorization run.
struct DistOptions {
  Layout layout = Layout::V1;
  int np = 16;
  index_t group = 1;       // V2: adjacent blocks per PE ("b" in the paper)
  index_t spread = 1;      // V3: PEs per block ("1/b" in the paper)
  Representation rep = Representation::VY2;
  MachineParams machine = MachineParams::t3d();
  index_t block_size = 0;  // m_s override (0 = structural)
};

/// Result: virtual times plus (optionally) the actual factor.
struct DistResult {
  double sim_seconds = 0.0;
  TimeBreakdown breakdown;
  std::vector<PeCommStats> comm;  // per-PE send/recv volume (paper sec. 7.1)
  index_t steps = 0;
  std::optional<la::Mat> r;  // the n x n factor when requested
  /// Per-PE span capture (empty unless the Tracer was enabled); feed to
  /// util::analyze_schedule for the comm matrix / critical path sections.
  util::ParSchedule schedule;
};

/// Runs the distributed factorization.  The simulated times come from the
/// cost model; with want_factor the SPMD program also computes the factor
/// (V3 then needs spread | block size), without it only the model runs.
DistResult dist_schur_factor(const toeplitz::BlockToeplitz& t, const DistOptions& opt,
                             bool want_factor);

/// Cost-model-only convenience for size sweeps: a synthetic SPD spec of the
/// given dimensions is assumed (no numerics executed).
DistResult dist_schur_model(index_t m, index_t p, const DistOptions& opt);

/// Bytes needed to communicate one step's block reflector in the given
/// representation (the YTY form's storage advantage, paper section 6.5).
double representation_bytes(Representation rep, index_t m);

}  // namespace bst::simnet
