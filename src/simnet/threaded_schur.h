// The distributed block Schur factorization as a real SPMD program on the
// threads-based message-passing runtime (runtime.h): every PE owns only
// its slices of the generator's block columns, the shift moves them
// between PEs by point-to-point messages, the owners of the pivot slices
// build the reflectors and broadcast their x-vectors, and every PE updates
// its own slices -- the paper's section 7.1 program, actually running
// concurrently.  dist_schur_factor (dist_schur.h) takes its factor from
// here and its simulated times from the cost model.
#pragma once

#include "la/matrix.h"
#include "simnet/dist_schur.h"
#include "toeplitz/block_toeplitz.h"

namespace bst::simnet {

/// Runs the SPMD factorization on opt.np PE threads, in any layout: V1/V2
/// give each block column to one PE, V3 splits it column-wise over
/// opt.spread adjacent PEs.  Returns the assembled upper triangular factor
/// (gathered on PE 0), bitwise equal to core::block_schur_factor's.
/// Throws std::invalid_argument for invalid options (np < 1, V2 group < 1,
/// V3 spread not dividing both np and the block size).  A breakdown throws
/// the same NotPositiveDefinite as the sequential factorization, on every
/// PE.
la::Mat threaded_schur_factor(const toeplitz::BlockToeplitz& t, const DistOptions& opt);

}  // namespace bst::simnet
