// Distributed block Schur factorization executed on the threads-based
// message-passing runtime (runtime.h): a real SPMD program in which every
// PE owns only its block columns of the generator, the shift moves blocks
// between PEs by point-to-point messages, the pivot owner builds the block
// reflector and broadcasts its x-vectors, and every PE updates its own
// columns -- the paper's section 7.1 program, actually running
// concurrently.
//
// The cost-model path (dist_schur.h) answers "how long would this take on
// a T3D"; this path answers "is the message-passing formulation correct".
// Both produce factors that are bit-compared against the sequential
// algorithm in the tests.
#pragma once

#include "la/matrix.h"
#include "simnet/dist_schur.h"
#include "toeplitz/block_toeplitz.h"

namespace bst::simnet {

/// Runs the SPMD factorization on opt.np PE threads, in any layout: V1/V2
/// distribute whole block columns, V3 splits each block column over
/// opt.spread adjacent PEs.  Returns the assembled upper triangular factor
/// (gathered on PE 0).  Throws std::invalid_argument for np < 1 and, for
/// V3, unless spread divides both np and the block size; propagates
/// NotPositiveDefinite from the pivot owner.
la::Mat threaded_schur_factor(const toeplitz::BlockToeplitz& t, const DistOptions& opt);

}  // namespace bst::simnet
