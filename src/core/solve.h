// Solving linear systems from the Schur factorizations.
#pragma once

#include <vector>

#include "core/indefinite.h"
#include "core/schur.h"

namespace bst::core {

/// Solves R^T R x = b (SPD factorization).  x may alias b.
std::vector<double> solve_spd(const SchurFactor& f, const std::vector<double>& b);

/// Solves R^T D R x = b (indefinite factorization).
std::vector<double> solve_ldl(const LdlFactor& f, const std::vector<double>& b);

/// Raw kernel: solves R^T diag(d) R x = b for an upper triangular R.
/// Pass d = nullptr for D = I.
void solve_rtdr(CView r, const double* d, const std::vector<double>& b, std::vector<double>& x);

/// Multi-right-hand-side variant: solves R^T diag(d) R X = B in place
/// (B is n x k; each column an independent system).  Uses level-3
/// triangular solves.
void solve_rtdr_multi(CView r, const double* d, View bx);

/// Panel-blocked multi-RHS solve: splits the k columns of B into panels of
/// `panel` columns (the last one keeps its natural width) and runs the
/// level-3 triangular solve per panel -- with `parallel`, panels are spread
/// across the global ThreadPool.  Each output column depends only on its
/// own input column, and the left trsm picks its update path from R's
/// shape alone, so the results are bitwise identical at any thread count
/// and any panel width (docs/KERNELS.md).  panel <= 0 or panel >= k
/// degenerates to one solve_rtdr_multi call.
void solve_rtdr_panels(CView r, const double* d, View bx, index_t panel, bool parallel = false);

/// Solves T X = B through an SPD factor for an n x k block of right-hand
/// sides (e.g. the multichannel normal equations); returns X.
Mat solve_spd_multi(const SchurFactor& f, CView b);

/// Rounds every entry of the factor to IEEE single precision in place --
/// the storage/bandwidth half of classical mixed-precision iterative
/// refinement: a factor kept (or computed) in float is ~2x cheaper to hold
/// and apply, and solve_refined against the exact double-precision Toeplitz
/// operator recovers full accuracy in a few steps (see
/// tests/test_mixed_precision.cc).
void demote_factor_to_float(View r);

}  // namespace bst::core
