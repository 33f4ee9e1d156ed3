// Tests for the circulant-preconditioned CG path (core/pcg.h).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/pcg.h"
#include "la/norms.h"
#include "toeplitz/generators.h"
#include "toeplitz/matvec.h"
#include "util/trace.h"
#include "util/watchdog.h"

namespace bst::core {
namespace {

using toeplitz::BlockToeplitz;
using toeplitz::MatVec;
using toeplitz::MatVecMode;

// Dense Strang circulant built independently of the implementation: block
// (bi, bj) is W_{(bi-bj) mod p} with W_l the wrapped central diagonals.
la::Mat dense_strang(const BlockToeplitz& t) {
  const la::index_t m = t.block_size(), p = t.num_blocks(), n = t.order();
  const la::Mat td = t.dense();
  // A_d(ri, rj) = T's block at offset d = bi - bj, read off the dense form.
  auto a_entry = [&](la::index_t d, la::index_t ri, la::index_t rj) {
    const la::index_t bi = d >= 0 ? d : 0;
    const la::index_t bj = d >= 0 ? 0 : -d;
    return td(bi * m + ri, bj * m + rj);
  };
  auto w_entry = [&](la::index_t l, la::index_t ri, la::index_t rj) {
    if (2 * l < p) return a_entry(l, ri, rj);
    if (2 * l > p) return a_entry(l - p, ri, rj);
    return 0.5 * (a_entry(l, ri, rj) + a_entry(l - p, ri, rj));
  };
  la::Mat c(n, n);
  for (la::index_t bi = 0; bi < p; ++bi)
    for (la::index_t bj = 0; bj < p; ++bj)
      for (la::index_t ri = 0; ri < m; ++ri)
        for (la::index_t rj = 0; rj < m; ++rj)
          c(bi * m + ri, bj * m + rj) = w_entry((bi - bj + p) % p, ri, rj);
  return c;
}

TEST(CirculantPreconditioner, InverseMatchesDenseStrang) {
  // M * (M^{-1} r) == r with M rebuilt densely and independently.
  const BlockToeplitz t = toeplitz::random_spd_block(3, 11, 2, 5);
  const CirculantPreconditioner pre(t);
  ASSERT_TRUE(pre.positive_definite());
  const la::Mat md = dense_strang(t);
  const la::index_t n = t.order();
  std::vector<double> r(static_cast<std::size_t>(n)), z;
  for (la::index_t i = 0; i < n; ++i) r[static_cast<std::size_t>(i)] = std::sin(1.0 + i);
  pre.apply_inverse(r, z);
  for (la::index_t i = 0; i < n; ++i) {
    double s = 0.0;
    for (la::index_t j = 0; j < n; ++j) s += md(i, j) * z[static_cast<std::size_t>(j)];
    EXPECT_NEAR(s, r[static_cast<std::size_t>(i)], 1e-9);
  }
}

TEST(CirculantPreconditioner, ScalarStrangIsExactOnCirculantInput) {
  // kms with rho = 0: T = I, whose Strang circulant is I.
  const BlockToeplitz t = toeplitz::kms(16, 0.0);
  const CirculantPreconditioner pre(t);
  ASSERT_TRUE(pre.positive_definite());
  std::vector<double> r(16, 0.0), z;
  r[3] = 2.0;
  pre.apply_inverse(r, z);
  for (std::size_t i = 0; i < 16; ++i) EXPECT_NEAR(z[i], r[i], 1e-13);
}

TEST(CirculantPreconditioner, IndefiniteMatrixDetected) {
  // A singular-minor indefinite matrix whose Strang circulant is not SPD:
  // the constructor must flag it rather than produce garbage factors.
  const BlockToeplitz t = toeplitz::singular_minor_family(64, 9);
  const CirculantPreconditioner pre(t);
  EXPECT_FALSE(pre.positive_definite());
  EXPECT_EQ(circulant_condest(t, pre), std::numeric_limits<double>::infinity());
}

TEST(Pcg, ConvergesFastOnKms) {
  const BlockToeplitz t = toeplitz::kms(256, 0.5);
  const std::vector<double> b = toeplitz::rhs_for_ones(t);
  const MatVec op(t, MatVecMode::Fft);
  const CirculantPreconditioner pre(t);
  ASSERT_TRUE(pre.positive_definite());
  const PcgResult res = pcg_solve(op, pre, b);
  EXPECT_TRUE(res.converged);
  // Strang-preconditioned KMS clusters at 1: convergence in O(1) iterations.
  EXPECT_LE(res.iterations, 30);
  for (const double xi : res.x) EXPECT_NEAR(xi, 1.0, 1e-9);
}

TEST(Pcg, ConvergesOnBlockSpd) {
  const BlockToeplitz t = toeplitz::random_spd_block(3, 40, 2, 17);
  const std::vector<double> b = toeplitz::rhs_for_ones(t);
  const MatVec op(t, MatVecMode::Fft);
  const CirculantPreconditioner pre(t);
  ASSERT_TRUE(pre.positive_definite());
  const PcgResult res = pcg_solve(op, pre, b);
  EXPECT_TRUE(res.converged);
  // True residual against the exact operator, not just the recurrence's.
  std::vector<double> r;
  MatVec(t, MatVecMode::Direct).residual(b, res.x, r);
  EXPECT_LE(la::norm2(r), 1e-9 * la::norm2(b));
}

TEST(Pcg, ZeroRhsShortCircuits) {
  const BlockToeplitz t = toeplitz::kms(32, 0.3);
  const MatVec op(t, MatVecMode::Fft);
  const CirculantPreconditioner pre(t);
  const std::vector<double> b(32, 0.0);
  const PcgResult res = pcg_solve(op, pre, b);
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.iterations, 0);
  for (const double xi : res.x) EXPECT_EQ(xi, 0.0);
}

TEST(Pcg, NonConvergenceRaisesWatchdogWarning) {
  // Unreachable tolerance and a tiny iteration budget: the solve must
  // report non-convergence and leave a watchdog warning for the fallback
  // logic (and the report's warnings section) to see.
  const BlockToeplitz t = toeplitz::kms(128, 0.9);
  const CirculantPreconditioner pre(t);
  ASSERT_TRUE(pre.positive_definite());
  util::Tracer::enable();
  util::Watchdog::reset();
  const MatVec op(t, MatVecMode::Fft);
  PcgOptions opt;
  opt.max_iters = 2;
  opt.tol = 1e-30;
  const PcgResult res = pcg_solve(op, pre, toeplitz::rhs_for_ones(t), opt);
  util::Tracer::disable();
  EXPECT_FALSE(res.converged);
  bool found = false;
  for (const auto& w : util::Watchdog::snapshot()) {
    if (w.code == "pcg_no_convergence") found = true;
  }
  util::Watchdog::reset();
  EXPECT_TRUE(found);
}

TEST(Pcg, CondestTracksConditioning) {
  const BlockToeplitz well = toeplitz::kms(64, 0.5);
  const double cw = circulant_condest(well, CirculantPreconditioner(well));
  EXPECT_GE(cw, 1.0);
  EXPECT_LE(cw, 1e3);  // true cond ~ 9; the 1-norm proxy stays small

  const BlockToeplitz ill = toeplitz::prolate(64, 0.05);
  const CirculantPreconditioner pre(ill);
  if (pre.positive_definite()) {
    EXPECT_GE(circulant_condest(ill, pre), 1e6);
  }
}

TEST(PcgOptions, FromEnvOverrides) {
  setenv("BST_PCG_TOL", "1e-6", 1);
  setenv("BST_PCG_MAXIT", "7", 1);
  const PcgOptions opt = PcgOptions::from_env();
  unsetenv("BST_PCG_TOL");
  unsetenv("BST_PCG_MAXIT");
  EXPECT_DOUBLE_EQ(opt.tol, 1e-6);
  EXPECT_EQ(opt.max_iters, 7);
  const PcgOptions defaults = PcgOptions::from_env();
  EXPECT_DOUBLE_EQ(defaults.tol, 1e-13);
  EXPECT_EQ(defaults.max_iters, 500);
}

TEST(PcgOptions, FromEnvRejectsMalformedAndNegative) {
  // strtod(s, nullptr) read "tight" as tol=0 (PCG could never converge)
  // and atoi read "50x" as 50: each must be refused, naming the variable.
  for (const auto& [var, value] : {std::pair{"BST_PCG_TOL", "tight"},
                                   std::pair{"BST_PCG_TOL", "1e-13x"},
                                   std::pair{"BST_PCG_TOL", "-1e-6"},
                                   std::pair{"BST_PCG_MAXIT", "50x"},
                                   std::pair{"BST_PCG_MAXIT", "-3"},
                                   std::pair{"BST_PCG_MAXIT", "4294967298"}}) {
    setenv(var, value, 1);
    try {
      (void)PcgOptions::from_env();
      ADD_FAILURE() << var << "=" << value << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(var), std::string::npos) << e.what();
    }
    unsetenv(var);
  }
  setenv("BST_PCG_MAXIT", "0", 1);  // still clamps to one iteration
  EXPECT_EQ(PcgOptions::from_env().max_iters, 1);
  unsetenv("BST_PCG_MAXIT");
}

}  // namespace
}  // namespace bst::core
