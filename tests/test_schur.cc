// Tests for the SPD block Schur factorization (paper sections 2, 5, 6):
// T = R^T R across block sizes, representations, block-size overrides,
// matrix families; agreement with dense Cholesky; solves.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "baseline/dense_solver.h"
#include "core/indefinite.h"
#include "core/schur.h"
#include "core/solve.h"
#include "la/blas.h"
#include "la/cholesky.h"
#include "la/norms.h"
#include "la/triangular.h"
#include "toeplitz/generators.h"
#include "toeplitz/matvec.h"
#include "util/rng.h"

namespace bst::core {
namespace {

using toeplitz::BlockToeplitz;

double reconstruction_error(const BlockToeplitz& t, CView r) {
  const index_t n = t.order();
  Mat rec(n, n);
  la::gemm(la::Op::Trans, la::Op::None, 1.0, r, r, 0.0, rec.view());
  Mat dense = t.dense();
  return la::max_diff(rec.view(), dense.view()) / (1.0 + la::max_abs(dense.view()));
}

const Representation kAll[] = {Representation::AccumulatedU, Representation::VY1,
                               Representation::VY2, Representation::YTY,
                               Representation::Sequential};

class SchurRepSweep : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(SchurRepSweep, FactorReconstructsT) {
  const auto [repi, m, p] = GetParam();
  SchurOptions opt;
  opt.rep = kAll[repi];
  BlockToeplitz t =
      toeplitz::random_spd_block(m, p, 2, static_cast<std::uint64_t>(repi + 10 * m + 100 * p));
  SchurFactor f = block_schur_factor(t, opt);
  EXPECT_TRUE(la::is_upper_triangular(f.r.view(), 0.0));
  EXPECT_LT(reconstruction_error(t, f.r.view()), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(RepsBlocksLengths, SchurRepSweep,
                         ::testing::Combine(::testing::Values(0, 1, 2, 3, 4),
                                            ::testing::Values(1, 2, 3, 5),
                                            ::testing::Values(1, 2, 4, 7)));

TEST(Schur, MatchesDenseCholeskyUpToRowSigns) {
  BlockToeplitz t = toeplitz::random_spd_block(2, 5, 2, 42);
  SchurFactor f = block_schur_factor(t);
  Mat l = la::cholesky_factor(t.dense().view());
  // R row i = +/- (L^T row i): compare |R| with |L^T|.
  const index_t n = t.order();
  for (index_t i = 0; i < n; ++i)
    for (index_t j = 0; j < n; ++j)
      EXPECT_NEAR(std::fabs(f.r(i, j)), std::fabs(l(j, i)), 1e-9) << i << "," << j;
}

TEST(Schur, AllRepresentationsGiveSameFactor) {
  BlockToeplitz t = toeplitz::random_spd_block(4, 6, 3, 7);
  SchurOptions opt;
  opt.rep = Representation::Sequential;
  SchurFactor ref = block_schur_factor(t, opt);
  for (Representation rep : {Representation::AccumulatedU, Representation::VY1,
                             Representation::VY2, Representation::YTY}) {
    opt.rep = rep;
    SchurFactor f = block_schur_factor(t, opt);
    EXPECT_LT(la::max_diff(f.r.view(), ref.r.view()), 1e-9) << to_string(rep);
  }
}

class BlockSizeOverrideSweep : public ::testing::TestWithParam<int> {};

TEST_P(BlockSizeOverrideSweep, LargerWorkingBlockSameMatrix) {
  const index_t ms = GetParam();
  // Scalar Toeplitz (m = 1) factored as if it were block Toeplitz with
  // block size ms -- the paper's device for point matrices.
  BlockToeplitz t = toeplitz::kms(24, 0.6);
  SchurOptions opt;
  opt.block_size = ms;
  SchurFactor f = block_schur_factor(t, opt);
  EXPECT_EQ(f.block_size, ms);
  EXPECT_LT(reconstruction_error(t, f.r.view()), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(WorkingBlockSizes, BlockSizeOverrideSweep,
                         ::testing::Values(1, 2, 3, 4, 6, 8, 12, 24));

TEST(Schur, BlockOverrideOfBlockMatrix) {
  // m = 2 matrix treated with m_s = 4 and m_s = 8.
  BlockToeplitz t = toeplitz::random_spd_block(2, 8, 3, 11);
  SchurFactor ref = block_schur_factor(t);
  for (index_t ms : {4, 8}) {
    SchurOptions opt;
    opt.block_size = ms;
    SchurFactor f = block_schur_factor(t, opt);
    EXPECT_LT(reconstruction_error(t, f.r.view()), 1e-10) << ms;
    // Same matrix, same (Cholesky) factor up to row signs.
    for (index_t i = 0; i < t.order(); ++i)
      for (index_t j = 0; j < t.order(); ++j)
        EXPECT_NEAR(std::fabs(f.r(i, j)), std::fabs(ref.r(i, j)), 1e-8);
  }
}

TEST(Schur, KmsAndProlateFamilies) {
  for (double rho : {0.1, 0.5, 0.9}) {
    BlockToeplitz t = toeplitz::kms(32, rho);
    SchurFactor f = block_schur_factor(t);
    EXPECT_LT(reconstruction_error(t, f.r.view()), 1e-9) << "kms rho=" << rho;
  }
  BlockToeplitz t = toeplitz::prolate(24, 0.35);
  SchurFactor f = block_schur_factor(t);
  EXPECT_LT(reconstruction_error(t, f.r.view()), 1e-8);
}

TEST(Schur, ThrowsOnIndefiniteMatrix) {
  BlockToeplitz t = toeplitz::random_indefinite(12, 5, /*diag=*/0.3);
  try {
    block_schur_factor(t);
    FAIL() << "expected NotPositiveDefinite";
  } catch (const NotPositiveDefinite& e) {
    EXPECT_GE(e.step, 1);
    EXPECT_NE(std::string(e.what()).find("not positive definite"), std::string::npos);
  }
}

TEST(Schur, GrainFlopsFromEnvIsStrict) {
  // strtod without an end check took "2e4x" as 2e4; the grain divides the
  // trailing flops, so 0 is refused too.
  for (const char* value : {"2e4x", "-1e5", "0", "0.0", "fast"}) {
    setenv("BST_SCHUR_GRAIN_FLOPS", value, 1);
    try {
      (void)schur_grain_flops_from_env();
      ADD_FAILURE() << "BST_SCHUR_GRAIN_FLOPS=" << value << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("BST_SCHUR_GRAIN_FLOPS"), std::string::npos)
          << e.what();
    }
  }
  setenv("BST_SCHUR_GRAIN_FLOPS", "2.5e4", 1);
  EXPECT_EQ(schur_grain_flops_from_env(), 2.5e4);
  unsetenv("BST_SCHUR_GRAIN_FLOPS");
  EXPECT_EQ(schur_grain_flops_from_env(), 1e5);
}

TEST(Schur, ThrowsOnSingularMinorMatrix) {
  EXPECT_THROW(block_schur_factor(toeplitz::paper_example_6x6()), NotPositiveDefinite);
}

TEST(Schur, SolveGivesAccurateSolution) {
  util::Rng rng(3);
  BlockToeplitz t = toeplitz::random_spd_block(3, 6, 2, 77);
  const index_t n = t.order();
  std::vector<double> xtrue(static_cast<std::size_t>(n));
  for (auto& v : xtrue) v = rng.uniform(-1, 1);
  std::vector<double> b;
  toeplitz::MatVec(t).apply(xtrue, b);
  SchurFactor f = block_schur_factor(t);
  std::vector<double> x = solve_spd(f, b);
  for (index_t i = 0; i < n; ++i)
    EXPECT_NEAR(x[static_cast<std::size_t>(i)], xtrue[static_cast<std::size_t>(i)], 1e-9);
}

TEST(Schur, SolveMatchesDenseBaseline) {
  BlockToeplitz t = toeplitz::kms(20, 0.7);
  std::vector<double> b = toeplitz::rhs_for_ones(t);
  SchurFactor f = block_schur_factor(t);
  std::vector<double> xs = solve_spd(f, b);
  std::vector<double> xd = baseline::dense_spd_solve(t.dense().view(), b);
  for (std::size_t i = 0; i < b.size(); ++i) EXPECT_NEAR(xs[i], xd[i], 1e-9);
}

TEST(Schur, StreamingSinkSeesAllSteps) {
  BlockToeplitz t = toeplitz::random_spd_block(2, 5, 2, 13);
  SchurOptions opt;
  std::vector<index_t> steps;
  std::vector<index_t> widths;
  block_schur_stream(t, opt, [&](index_t step, CView rows) {
    steps.push_back(step);
    widths.push_back(rows.cols());
    EXPECT_EQ(rows.rows(), 2);
  });
  ASSERT_EQ(steps.size(), 5u);
  for (index_t i = 0; i < 5; ++i) {
    EXPECT_EQ(steps[static_cast<std::size_t>(i)], i);
    EXPECT_EQ(widths[static_cast<std::size_t>(i)], (5 - i) * 2);
  }
}

TEST(Schur, ParallelApplicationMatchesSerial) {
  BlockToeplitz t = toeplitz::random_spd_block(4, 16, 3, 19);
  SchurOptions serial, par;
  par.parallel = true;
  SchurFactor fs = block_schur_factor(t, serial);
  SchurFactor fp = block_schur_factor(t, par);
  EXPECT_LT(la::max_diff(fs.r.view(), fp.r.view()), 0.0 + 1e-15);
}

TEST(Schur, FlopCountScalesWithWorkingBlockSize) {
  // The paper's ~4 m_s n^2 law: doubling m_s roughly doubles the flops.
  BlockToeplitz t = toeplitz::kms(128, 0.5);
  SchurOptions o2, o8;
  o2.block_size = 2;
  o8.block_size = 8;
  SchurFactor f2 = block_schur_factor(t, o2);
  SchurFactor f8 = block_schur_factor(t, o8);
  const double ratio = static_cast<double>(f8.flops) / static_cast<double>(f2.flops);
  EXPECT_GT(ratio, 2.0);
  EXPECT_LT(ratio, 8.0);  // linear-ish growth, far below quadratic (16x)
}

TEST(Schur, SingleBlockMatrixIsJustCholesky) {
  BlockToeplitz t = toeplitz::random_spd_block(4, 1, 2, 3);
  SchurFactor f = block_schur_factor(t);
  Mat l = la::cholesky_factor(t.dense().view());
  for (index_t i = 0; i < 4; ++i)
    for (index_t j = 0; j < 4; ++j) EXPECT_NEAR(std::fabs(f.r(i, j)), std::fabs(l(j, i)), 1e-12);
}

TEST(Schur, LargeScalarProblem) {
  BlockToeplitz t = toeplitz::kms(256, 0.8);
  SchurOptions opt;
  opt.block_size = 16;
  SchurFactor f = block_schur_factor(t, opt);
  // Spot check via the solve rather than dense reconstruction.
  std::vector<double> b = toeplitz::rhs_for_ones(t);
  std::vector<double> x = solve_spd(f, b);
  for (double v : x) EXPECT_NEAR(v, 1.0, 1e-8);
}


TEST(Schur, MultiRhsSolveMatchesColumnwise) {
  util::Rng rng(23);
  BlockToeplitz t = toeplitz::random_spd_block(2, 8, 2, 41);
  const index_t n = t.order();
  SchurFactor f = block_schur_factor(t);
  Mat b(n, 3);
  for (index_t j = 0; j < 3; ++j)
    for (index_t i = 0; i < n; ++i) b(i, j) = rng.uniform(-1, 1);
  Mat x = solve_spd_multi(f, b.view());
  for (index_t j = 0; j < 3; ++j) {
    std::vector<double> col(static_cast<std::size_t>(n));
    for (index_t i = 0; i < n; ++i) col[static_cast<std::size_t>(i)] = b(i, j);
    std::vector<double> xj = solve_spd(f, col);
    for (index_t i = 0; i < n; ++i)
      EXPECT_NEAR(x(i, j), xj[static_cast<std::size_t>(i)], 1e-12);
  }
}

TEST(Schur, MultiRhsWithSignature) {
  BlockToeplitz t = toeplitz::random_indefinite(10, 5, /*diag=*/1.5);
  const index_t n = t.order();
  IndefiniteOptions iopt;
  LdlFactor f = block_schur_indefinite(t, iopt);
  ASSERT_TRUE(f.perturbations.empty());
  Mat b(n, 2);
  std::vector<double> ones = toeplitz::rhs_for_ones(t);
  for (index_t i = 0; i < n; ++i) {
    b(i, 0) = ones[static_cast<std::size_t>(i)];
    b(i, 1) = 2.0 * ones[static_cast<std::size_t>(i)];
  }
  solve_rtdr_multi(f.r.view(), f.d.data(), b.view());
  for (index_t i = 0; i < n; ++i) {
    EXPECT_NEAR(b(i, 0), 1.0, 1e-7);
    EXPECT_NEAR(b(i, 1), 2.0, 1e-7);
  }
}


TEST(Schur, ScaleStressN2048) {
  // Factor + solve at bench scale; residual must stay at working accuracy.
  BlockToeplitz t = toeplitz::kms(2048, 0.9);
  SchurOptions opt;
  opt.block_size = 16;
  SchurFactor f = block_schur_factor(t, opt);
  std::vector<double> b = toeplitz::rhs_for_ones(t);
  std::vector<double> x = solve_spd(f, b);
  std::vector<double> r;
  toeplitz::MatVec(t, toeplitz::MatVecMode::Fft).residual(b, x, r);
  double rn = 0.0, bn = 0.0;
  for (std::size_t i = 0; i < r.size(); ++i) {
    rn += r[i] * r[i];
    bn += b[i] * b[i];
  }
  EXPECT_LT(std::sqrt(rn / bn), 1e-10);
}

TEST(Schur, ParallelAndTwoLevelComposeAtScale) {
  BlockToeplitz t = toeplitz::kms(512, 0.8);
  SchurOptions base;
  base.block_size = 32;
  SchurOptions fancy = base;
  fancy.parallel = true;
  fancy.inner_block = 8;
  SchurFactor f1 = block_schur_factor(t, base);
  SchurFactor f2 = block_schur_factor(t, fancy);
  EXPECT_LT(la::max_diff(f1.r.view(), f2.r.view()), 1e-9);
}

}  // namespace
}  // namespace bst::core
