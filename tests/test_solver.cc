// Tests for the one-call solver facade and the block Levinson baseline.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <utility>

#include "baseline/block_levinson.h"
#include "baseline/dense_solver.h"
#include "baseline/levinson.h"
#include "core/solve.h"
#include "core/solver.h"
#include "toeplitz/generators.h"
#include "toeplitz/matvec.h"
#include "util/rng.h"
#include "util/trace.h"
#include "util/watchdog.h"

namespace bst {
namespace {

using core::SolvePath;
using toeplitz::BlockToeplitz;

double max_err_vs_ones(const std::vector<double>& x) {
  double e = 0.0;
  for (double v : x) e = std::max(e, std::fabs(v - 1.0));
  return e;
}

TEST(ToeplitzSolve, SpdTakesSpdPath) {
  BlockToeplitz t = toeplitz::random_spd_block(3, 8, 2, 5);
  std::vector<double> b = toeplitz::rhs_for_ones(t);
  core::SolveReport rep = core::toeplitz_solve(t, b);
  EXPECT_EQ(rep.path, SolvePath::Spd);
  EXPECT_FALSE(rep.refined);
  EXPECT_LT(max_err_vs_ones(rep.x), 1e-10);
  EXPECT_GT(rep.factor_flops, 0u);
}

TEST(ToeplitzSolve, IndefiniteFallsBack) {
  BlockToeplitz t = toeplitz::random_indefinite(12, 3, /*diag=*/1.2);
  std::vector<double> b = toeplitz::rhs_for_ones(t);
  core::SolveReport rep = core::toeplitz_solve(t, b);
  EXPECT_EQ(rep.path, SolvePath::Indefinite);
  EXPECT_LT(max_err_vs_ones(rep.x), 1e-7);
}

TEST(ToeplitzSolve, SingularMinorPerturbsAndRefines) {
  BlockToeplitz t = toeplitz::paper_example_6x6();
  std::vector<double> b = toeplitz::rhs_for_ones(t);
  core::SolveReport rep = core::toeplitz_solve(t, b);
  EXPECT_EQ(rep.path, SolvePath::IndefinitePerturbed);
  EXPECT_TRUE(rep.refined);
  EXPECT_TRUE(rep.converged);
  EXPECT_GE(rep.perturbations, 1u);
  EXPECT_LT(max_err_vs_ones(rep.x), 1e-12);
  EXPECT_GE(rep.final_residual, 0.0);
  EXPECT_LT(rep.final_residual, 1e-12);
}

TEST(ToeplitzSolve, AlwaysRefineOnSpd) {
  BlockToeplitz t = toeplitz::kms(16, 0.5);
  std::vector<double> b = toeplitz::rhs_for_ones(t);
  core::SolveOptions opt;
  opt.always_refine = true;
  core::SolveReport rep = core::toeplitz_solve(t, b, opt);
  EXPECT_TRUE(rep.refined);
  EXPECT_LE(rep.refinement_steps, 1);
  EXPECT_LT(rep.final_residual, 1e-11);
}

TEST(ToeplitzSolve, AssumeIndefiniteSkipsSpd) {
  BlockToeplitz t = toeplitz::kms(10, 0.5);  // SPD, but force the other path
  std::vector<double> b = toeplitz::rhs_for_ones(t);
  core::SolveOptions opt;
  opt.assume_indefinite = true;
  core::SolveReport rep = core::toeplitz_solve(t, b, opt);
  EXPECT_EQ(rep.path, SolvePath::Indefinite);
  EXPECT_LT(max_err_vs_ones(rep.x), 1e-9);
}

TEST(ToeplitzSolve, PathNames) {
  EXPECT_STREQ(core::to_string(SolvePath::Spd), "spd");
  EXPECT_STREQ(core::to_string(SolvePath::Indefinite), "indefinite");
  EXPECT_STREQ(core::to_string(SolvePath::IndefinitePerturbed), "indefinite+perturbed");
  EXPECT_STREQ(core::to_string(SolvePath::Pcg), "pcg");
}

TEST(SolverPolicy, SmallSystemsStayOnSchur) {
  BlockToeplitz t = toeplitz::kms(256, 0.5);
  core::PolicyDecision dec = core::choose_solver(t, core::SolverPolicy{});
  EXPECT_EQ(dec.chosen, core::SolverKind::Schur);
  EXPECT_EQ(dec.reason, "small");
  EXPECT_EQ(dec.condest, -1.0);       // never probed
  EXPECT_EQ(dec.precond, nullptr);    // never built
}

TEST(SolverPolicy, LargeWellConditionedCrossesToPcg) {
  BlockToeplitz t = toeplitz::kms(512, 0.5);
  core::SolverPolicy pol;
  pol.pcg_min_n = 128;
  core::PolicyDecision dec = core::choose_solver(t, pol);
  EXPECT_EQ(dec.chosen, core::SolverKind::Pcg);
  EXPECT_EQ(dec.reason, "crossover");
  EXPECT_GE(dec.condest, 1.0);
  ASSERT_NE(dec.precond, nullptr);
  EXPECT_TRUE(dec.precond->positive_definite());
}

TEST(SolverPolicy, IndefiniteProbeStaysOnSchur) {
  BlockToeplitz t = toeplitz::singular_minor_family(256, 9);
  core::SolverPolicy pol;
  pol.pcg_min_n = 64;
  core::PolicyDecision dec = core::choose_solver(t, pol);
  EXPECT_EQ(dec.chosen, core::SolverKind::Schur);
  EXPECT_EQ(dec.reason, "not_spd");
}

TEST(SolverPolicy, IllConditionedProbeStaysOnSchur) {
  BlockToeplitz t = toeplitz::kms(256, 0.9);
  core::SolverPolicy pol;
  pol.pcg_min_n = 64;
  pol.pcg_max_cond = 2.0;  // anything real fails this on purpose
  core::PolicyDecision dec = core::choose_solver(t, pol);
  EXPECT_EQ(dec.chosen, core::SolverKind::Schur);
  EXPECT_EQ(dec.reason, "ill_conditioned");
  EXPECT_GT(dec.condest, 2.0);
}

TEST(SolverPolicy, FromEnvOverrides) {
  setenv("BST_SOLVER", "pcg", 1);
  setenv("BST_SOLVER_MIN_N", "123", 1);
  setenv("BST_SOLVER_MAX_COND", "1e4", 1);
  core::SolverPolicy pol = core::SolverPolicy::from_env();
  unsetenv("BST_SOLVER");
  unsetenv("BST_SOLVER_MIN_N");
  unsetenv("BST_SOLVER_MAX_COND");
  EXPECT_EQ(pol.kind, core::SolverKind::Pcg);
  EXPECT_EQ(pol.pcg_min_n, 123);
  EXPECT_DOUBLE_EQ(pol.pcg_max_cond, 1e4);
  EXPECT_THROW(core::parse_solver_kind("bogus"), std::invalid_argument);
}

TEST(SolverPolicy, FromEnvRejectsMalformedAndNegative) {
  // strtol/strtod with no end check read "2k" as 2 and "big" as 0 (every
  // order crossed to PCG, every condition estimate failed the cap).
  for (const auto& [var, value] : {std::pair{"BST_SOLVER_MIN_N", "2k"},
                                   std::pair{"BST_SOLVER_MIN_N", "-64"},
                                   std::pair{"BST_SOLVER_MAX_COND", "big"},
                                   std::pair{"BST_SOLVER_MAX_COND", "1e6 "},
                                   std::pair{"BST_SOLVER_MAX_COND", "-1"}}) {
    setenv(var, value, 1);
    try {
      (void)core::SolverPolicy::from_env();
      ADD_FAILURE() << var << "=" << value << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(var), std::string::npos) << e.what();
    }
    unsetenv(var);
  }
}

TEST(ToeplitzSolve, PcgPathSolvesLargeWellConditioned) {
  BlockToeplitz t = toeplitz::kms(1024, 0.5);
  std::vector<double> b = toeplitz::rhs_for_ones(t);
  core::SolveOptions opt;
  opt.policy.pcg_min_n = 256;
  core::SolveReport rep = core::toeplitz_solve(t, b, opt);
  EXPECT_EQ(rep.path, SolvePath::Pcg);
  EXPECT_EQ(rep.solver_path, "pcg");
  EXPECT_EQ(rep.policy_reason, "crossover");
  EXPECT_GT(rep.pcg_iterations, 0);
  EXPECT_TRUE(rep.converged);
  EXPECT_GE(rep.final_residual, 0.0);
  EXPECT_LT(max_err_vs_ones(rep.x), 1e-9);
}

TEST(ToeplitzSolve, ForcedPcgOnIndefiniteFallsBackToSchur) {
  // Forcing PCG onto a matrix whose Strang circulant is not SPD must land
  // on the Schur path with mandatory refinement, flagged as the fallback,
  // with a watchdog warning explaining why.
  BlockToeplitz t = toeplitz::singular_minor_family(128, 9);
  std::vector<double> b = toeplitz::rhs_for_ones(t);
  core::SolveOptions opt;
  opt.policy.kind = core::SolverKind::Pcg;
  util::Tracer::enable();
  util::Watchdog::reset();
  core::SolveReport rep = core::toeplitz_solve(t, b, opt);
  util::Tracer::disable();
  EXPECT_EQ(rep.solver_path, "pcg+fallback");
  EXPECT_TRUE(rep.refined);
  EXPECT_LT(max_err_vs_ones(rep.x), 1e-8);
  bool warned = false;
  for (const auto& w : util::Watchdog::snapshot()) {
    if (w.code == "pcg_precond_not_spd" || w.code == "pcg_no_convergence" ||
        w.code == "pcg_breakdown") {
      warned = true;
    }
  }
  util::Watchdog::reset();
  EXPECT_TRUE(warned);
}

TEST(ToeplitzSolve, ForcedSchurSkipsProbeOnLargeSystem) {
  BlockToeplitz t = toeplitz::kms(512, 0.5);
  std::vector<double> b = toeplitz::rhs_for_ones(t);
  core::SolveOptions opt;
  opt.policy.kind = core::SolverKind::Schur;
  opt.policy.pcg_min_n = 64;  // would cross over under Auto
  core::SolveReport rep = core::toeplitz_solve(t, b, opt);
  EXPECT_EQ(rep.path, SolvePath::Spd);
  EXPECT_EQ(rep.solver_path, "schur");
  EXPECT_EQ(rep.policy_reason, "forced");
  EXPECT_EQ(rep.condest, -1.0);
  EXPECT_LT(max_err_vs_ones(rep.x), 1e-9);
}

TEST(ToeplitzSolve, ReflectorNormTracking) {
  // Section 8.2: a perturbed factorization must exhibit transforms of norm
  // ~ 1/delta (delta ~ 1e-5): large_reflectors counts them (paper: two).
  BlockToeplitz t = toeplitz::paper_example_6x6();
  core::IndefiniteOptions opt;
  opt.delta = 1e-5;
  core::LdlFactor f = core::block_schur_indefinite(t, opt);
  EXPECT_GE(f.large_reflectors, 1);
  EXPECT_LE(f.large_reflectors, 4);
  EXPECT_GT(f.max_reflector_norm, 1e2);   // ~ 1/sqrt(delta) or larger
  // A clean SPD factorization has modest transform norms and none large.
  core::LdlFactor g = core::block_schur_indefinite(toeplitz::kms(16, 0.5));
  EXPECT_EQ(g.large_reflectors, 0);
  EXPECT_LT(g.max_reflector_norm, 1e3);
}

// ---- block Levinson baseline ------------------------------------------

class BlockLevinsonSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(BlockLevinsonSweep, MatchesDenseSolve) {
  const auto [m, p] = GetParam();
  BlockToeplitz t =
      toeplitz::random_spd_block(m, p, 2, static_cast<std::uint64_t>(7 * m + p));
  util::Rng rng(static_cast<std::uint64_t>(m + p));
  std::vector<double> b(static_cast<std::size_t>(t.order()));
  for (auto& v : b) v = rng.uniform(-1, 1);
  std::vector<double> x = baseline::block_levinson_solve(t, b);
  std::vector<double> xd = baseline::dense_spd_solve(t.dense().view(), b);
  for (std::size_t i = 0; i < b.size(); ++i) EXPECT_NEAR(x[i], xd[i], 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Shapes, BlockLevinsonSweep,
                         ::testing::Combine(::testing::Values(1, 2, 3, 5),
                                            ::testing::Values(1, 2, 3, 4, 8, 16)));

TEST(BlockLevinson, ScalarCaseAgreesWithLevinson) {
  BlockToeplitz t = toeplitz::kms(24, 0.6);
  std::vector<double> row(24);
  for (la::index_t j = 0; j < 24; ++j) row[static_cast<std::size_t>(j)] = t.entry(0, j);
  std::vector<double> b = toeplitz::rhs_for_ones(t);
  std::vector<double> xb = baseline::block_levinson_solve(t, b);
  std::vector<double> xs = baseline::levinson_solve(row, b);
  for (std::size_t i = 0; i < b.size(); ++i) EXPECT_NEAR(xb[i], xs[i], 1e-9);
}

TEST(BlockLevinson, IndefiniteWithNonsingularMinors) {
  BlockToeplitz t = toeplitz::random_indefinite(12, 11, /*diag=*/1.5);
  std::vector<double> b = toeplitz::rhs_for_ones(t);
  std::vector<double> x = baseline::block_levinson_solve(t, b);
  EXPECT_LT(max_err_vs_ones(x), 1e-7);
}

TEST(BlockLevinson, ThrowsOnSingularMinor) {
  BlockToeplitz t = toeplitz::paper_example_6x6();
  std::vector<double> b(6, 1.0);
  EXPECT_THROW(baseline::block_levinson_solve(t, b), std::runtime_error);
}

TEST(BlockLevinson, RhsSizeMismatchThrows) {
  BlockToeplitz t = toeplitz::kms(8, 0.5);
  EXPECT_THROW(baseline::block_levinson_solve(t, std::vector<double>(7, 1.0)),
               std::invalid_argument);
}

TEST(BlockLevinson, AgreesWithBlockSchurSolve) {
  BlockToeplitz t = toeplitz::random_spd_block(4, 10, 3, 17);
  std::vector<double> b = toeplitz::rhs_for_ones(t);
  std::vector<double> xl = baseline::block_levinson_solve(t, b);
  core::SchurFactor f = core::block_schur_factor(t);
  std::vector<double> xs = core::solve_spd(f, b);
  for (std::size_t i = 0; i < b.size(); ++i) EXPECT_NEAR(xl[i], xs[i], 1e-8);
}

}  // namespace
}  // namespace bst
