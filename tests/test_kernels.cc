// Exhaustive tests for the packed/SIMD/threaded level-3 kernel stack
// (la/blas3.cc): correctness against naive references over odd/prime sizes,
// every Op/Side/Uplo/Diag combination, strided views, alpha/beta sweeps and
// micro-kernel edge tiles, with max-ulp/forward-error bounds; plus the
// counter invariants (closed-form charges, merge-on-join) that keep
// model_ratio exact under threading.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <thread>
#include <vector>

#include "la/blas.h"
#include "la/kernel_config.h"
#include "util/flops.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace bst::la {
namespace {

Mat random_matrix(index_t r, index_t c, util::Rng& rng) {
  Mat a(r, c);
  for (index_t j = 0; j < c; ++j)
    for (index_t i = 0; i < r; ++i) a(i, j) = rng.uniform(-1.0, 1.0);
  return a;
}

// Restores the process-wide KernelConfig on scope exit so tests that force
// packing/SIMD/threading choices cannot leak into each other.
struct ConfigGuard {
  KernelConfig saved = KernelConfig::active();
  ConfigGuard() = default;
  ConfigGuard(const ConfigGuard&) = delete;
  ConfigGuard& operator=(const ConfigGuard&) = delete;
  ~ConfigGuard() { KernelConfig::set_active(saved); }
};

// Tiny blocking forces many KC/MC/NC iterations and edge panels even at
// test sizes; pack_min_* = 0/1 routes everything through the packed path.
KernelConfig forced_packed(bool simd) {
  KernelConfig cfg;
  cfg.mc = 16;
  cfg.kc = 8;
  cfg.nc = 12;
  cfg.pack_min_flops = 0;
  cfg.pack_min_m = 1;
  cfg.simd = simd;
  return cfg;
}

// Total order on doubles for ulp distances (negatives mirrored below the
// bias so the distance counts representable values between x and y).
std::uint64_t ulp_key(double x) {
  std::uint64_t u = 0;
  std::memcpy(&u, &x, sizeof u);
  const std::uint64_t bias = 0x8000000000000000ull;
  return (u & bias) ? bias - (u & ~bias) : bias + u;
}

std::uint64_t ulp_distance(double x, double y) {
  if (!std::isfinite(x) || !std::isfinite(y)) {
    return std::numeric_limits<std::uint64_t>::max();
  }
  const std::uint64_t kx = ulp_key(x), ky = ulp_key(y);
  return kx > ky ? kx - ky : ky - kx;
}

constexpr std::uint64_t kMaxUlps = 256;

// Reference C = alpha op(A) op(B) + beta C0, plus the matching magnitude
// accumulation |alpha| |op(A)| |op(B)| + |beta| |C0| used for the forward
// error bound (the packed kernel sums in a different order than the naive
// triple loop, so elementwise agreement holds only to ~k*eps*magnitude).
void naive_gemm(Op ta, Op tb, double alpha, CView a, CView b, double beta, CView c0,
                Mat& ref, Mat& mag) {
  const index_t m = (ta == Op::None) ? a.rows() : a.cols();
  const index_t k = (ta == Op::None) ? a.cols() : a.rows();
  const index_t n = (tb == Op::None) ? b.cols() : b.rows();
  ref = Mat(m, n);
  mag = Mat(m, n);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < m; ++i) {
      double s = 0.0, sa = 0.0;
      for (index_t l = 0; l < k; ++l) {
        const double av = (ta == Op::None) ? a(i, l) : a(l, i);
        const double bv = (tb == Op::None) ? b(l, j) : b(j, l);
        s += av * bv;
        sa += std::fabs(av * bv);
      }
      ref(i, j) = alpha * s + beta * c0(i, j);
      mag(i, j) = std::fabs(alpha) * sa + std::fabs(beta * c0(i, j));
    }
}

void expect_close(CView got, const Mat& ref, const Mat& mag, index_t k, const char* what) {
  const double eps = std::numeric_limits<double>::epsilon();
  const double bound_scale = static_cast<double>(k + 4) * eps;
  for (index_t j = 0; j < ref.cols(); ++j)
    for (index_t i = 0; i < ref.rows(); ++i) {
      const double g = got(i, j), r = ref(i, j);
      const double abs_bound = bound_scale * mag(i, j) + 1e-300;
      const bool ok = (std::fabs(g - r) <= abs_bound) || (ulp_distance(g, r) <= kMaxUlps);
      ASSERT_TRUE(ok) << what << " mismatch at (" << i << "," << j << "): got " << g
                      << " want " << r << " |diff| " << std::fabs(g - r) << " bound "
                      << abs_bound << " ulps " << ulp_distance(g, r);
    }
}

struct Shape {
  index_t m, n, k;
};

// Odd/prime sizes, exact micro-tiles (8x6 multiples), edge tiles with
// m % 8 != 0 and n % 6 != 0, degenerate rows/columns, and the Schur hot
// shapes (narrow panels against wide trailing generators).
const Shape kGemmShapes[] = {
    {1, 1, 1},   {2, 3, 1},    {3, 5, 7},    {5, 2, 9},    {7, 11, 13},  {8, 6, 16},
    {9, 7, 5},   {13, 17, 19}, {16, 12, 8},  {17, 23, 29}, {31, 29, 37}, {40, 42, 41},
    {53, 47, 13}, {64, 48, 32}, {97, 89, 61}, {95, 129, 33}, {2, 100, 4},  {4, 200, 8},
    {3, 150, 16}, {8, 120, 16}, {1, 301, 64},
};

const double kAlphas[] = {0.0, 1.0, -1.0, 0.3};
const double kBetas[] = {0.0, 1.0, -1.0, 0.3};
const Op kOps[] = {Op::None, Op::Trans};

void run_gemm_sweep(const KernelConfig& cfg) {
  ConfigGuard guard;
  KernelConfig::set_active(cfg);
  util::Rng rng(12345);
  for (const Shape& s : kGemmShapes) {
    for (const Op ta : kOps) {
      for (const Op tb : kOps) {
        const Mat a = (ta == Op::None) ? random_matrix(s.m, s.k, rng)
                                       : random_matrix(s.k, s.m, rng);
        const Mat b = (tb == Op::None) ? random_matrix(s.k, s.n, rng)
                                       : random_matrix(s.n, s.k, rng);
        const Mat c0 = random_matrix(s.m, s.n, rng);
        for (const double alpha : kAlphas) {
          for (const double beta : kBetas) {
            Mat ref, mag;
            naive_gemm(ta, tb, alpha, a.view(), b.view(), beta, c0.view(), ref, mag);
            Mat c = c0;
            gemm(ta, tb, alpha, a.view(), b.view(), beta, c.view());
            expect_close(c.view(), ref, mag, s.k, "gemm");
            if (::testing::Test::HasFatalFailure()) return;
          }
        }
      }
    }
  }
}

TEST(KernelGemm, DefaultConfigVsNaive) { run_gemm_sweep(KernelConfig::active()); }

TEST(KernelGemm, PackedSimdVsNaive) { run_gemm_sweep(forced_packed(true)); }

TEST(KernelGemm, PackedPortableVsNaive) { run_gemm_sweep(forced_packed(false)); }

TEST(KernelGemm, SeedReferenceVsNaive) {
  util::Rng rng(999);
  for (const Shape& s : {Shape{7, 11, 13}, Shape{31, 29, 37}, Shape{64, 48, 32}}) {
    for (const Op ta : kOps) {
      for (const Op tb : kOps) {
        const Mat a = (ta == Op::None) ? random_matrix(s.m, s.k, rng)
                                       : random_matrix(s.k, s.m, rng);
        const Mat b = (tb == Op::None) ? random_matrix(s.k, s.n, rng)
                                       : random_matrix(s.n, s.k, rng);
        const Mat c0 = random_matrix(s.m, s.n, rng);
        Mat ref, mag;
        naive_gemm(ta, tb, 0.3, a.view(), b.view(), -1.0, c0.view(), ref, mag);
        Mat c = c0;
        detail::gemm_seed(ta, tb, 0.3, a.view(), b.view(), -1.0, c.view());
        expect_close(c.view(), ref, mag, s.k, "gemm_seed");
      }
    }
  }
}

TEST(KernelGemm, StridedViews) {
  // Operands and C live inside larger parents, so every ld exceeds the
  // logical row count and the packing loops must honour it.
  ConfigGuard guard;
  KernelConfig::set_active(forced_packed(true));
  util::Rng rng(777);
  const index_t m = 37, n = 41, k = 29, pad = 11;
  Mat pa = random_matrix(m + pad, k + pad, rng);
  Mat pb = random_matrix(k + pad, n + pad, rng);
  Mat pc = random_matrix(m + pad, n + pad, rng);
  const Mat pc_orig = pc;
  CView a = pa.block(3, 5, m, k);
  CView b = pb.block(7, 2, k, n);
  View c = pc.block(5, 3, m, n);
  Mat ref, mag;
  naive_gemm(Op::None, Op::None, 1.0, a, b, 0.3, pc_orig.block(5, 3, m, n), ref, mag);
  gemm(Op::None, Op::None, 1.0, a, b, 0.3, c);
  expect_close(c, ref, mag, k, "strided gemm");
  // The padding around the C block must be untouched.
  for (index_t j = 0; j < pc.cols(); ++j)
    for (index_t i = 0; i < pc.rows(); ++i) {
      const bool inside = (i >= 5 && i < 5 + m && j >= 3 && j < 3 + n);
      if (!inside) {
        ASSERT_EQ(pc(i, j), pc_orig(i, j)) << "padding clobbered at " << i << "," << j;
      }
    }
}

TEST(KernelGemm, DeterministicAcrossThreading) {
  // The threaded tile grid splits only m and n, never k, so results must be
  // bitwise identical whether a call is parallelized or not (on a 1-thread
  // pool both paths are serial and the test degenerates to pack==pack).
  util::Rng rng(4242);
  const Mat a = random_matrix(160, 96, rng), b = random_matrix(96, 150, rng);
  Mat c1(160, 150), c2(160, 150);
  {
    ConfigGuard guard;
    KernelConfig cfg = forced_packed(true);
    cfg.parallel_min_flops = std::numeric_limits<index_t>::max();  // serial
    KernelConfig::set_active(cfg);
    gemm(Op::None, Op::None, 1.0, a.view(), b.view(), 0.0, c1.view());
    cfg.parallel_min_flops = 1;  // threaded whenever the pool has threads
    KernelConfig::set_active(cfg);
    gemm(Op::None, Op::None, 1.0, a.view(), b.view(), 0.0, c2.view());
  }
  for (index_t j = 0; j < c1.cols(); ++j)
    for (index_t i = 0; i < c1.rows(); ++i)
      ASSERT_EQ(c1(i, j), c2(i, j)) << "threaded gemm not bitwise deterministic";
}

TEST(KernelSyrk, VsNaiveLowerOnly) {
  ConfigGuard guard;
  KernelConfig::set_active(forced_packed(true));
  util::Rng rng(31337);
  for (const index_t n : {1, 7, 23, 48, 49, 97, 130}) {
    for (const index_t k : {1, 5, 19, 64}) {
      const Mat a = random_matrix(n, k, rng);
      for (const double alpha : {1.0, -1.0, 0.3}) {
        for (const double beta : {0.0, 1.0, 0.3}) {
          Mat c0 = random_matrix(n, n, rng);
          Mat c = c0;
          syrk_lower(alpha, a.view(), beta, c.view());
          // Reference via naive gemm A A^T on the lower triangle.
          Mat ref, mag;
          naive_gemm(Op::None, Op::Trans, alpha, a.view(), a.view(), beta, c0.view(), ref, mag);
          const double eps = std::numeric_limits<double>::epsilon();
          for (index_t j = 0; j < n; ++j) {
            for (index_t i = 0; i < n; ++i) {
              if (i >= j) {
                const double bound = static_cast<double>(k + 4) * eps * mag(i, j) + 1e-300;
                ASSERT_TRUE(std::fabs(c(i, j) - ref(i, j)) <= bound ||
                            ulp_distance(c(i, j), ref(i, j)) <= kMaxUlps)
                    << "syrk mismatch at " << i << "," << j;
              } else {
                ASSERT_EQ(c(i, j), c0(i, j)) << "syrk touched strict upper at " << i << "," << j;
              }
            }
          }
        }
      }
    }
  }
}

// Well-conditioned triangular factor: unit-ish diagonal dominance so the
// solve residual check is meaningful at 1e-12 tolerances.
Mat make_triangular(index_t n, Uplo uplo, util::Rng& rng) {
  Mat t = random_matrix(n, n, rng);
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < n; ++i) {
      const bool keep = (uplo == Uplo::Lower) ? (i >= j) : (i <= j);
      if (!keep) t(i, j) = 0.0;  // stored zeros in the dead triangle
      else t(i, j) *= 0.25;
    }
    t(j, j) = 2.0 + 0.1 * static_cast<double>(j % 7);
  }
  return t;
}

TEST(KernelTrsm, AllCombosResidual) {
  util::Rng rng(2024);
  for (const Side side : {Side::Left, Side::Right}) {
    for (const Uplo uplo : {Uplo::Lower, Uplo::Upper}) {
      for (const Op op : {Op::None, Op::Trans}) {
        for (const Diag diag : {Diag::NonUnit, Diag::Unit}) {
          for (const Shape& s : {Shape{5, 3, 0}, Shape{23, 17, 0}, Shape{70, 31, 0},
                                 Shape{129, 65, 0}}) {
            const index_t m = s.m, n = s.n;
            const index_t tn = (side == Side::Left) ? m : n;
            Mat t = make_triangular(tn, uplo, rng);
            if (diag == Diag::Unit) {
              // Unit solves ignore the stored diagonal; poison it to prove it.
              for (index_t j = 0; j < tn; ++j) t(j, j) = 1e30;
            }
            const Mat b0 = random_matrix(m, n, rng);
            for (const double alpha : {1.0, -1.0, 0.3}) {
              Mat x = b0;
              trsm(side, uplo, op, diag, alpha, t.view(), x.view());
              // Residual: op(T) X (Left) or X op(T) (Right) must equal
              // alpha * B0.  Unit diag means op(T) has ones on the diagonal.
              Mat teff = t;
              if (diag == Diag::Unit)
                for (index_t j = 0; j < tn; ++j) teff(j, j) = 1.0;
              Mat prod(m, n);
              if (side == Side::Left) {
                detail::gemm_seed(op, Op::None, 1.0, teff.view(), x.view(), 0.0, prod.view());
              } else {
                detail::gemm_seed(Op::None, op, 1.0, x.view(), teff.view(), 0.0, prod.view());
              }
              double max_err = 0.0, max_x = 0.0;
              for (index_t j = 0; j < n; ++j)
                for (index_t i = 0; i < m; ++i) {
                  max_err = std::max(max_err, std::fabs(prod(i, j) - alpha * b0(i, j)));
                  max_x = std::max(max_x, std::fabs(x(i, j)));
                }
              const double tol = 1e-12 * static_cast<double>(tn) * std::max(1.0, max_x);
              ASSERT_LE(max_err, tol)
                  << "trsm residual: side=" << static_cast<int>(side)
                  << " uplo=" << static_cast<int>(uplo) << " op=" << static_cast<int>(op)
                  << " diag=" << static_cast<int>(diag) << " m=" << m << " n=" << n
                  << " alpha=" << alpha;
            }
          }
        }
      }
    }
  }
}

// trsm Left picks each off-diagonal update's path from T's shape alone, so a
// column's bits must not depend on how many columns it is solved with.  Order
// 323 spans six 64-wide blocks (the last 3 wide): the forward sweeps' last
// update has 3 rows, below pack_min_m, and takes the direct loops; every
// other update is packed, or streams T for widths up to kMicroCols.
// Checked with the SIMD and portable kernels and with a KC that splits the
// depth.  Under the BST_THREADS matrix the 40-wide solves also split into
// thread strips.
TEST(KernelTrsm, LeftColumnBitsIndependentOfWidth) {
  ConfigGuard guard;
  KernelConfig portable = KernelConfig::active(), short_kc = KernelConfig::active();
  portable.simd = false;
  short_kc.kc = 10;
  util::Rng rng(77);
  const index_t n = 323, widest = 40;
  const Mat b0 = random_matrix(n, widest, rng);
  const std::size_t bytes = static_cast<std::size_t>(n) * sizeof(double);
  for (const KernelConfig& cfg : {guard.saved, portable, short_kc}) {
    KernelConfig::set_active(cfg);
    for (const Uplo uplo : {Uplo::Lower, Uplo::Upper}) {
      for (const Op op : {Op::None, Op::Trans}) {
        for (const Diag diag : {Diag::NonUnit, Diag::Unit}) {
          const Mat t = make_triangular(n, uplo, rng);
          Mat ref = b0;
          trsm(Side::Left, uplo, op, diag, 1.0, t.view(), ref.view());
          for (const index_t width : {1, 2, 3, 5, 6, 13}) {
            // Leading columns, and a trailing run whose columns sit at other
            // offsets within the micro-panels.
            for (const index_t j0 : {index_t{0}, widest - width}) {
              Mat x(n, width);
              copy(b0.view().block(0, j0, n, width), x.view());
              trsm(Side::Left, uplo, op, diag, 1.0, t.view(), x.view());
              for (index_t j = 0; j < width; ++j) {
                ASSERT_EQ(0, std::memcmp(x.view().col(j), ref.view().col(j0 + j), bytes))
                    << "simd=" << cfg.simd << " kc=" << cfg.kc
                    << " uplo=" << static_cast<int>(uplo) << " op=" << static_cast<int>(op)
                    << " diag=" << static_cast<int>(diag) << " width=" << width
                    << " column=" << j0 + j;
              }
            }
          }
        }
      }
    }
  }
}

// ----- counter invariants ---------------------------------------------------
// The attainment layer's model_ratio gate requires the kernels to charge
// closed-form totals on the calling thread regardless of how the work is
// split: counts must not depend on pool size, crossover path, or SIMD.

std::uint64_t flops_of(const std::function<void()>& fn, std::uint64_t* bytes = nullptr) {
  const std::uint64_t f0 = util::FlopCounter::now();
  const std::uint64_t b0 = util::ByteCounter::now();
  fn();
  if (bytes != nullptr) *bytes = util::ByteCounter::now() - b0;
  return util::FlopCounter::now() - f0;
}

TEST(KernelCounts, GemmClosedFormAnyPath) {
  util::Rng rng(5150);
  for (const KernelConfig& cfg :
       {KernelConfig::defaults(), forced_packed(true), forced_packed(false)}) {
    ConfigGuard guard;
    KernelConfig::set_active(cfg);
    const index_t m = 129, n = 95, k = 70;
    const Mat a = random_matrix(m, k, rng), b = random_matrix(k, n, rng);
    Mat c(m, n);
    std::uint64_t bytes = 0;
    const std::uint64_t flops = flops_of(
        [&] { gemm(Op::None, Op::None, 1.0, a.view(), b.view(), 1.0, c.view()); }, &bytes);
    EXPECT_EQ(flops, static_cast<std::uint64_t>(2 * m * n * k));
    EXPECT_EQ(bytes, static_cast<std::uint64_t>(8 * (m * k + k * n + 2 * m * n)));
  }
}

TEST(KernelCounts, SyrkAndTrsmClosedForm) {
  util::Rng rng(60);
  const index_t n = 130, k = 41, cols = 37;
  const Mat a = random_matrix(n, k, rng);
  Mat c(n, n);
  std::uint64_t bytes = 0;
  std::uint64_t flops =
      flops_of([&] { syrk_lower(1.0, a.view(), 0.0, c.view()); }, &bytes);
  EXPECT_EQ(flops, static_cast<std::uint64_t>(n * (n + 1) * k));
  EXPECT_EQ(bytes, static_cast<std::uint64_t>(8 * (n * k + n * (n + 1))));

  Mat t = make_triangular(n, Uplo::Lower, rng);
  Mat rhs = random_matrix(n, cols, rng);
  flops = flops_of(
      [&] { trsm(Side::Left, Uplo::Lower, Op::None, Diag::NonUnit, 1.0, t.view(), rhs.view()); },
      &bytes);
  EXPECT_EQ(flops, static_cast<std::uint64_t>(cols) * static_cast<std::uint64_t>(n * n));
  EXPECT_EQ(bytes, static_cast<std::uint64_t>(cols) *
                       static_cast<std::uint64_t>(8 * (n * (n + 1) / 2 + 2 * n)));

  Mat rt = make_triangular(cols, Uplo::Upper, rng);
  Mat rb = random_matrix(n, cols, rng);
  flops = flops_of(
      [&] { trsm(Side::Right, Uplo::Upper, Op::None, Diag::NonUnit, 1.0, rt.view(), rb.view()); },
      &bytes);
  EXPECT_EQ(flops, static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(cols) *
                       static_cast<std::uint64_t>(cols));
  EXPECT_EQ(bytes, static_cast<std::uint64_t>(12 * n) * static_cast<std::uint64_t>(cols) *
                           static_cast<std::uint64_t>(cols - 1) +
                       static_cast<std::uint64_t>(16 * n * cols));
}

TEST(KernelCounts, ThreadedEqualsSerialCharges) {
  // The same call, once with threading disabled and once with the threshold
  // at 1 (fans out whenever the pool has threads; on a 1-thread pool both
  // run serially, on CI's multicore runners the second genuinely threads):
  // charged totals must match exactly.
  util::Rng rng(8080);
  const index_t m = 192, n = 180, k = 96;
  const Mat a = random_matrix(m, k, rng), b = random_matrix(k, n, rng);
  Mat c1(m, n), c2(m, n);
  ConfigGuard guard;
  KernelConfig cfg = forced_packed(true);
  cfg.parallel_min_flops = std::numeric_limits<index_t>::max();
  KernelConfig::set_active(cfg);
  std::uint64_t bytes_serial = 0, bytes_threaded = 0;
  const std::uint64_t serial = flops_of(
      [&] { gemm(Op::None, Op::None, 1.0, a.view(), b.view(), 0.0, c1.view()); }, &bytes_serial);
  cfg.parallel_min_flops = 1;
  KernelConfig::set_active(cfg);
  const std::uint64_t threaded = flops_of(
      [&] { gemm(Op::None, Op::None, 1.0, a.view(), b.view(), 0.0, c2.view()); }, &bytes_threaded);
  EXPECT_EQ(serial, threaded);
  EXPECT_EQ(bytes_serial, bytes_threaded);
}

TEST(PoolCounters, MergeOnJoin) {
  // Worker-side charges must land on the caller's counters at join,
  // whatever the pool size (on one thread everything is caller-side).
  auto& pool = util::ThreadPool::global();
  const std::uint64_t f0 = util::FlopCounter::now();
  const std::uint64_t b0 = util::ByteCounter::now();
  pool.parallel_for(0, 64, [](std::size_t) {
    util::FlopCounter::charge(10);
    util::ByteCounter::charge(7);
  });
  EXPECT_EQ(util::FlopCounter::now() - f0, 640u);
  EXPECT_EQ(util::ByteCounter::now() - b0, 448u);
}

TEST(PoolCounters, NestedParallelForRunsInlineAndMerges) {
  auto& pool = util::ThreadPool::global();
  const std::uint64_t f0 = util::FlopCounter::now();
  pool.parallel_for(0, 16, [&](std::size_t) {
    // Nested dispatch must fall back to inline execution (no deadlock) and
    // its charges must still merge through the outer join.
    pool.parallel_for(0, 4, [](std::size_t) { util::FlopCounter::charge(1); });
  });
  EXPECT_EQ(util::FlopCounter::now() - f0, 64u);
}

TEST(PoolCounters, ConcurrentCallersKeepTheirOwnTotals) {
  // Two plain std::threads race parallel_for on the global pool (the simnet
  // SPMD pattern): the busy-guard serializes dispatch, and each caller must
  // observe exactly its own charges.
  auto& pool = util::ThreadPool::global();
  std::uint64_t totals[2] = {0, 0};
  std::thread t1([&] {
    const std::uint64_t f0 = util::FlopCounter::now();
    pool.parallel_for(0, 32, [](std::size_t) { util::FlopCounter::charge(3); });
    totals[0] = util::FlopCounter::now() - f0;
  });
  std::thread t2([&] {
    const std::uint64_t f0 = util::FlopCounter::now();
    pool.parallel_for(0, 32, [](std::size_t) { util::FlopCounter::charge(5); });
    totals[1] = util::FlopCounter::now() - f0;
  });
  t1.join();
  t2.join();
  EXPECT_EQ(totals[0], 96u);
  EXPECT_EQ(totals[1], 160u);
}

TEST(PoolState, InParallelRegionFlag) {
  EXPECT_FALSE(util::ThreadPool::in_parallel_region());
  auto& pool = util::ThreadPool::global();
  std::atomic<int> violations{0};
  pool.parallel_for(0, 8, [&](std::size_t) {
    if (!util::ThreadPool::in_parallel_region()) violations.fetch_add(1);
  });
  EXPECT_EQ(violations.load(), 0);
  EXPECT_FALSE(util::ThreadPool::in_parallel_region());
}

// ----- KernelConfig ---------------------------------------------------------

TEST(KernelConfigTest, EnvOverridesAndInvariants) {
  setenv("BST_KERNEL_MC", "100", 1);   // not a multiple of mr: rounded down
  setenv("BST_KERNEL_KC", "3", 1);     // below the floor of 4
  setenv("BST_KERNEL_NC", "100", 1);   // not a multiple of nr: rounded down
  setenv("BST_KERNEL_SIMD", "0", 1);
  const KernelConfig cfg = KernelConfig::from_env(KernelConfig::defaults());
  unsetenv("BST_KERNEL_MC");
  unsetenv("BST_KERNEL_KC");
  unsetenv("BST_KERNEL_NC");
  unsetenv("BST_KERNEL_SIMD");
  EXPECT_EQ(cfg.mc % kMicroRows, 0);
  EXPECT_EQ(cfg.mc, 96);
  EXPECT_GE(cfg.kc, 4);
  EXPECT_EQ(cfg.nc % kMicroCols, 0);
  EXPECT_EQ(cfg.nc, 96);
  EXPECT_FALSE(cfg.simd);
}

TEST(KernelConfigTest, TunedClampsAndRounds) {
  // Typical laptop: 32K L1d, 512K L2, 8M shared.
  const KernelConfig cfg = KernelConfig::tuned(32.0, 512.0, 8192.0);
  EXPECT_GE(cfg.kc, 64);
  EXPECT_LE(cfg.kc, 1024);
  EXPECT_EQ(cfg.mc % kMicroRows, 0);
  EXPECT_EQ(cfg.nc % kMicroCols, 0);
  // kc doubles * (mr + nr) must fit the L1 budget it was derived from.
  EXPECT_LE(static_cast<double>(cfg.kc * (kMicroRows + kMicroCols)) * 8.0, 32.0 * 1024.0);
  // Unknown levels keep the defaults.
  const KernelConfig defaults = KernelConfig::defaults();
  const KernelConfig unknown = KernelConfig::tuned(0.0, 0.0, 0.0);
  EXPECT_EQ(unknown.mc, defaults.mc);
  EXPECT_EQ(unknown.kc, defaults.kc);
  EXPECT_EQ(unknown.nc, defaults.nc);
}

TEST(KernelConfigTest, SetActiveRoundTrip) {
  ConfigGuard guard;
  KernelConfig cfg = KernelConfig::defaults();
  cfg.mc = 64;
  cfg.kc = 32;
  KernelConfig::set_active(cfg);
  EXPECT_EQ(KernelConfig::active().mc, 64);
  EXPECT_EQ(KernelConfig::active().kc, 32);
}

}  // namespace
}  // namespace bst::la
