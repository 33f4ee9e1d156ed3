// Tests for the batched solver service: factor cache (keying, LRU-by-bytes
// eviction, thundering-herd coalescing), sync/async solve paths, bitwise
// determinism of concurrent submission, the panel-blocked multi-RHS solve,
// env-knob parsing, and the util::Metrics named-counter facility the
// service reports through.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/schur.h"
#include "core/solve.h"
#include "service/cache.h"
#include "service/service.h"
#include "toeplitz/generators.h"
#include "util/metrics.h"

namespace bst {
namespace {

using service::FactorCache;
using service::Service;
using service::ServiceOptions;
using service::SolveResult;
using toeplitz::BlockToeplitz;

double max_err_vs_ones(const std::vector<double>& x) {
  double e = 0.0;
  for (double v : x) e = std::max(e, std::fabs(v - 1.0));
  return e;
}

// ---------------------------------------------------------------- cache key

TEST(ProblemKey, SameProblemSameKey) {
  BlockToeplitz a = toeplitz::kms(24, 0.5);
  BlockToeplitz b = toeplitz::kms(24, 0.5);
  core::SchurOptions opt;
  EXPECT_EQ(service::problem_key(a, opt), service::problem_key(b, opt));
}

TEST(ProblemKey, MatrixContentChangesKey) {
  core::SchurOptions opt;
  EXPECT_NE(service::problem_key(toeplitz::kms(24, 0.5), opt),
            service::problem_key(toeplitz::kms(24, 0.6), opt));
  EXPECT_NE(service::problem_key(toeplitz::kms(24, 0.5), opt),
            service::problem_key(toeplitz::kms(32, 0.5), opt));
}

TEST(ProblemKey, NumericalOptionsChangeKey) {
  BlockToeplitz t = toeplitz::kms(24, 0.5);
  core::SchurOptions a;
  core::SchurOptions b;
  b.block_size = a.block_size + 1;
  EXPECT_NE(service::problem_key(t, a), service::problem_key(t, b));
  core::SchurOptions c;
  c.breakdown_tol = 1e-3;
  EXPECT_NE(service::problem_key(t, a), service::problem_key(t, c));
}

// ------------------------------------------------------------- FactorCache

core::SchurFactor factor_of(const BlockToeplitz& t) {
  return core::block_schur_factor(t, core::SchurOptions{});
}

TEST(FactorCache, HitOnSecondLookup) {
  FactorCache cache(64ull << 20);
  BlockToeplitz t = toeplitz::kms(16, 0.4);
  const std::string key = service::problem_key(t, core::SchurOptions{});
  bool hit = true;
  auto f1 = cache.get_or_factor(key, [&] { return factor_of(t); }, &hit);
  EXPECT_FALSE(hit);
  auto f2 = cache.get_or_factor(key, [&] { return factor_of(t); }, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(f1.get(), f2.get());  // same cached object, not a refactor
  const service::CacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.entries, 1u);
  EXPECT_GT(s.resident_bytes, 0u);
  EXPECT_DOUBLE_EQ(s.hit_rate(), 0.5);
}

TEST(FactorCache, DifferentKeysMiss) {
  FactorCache cache(64ull << 20);
  BlockToeplitz a = toeplitz::kms(16, 0.4);
  BlockToeplitz b = toeplitz::kms(16, 0.7);
  core::SchurOptions opt;
  cache.get_or_factor(service::problem_key(a, opt), [&] { return factor_of(a); });
  cache.get_or_factor(service::problem_key(b, opt), [&] { return factor_of(b); });
  const service::CacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.entries, 2u);
}

TEST(FactorCache, LruEvictionUnderByteBudget) {
  // An n x n factor is n^2 doubles; budget two 16x16 factors, insert three.
  const std::size_t one = 16 * 16 * sizeof(double) + sizeof(core::SchurFactor);
  FactorCache cache(2 * one + one / 2);
  core::SchurOptions opt;
  BlockToeplitz a = toeplitz::kms(16, 0.3);
  BlockToeplitz b = toeplitz::kms(16, 0.5);
  BlockToeplitz c = toeplitz::kms(16, 0.7);
  const std::string ka = service::problem_key(a, opt);
  const std::string kb = service::problem_key(b, opt);
  const std::string kc = service::problem_key(c, opt);
  cache.get_or_factor(ka, [&] { return factor_of(a); });
  cache.get_or_factor(kb, [&] { return factor_of(b); });
  // Touch `a` so `b` is the LRU victim when `c` lands.
  cache.get_or_factor(ka, [&] { return factor_of(a); });
  cache.get_or_factor(kc, [&] { return factor_of(c); });
  EXPECT_TRUE(cache.contains(ka));
  EXPECT_FALSE(cache.contains(kb));
  EXPECT_TRUE(cache.contains(kc));
  const service::CacheStats s = cache.stats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.entries, 2u);
  EXPECT_LE(s.resident_bytes, cache.max_bytes());
}

TEST(FactorCache, OversizedEntryStillCaches) {
  // A single factor above the budget caches anyway (and evicts the rest).
  FactorCache cache(1);
  BlockToeplitz t = toeplitz::kms(12, 0.4);
  const std::string key = service::problem_key(t, core::SchurOptions{});
  cache.get_or_factor(key, [&] { return factor_of(t); });
  EXPECT_TRUE(cache.contains(key));
  bool hit = false;
  cache.get_or_factor(key, [&] { return factor_of(t); }, &hit);
  EXPECT_TRUE(hit);
}

TEST(FactorCache, ConcurrentMissesFactorOnce) {
  FactorCache cache(64ull << 20);
  BlockToeplitz t = toeplitz::kms(32, 0.5);
  const std::string key = service::problem_key(t, core::SchurOptions{});
  std::atomic<int> factories{0};
  auto factory = [&] {
    ++factories;
    return factor_of(t);
  };
  std::vector<std::thread> threads;
  std::vector<service::FactorPtr> got(8);
  threads.reserve(got.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    threads.emplace_back([&, i] { got[i] = cache.get_or_factor(key, factory); });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(factories.load(), 1);
  for (const auto& f : got) EXPECT_EQ(f.get(), got.front().get());
}

TEST(FactorCache, ThrowingFactoryPropagatesAndLeavesNoEntry) {
  FactorCache cache(64ull << 20);
  BlockToeplitz bad = toeplitz::random_indefinite(12, 3, /*diag=*/1.2);
  const std::string key = service::problem_key(bad, core::SchurOptions{});
  EXPECT_THROW(cache.get_or_factor(key, [&] { return factor_of(bad); }),
               core::NotPositiveDefinite);
  EXPECT_FALSE(cache.contains(key));
  EXPECT_EQ(cache.stats().entries, 0u);
}

// --------------------------------------------------------- panel-block solve

TEST(SolvePanels, MatchesMultiForAnyPanelWidth) {
  BlockToeplitz t = toeplitz::kms(48, 0.5);
  core::SchurFactor f = factor_of(t);
  const la::index_t n = t.order(), k = 11;
  la::Mat b(n, k);
  for (la::index_t j = 0; j < k; ++j) {
    for (la::index_t i = 0; i < n; ++i) b.view().col(j)[i] = std::sin(0.1 * (i + 3 * j) + 1.0);
  }
  la::Mat ref = b;
  core::solve_rtdr_multi(f.r.view(), nullptr, ref.view());
  for (la::index_t panel : {1, 3, 4, 11, 64}) {
    for (bool parallel : {false, true}) {
      la::Mat x = b;
      core::solve_rtdr_panels(f.r.view(), nullptr, x.view(), panel, parallel);
      double err = 0.0;
      for (la::index_t j = 0; j < k; ++j) {
        for (la::index_t i = 0; i < n; ++i) {
          err = std::max(err, std::fabs(x.view().col(j)[i] - ref.view().col(j)[i]));
        }
      }
      EXPECT_LT(err, 1e-12) << "panel=" << panel << " parallel=" << parallel;
    }
  }
}

TEST(SolvePanels, ParallelBitwiseMatchesSerialAtFixedPanel) {
  BlockToeplitz t = toeplitz::kms(96, 0.6);
  core::SchurFactor f = factor_of(t);
  const la::index_t n = t.order(), k = 40, panel = 8;
  la::Mat b(n, k);
  for (la::index_t i = 0; i < n * k; ++i) b.data()[i] = std::cos(0.01 * i);
  la::Mat serial = b, parallel = b;
  core::solve_rtdr_panels(f.r.view(), nullptr, serial.view(), panel, false);
  core::solve_rtdr_panels(f.r.view(), nullptr, parallel.view(), panel, true);
  EXPECT_EQ(0, std::memcmp(serial.data(), parallel.data(),
                           static_cast<std::size_t>(n * k) * sizeof(double)));
}

// ------------------------------------------------------------------ Service

ServiceOptions small_opts() {
  ServiceOptions o;
  o.cache_bytes = 64ull << 20;
  return o;
}

TEST(Service, SolveHitsCacheOnRepeat) {
  Service svc(small_opts());
  BlockToeplitz t = toeplitz::kms(32, 0.5);
  std::vector<double> b = toeplitz::rhs_for_ones(t);
  SolveResult r1 = svc.solve(t, b);
  EXPECT_FALSE(r1.cache_hit);
  EXPECT_LT(max_err_vs_ones(r1.x), 1e-10);
  SolveResult r2 = svc.solve(t, b);
  EXPECT_TRUE(r2.cache_hit);
  EXPECT_EQ(r1.x, r2.x);  // bitwise: same factor, same panel shape
  const service::ServiceStats s = svc.stats();
  EXPECT_EQ(s.cache.hits, 1u);
  EXPECT_EQ(s.cache.misses, 1u);
  EXPECT_EQ(s.submitted, 2u);
  EXPECT_EQ(s.completed, 2u);
}

TEST(Service, DifferentProblemsMiss) {
  Service svc(small_opts());
  BlockToeplitz a = toeplitz::kms(24, 0.4);
  BlockToeplitz c = toeplitz::kms(24, 0.8);
  svc.solve(a, toeplitz::rhs_for_ones(a));
  svc.solve(c, toeplitz::rhs_for_ones(c));
  EXPECT_EQ(svc.stats().cache.misses, 2u);
  EXPECT_EQ(svc.stats().cache.hits, 0u);
}

TEST(Service, SolveManyMatchesSingleSolvesBitwise) {
  Service svc(small_opts());
  BlockToeplitz t = toeplitz::kms(40, 0.5);
  const la::index_t n = t.order(), k = 7;
  la::Mat b(n, k);
  for (la::index_t i = 0; i < n * k; ++i) b.data()[i] = std::sin(0.05 * i);
  la::Mat x = svc.solve_many(t, b.view());
  for (la::index_t j = 0; j < k; ++j) {
    std::vector<double> bj(b.view().col(j), b.view().col(j) + n);
    SolveResult r = svc.solve(t, bj);
    EXPECT_EQ(0, std::memcmp(r.x.data(), x.view().col(j),
                             static_cast<std::size_t>(n) * sizeof(double)))
        << "column " << j;
  }
}

TEST(Service, ConcurrentSubmitBitwiseIdenticalToSerial) {
  BlockToeplitz t = toeplitz::kms(64, 0.5);
  const la::index_t n = t.order();
  const int kReqs = 48;
  std::vector<std::vector<double>> rhs(kReqs);
  for (int r = 0; r < kReqs; ++r) {
    rhs[r].resize(static_cast<std::size_t>(n));
    for (la::index_t i = 0; i < n; ++i) {
      rhs[r][static_cast<std::size_t>(i)] = std::sin(0.02 * i + 0.3 * r);
    }
  }
  // Serial reference: one synchronous service, request at a time.
  std::vector<std::vector<double>> want(kReqs);
  {
    Service ref(small_opts());
    for (int r = 0; r < kReqs; ++r) want[r] = ref.solve(t, rhs[r]).x;
  }
  // Concurrent: many submitter threads racing into the batching dispatcher.
  Service svc(small_opts());
  std::vector<std::future<SolveResult>> futs(kReqs);
  {
    std::vector<std::thread> threads;
    threads.reserve(4);
    for (int w = 0; w < 4; ++w) {
      threads.emplace_back([&, w] {
        for (int r = w; r < kReqs; r += 4) futs[r] = svc.submit(t, rhs[r]);
      });
    }
    for (auto& th : threads) th.join();
  }
  std::uint64_t batched = 0;
  for (int r = 0; r < kReqs; ++r) {
    SolveResult res = futs[static_cast<std::size_t>(r)].get();
    ASSERT_EQ(res.x.size(), want[r].size());
    EXPECT_EQ(0, std::memcmp(res.x.data(), want[r].data(),
                             res.x.size() * sizeof(double)))
        << "request " << r;
    batched = std::max<std::uint64_t>(batched, static_cast<std::uint64_t>(res.batch_cols));
  }
  svc.drain();
  const service::ServiceStats s = svc.stats();
  EXPECT_EQ(s.completed, static_cast<std::uint64_t>(kReqs));
  EXPECT_GE(s.batches, 1u);
  EXPECT_LE(s.cache.misses, 1u + 0u);  // one factorization serves everything
}

// The bitwise tests above run at orders <= 96, where the trsm never
// reaches a gemm update.  At order 512 its updates run on both sides of
// the packing crossover, so this is where a column's bits could depend on
// how many columns rode along with it or on the panel width.
TEST(Service, RealisticOrderBitsIndependentOfBatchingAndPanel) {
  const BlockToeplitz t = toeplitz::random_spd_block(8, 64, 4, 11);
  const la::index_t n = t.order();
  ASSERT_GE(n, 512);
  const int kReqs = 12;
  std::vector<std::vector<double>> rhs(kReqs);
  for (int r = 0; r < kReqs; ++r) {
    rhs[r].resize(static_cast<std::size_t>(n));
    for (la::index_t i = 0; i < n; ++i) {
      rhs[r][static_cast<std::size_t>(i)] = std::sin(0.013 * i + 0.7 * r);
    }
  }
  ServiceOptions wide = small_opts(), narrow = small_opts();
  wide.rhs_panel = 32;
  narrow.rhs_panel = 1;
  Service svc(wide), svc1(narrow);
  const std::size_t bytes = static_cast<std::size_t>(n) * sizeof(double);

  std::vector<std::vector<double>> want(kReqs);
  for (int r = 0; r < kReqs; ++r) want[r] = svc.solve(t, rhs[r]).x;

  la::Mat b3(n, 3);
  for (la::index_t j = 0; j < 3; ++j) std::copy(rhs[j].begin(), rhs[j].end(), b3.view().col(j));
  const la::Mat x3 = svc.solve_many(t, b3.view());
  for (la::index_t j = 0; j < 3; ++j) {
    EXPECT_EQ(0, std::memcmp(x3.view().col(j), want[j].data(), bytes)) << "solve_many col " << j;
  }

  std::vector<std::future<SolveResult>> futs(kReqs);
  {
    std::vector<std::thread> threads;
    for (int w = 0; w < 4; ++w) {
      threads.emplace_back([&, w] {
        for (int r = w; r < kReqs; r += 4) futs[r] = svc.submit(t, rhs[r]);
      });
    }
    for (auto& th : threads) th.join();
  }
  for (int r = 0; r < kReqs; ++r) {
    EXPECT_EQ(0, std::memcmp(futs[r].get().x.data(), want[r].data(), bytes)) << "submit " << r;
  }

  la::Mat ball(n, kReqs);
  for (la::index_t j = 0; j < kReqs; ++j) {
    std::copy(rhs[j].begin(), rhs[j].end(), ball.view().col(j));
  }
  const la::Mat x1 = svc1.solve_many(t, ball.view());
  for (int r = 0; r < kReqs; ++r) {
    EXPECT_EQ(0, std::memcmp(x1.view().col(r), want[r].data(), bytes)) << "panel 1 col " << r;
    EXPECT_EQ(0, std::memcmp(svc1.solve(t, rhs[r]).x.data(), want[r].data(), bytes))
        << "panel 1 solve " << r;
  }
}

TEST(Service, SubmitPropagatesFactorizationFailure) {
  Service svc(small_opts());
  BlockToeplitz bad = toeplitz::random_indefinite(12, 3, /*diag=*/1.2);
  std::vector<double> b(static_cast<std::size_t>(bad.order()), 1.0);
  std::future<SolveResult> fut = svc.submit(bad, b);
  EXPECT_THROW(fut.get(), core::NotPositiveDefinite);
  EXPECT_THROW(svc.solve(bad, b), core::NotPositiveDefinite);
}

TEST(Service, RhsSizeMismatchThrows) {
  Service svc(small_opts());
  BlockToeplitz t = toeplitz::kms(16, 0.5);
  std::vector<double> shorter(7, 1.0);
  EXPECT_THROW(svc.solve(t, shorter), std::invalid_argument);
  EXPECT_THROW(svc.submit(t, shorter), std::invalid_argument);
}

TEST(Service, NoCacheModeAlwaysMisses) {
  ServiceOptions o = small_opts();
  o.cache_enabled = false;
  Service svc(o);
  BlockToeplitz t = toeplitz::kms(24, 0.5);
  std::vector<double> b = toeplitz::rhs_for_ones(t);
  EXPECT_FALSE(svc.solve(t, b).cache_hit);
  EXPECT_FALSE(svc.solve(t, b).cache_hit);
  EXPECT_EQ(svc.stats().cache.hits, 0u);
  EXPECT_EQ(svc.stats().cache.misses, 0u);  // cache never consulted
}

TEST(Service, TrySubmitAdmitsWhenQueueHasRoom) {
  Service svc(small_opts());
  BlockToeplitz t = toeplitz::kms(24, 0.5);
  std::future<SolveResult> fut;
  ASSERT_TRUE(svc.try_submit(t, toeplitz::rhs_for_ones(t), fut));
  EXPECT_LT(max_err_vs_ones(fut.get().x), 1e-10);
  EXPECT_EQ(svc.stats().rejected, 0u);
}

TEST(Service, StatsJsonHasAllSections) {
  Service svc(small_opts());
  BlockToeplitz t = toeplitz::kms(16, 0.5);
  svc.solve(t, toeplitz::rhs_for_ones(t));
  const std::string json = svc.stats_json().dump_compact();
  for (const char* key : {"\"cache\"", "\"queue\"", "\"batch\"", "\"hits\"", "\"misses\"",
                          "\"evictions\"", "\"hit_rate\"", "\"capacity\"", "\"rejected\"",
                          "\"rhs_panel\"", "\"refine\"", "\"sweeps\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " missing from " << json;
  }
}

// ---------------------------------------------------------------- refinement

TEST(Service, RefinementImprovesResidualAndReportsPath) {
  BlockToeplitz t = toeplitz::kms(96, 0.9);
  const std::vector<double> b = toeplitz::rhs_for_ones(t);
  ServiceOptions off = small_opts();
  Service plain(off);
  const SolveResult r0 = plain.solve(t, b);
  EXPECT_EQ(r0.solver_path, "schur");
  EXPECT_EQ(r0.refine_steps, 0);
  EXPECT_EQ(plain.stats().refine_sweeps, 0u);

  ServiceOptions on = small_opts();
  on.refine_steps = 2;
  Service refined(on);
  const SolveResult r1 = refined.solve(t, b);
  EXPECT_EQ(r1.solver_path, "schur+refine");
  EXPECT_EQ(r1.refine_steps, 2);
  EXPECT_EQ(refined.stats().refine_sweeps, 2u);
  // Refinement must not make the answer worse, and on this conditioning it
  // should land at (or below) the unrefined error.
  EXPECT_LE(max_err_vs_ones(r1.x), max_err_vs_ones(r0.x) + 1e-14);
  EXPECT_LT(max_err_vs_ones(r1.x), 1e-10);
}

TEST(Service, RefinedAsyncMatchesRefinedSyncBitwise) {
  ServiceOptions opt = small_opts();
  opt.refine_steps = 1;
  BlockToeplitz t = toeplitz::kms(32, 0.5);
  const std::vector<double> b = toeplitz::rhs_for_ones(t);
  Service sync_svc(opt);
  const std::vector<double> want = sync_svc.solve(t, b).x;
  Service async_svc(opt);
  std::future<SolveResult> fut = async_svc.submit(t, b);
  const SolveResult res = fut.get();
  EXPECT_EQ(res.solver_path, "schur+refine");
  ASSERT_EQ(res.x.size(), want.size());
  EXPECT_EQ(std::memcmp(res.x.data(), want.data(), want.size() * sizeof(double)), 0);
}

// ---------------------------------------------------------------- env knobs

TEST(ServiceOptions, FromEnvOverridesAndClamps) {
  setenv("BST_SERVICE_CACHE_BYTES", "1048576", 1);
  setenv("BST_SERVICE_QUEUE", "7", 1);
  setenv("BST_SERVICE_BATCH", "3", 1);
  setenv("BST_SERVICE_PANEL", "0", 1);  // clamped to 1
  setenv("BST_SERVICE_NOCACHE", "1", 1);
  setenv("BST_SERVICE_REFINE", "2", 1);
  ServiceOptions o = ServiceOptions::from_env();
  EXPECT_EQ(o.cache_bytes, 1048576u);
  EXPECT_EQ(o.queue_capacity, 7u);
  EXPECT_EQ(o.max_batch, 3);
  EXPECT_EQ(o.rhs_panel, 1);
  EXPECT_FALSE(o.cache_enabled);
  EXPECT_EQ(o.refine_steps, 2);
  setenv("BST_SERVICE_NOCACHE", "0", 1);
  EXPECT_TRUE(ServiceOptions::from_env().cache_enabled);
  for (const char* v : {"BST_SERVICE_CACHE_BYTES", "BST_SERVICE_QUEUE", "BST_SERVICE_BATCH",
                        "BST_SERVICE_PANEL", "BST_SERVICE_NOCACHE", "BST_SERVICE_REFINE"}) {
    unsetenv(v);
  }
  ServiceOptions d = ServiceOptions::from_env();
  EXPECT_EQ(d.cache_bytes, ServiceOptions{}.cache_bytes);
  EXPECT_TRUE(d.cache_enabled);
  EXPECT_EQ(d.refine_steps, 0);
}

TEST(ServiceOptions, FromEnvRejectsMalformedAndNegative) {
  // strtoull would wrap "-1" to 2^64-1 (no backpressure) and "-5" to an
  // unbounded cache, and read "32x" as 32: each must be refused instead.
  for (const auto& [var, value] : {std::pair{"BST_SERVICE_QUEUE", "-1"},
                                   std::pair{"BST_SERVICE_CACHE_BYTES", "-5"},
                                   std::pair{"BST_SERVICE_PANEL", "32x"},
                                   std::pair{"BST_SERVICE_BATCH", " 8"},
                                   std::pair{"BST_SERVICE_REFINE", "one"},
                                   std::pair{"BST_SERVICE_REFINE", "4294967298"},
                                   std::pair{"BST_SERVICE_SLOW_MS", "-3"},
                                   std::pair{"BST_SERVICE_SLOW_MS", "7.5ms"},
                                   std::pair{"BST_SERVICE_TRACE_REQS", "99999999999999999999"}}) {
    setenv(var, value, 1);
    try {
      (void)ServiceOptions::from_env();
      ADD_FAILURE() << var << "=" << value << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(var), std::string::npos) << e.what();
    }
    unsetenv(var);
  }
  EXPECT_EQ(ServiceOptions::from_env().queue_capacity, ServiceOptions{}.queue_capacity);
}

// ---------------------------------------------------------- metric counters

TEST(MetricsCounters, InternAddAndSnapshot) {
  const util::CtrId id = util::Metrics::counter("test_service_ctr");
  EXPECT_EQ(id, util::Metrics::counter("test_service_ctr"));  // interned
  const std::uint64_t before = util::Metrics::counter_value(id);
  util::Metrics::add(id);
  util::Metrics::add(id, 41);
  EXPECT_EQ(util::Metrics::counter_value(id), before + 42);
  bool found = false;
  for (const util::CounterStats& c : util::Metrics::counters_snapshot()) {
    if (c.name == "test_service_ctr") {
      found = true;
      EXPECT_GE(c.value, 42u);
    }
  }
  EXPECT_TRUE(found);
}

// ------------------------------------------------- per-request observability

TEST(Service, RequestIdsAreMonotoneAndNonzero) {
  Service svc(small_opts());
  BlockToeplitz t = toeplitz::kms(24, 0.5);
  std::vector<double> b = toeplitz::rhs_for_ones(t);
  const SolveResult r1 = svc.solve(t, b);
  const SolveResult r2 = svc.solve(t, b);
  auto fut = svc.submit(t, b);
  const SolveResult r3 = fut.get();
  EXPECT_GT(r1.req_id, 0u);
  EXPECT_GT(r2.req_id, r1.req_id);
  EXPECT_GT(r3.req_id, r2.req_id);
}

TEST(Service, SolveResultCarriesPhaseTimings) {
  Service svc(small_opts());
  BlockToeplitz t = toeplitz::kms(32, 0.5);
  std::vector<double> b = toeplitz::rhs_for_ones(t);
  const SolveResult miss = svc.solve(t, b);
  EXPECT_FALSE(miss.cache_hit);
  EXPECT_GT(miss.factor_ns, 0u);  // a miss pays the factorization
  EXPECT_GT(miss.solve_ns, 0u);
  const SolveResult hit = svc.solve(t, b);
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_GT(hit.solve_ns, 0u);
  // Async requests additionally report their admission-to-dispatch wait.
  auto fut = svc.submit(t, b);
  const SolveResult async = fut.get();
  EXPECT_GT(async.done_ns, 0u);
  EXPECT_GT(async.req_id, 0u);
}

std::uint64_t latency_samples() {
  for (const util::HistogramStats& h : util::Metrics::snapshot()) {
    if (h.name == "service_request_ns") return h.count;
  }
  return 0;
}

// solve, solve_many and submit are doors into one request pipeline: the
// same answer bits, the same accounting per request, one id per call.
TEST(Service, EveryDoorSameAnswerAccountingAndIds) {
  Service svc(small_opts());
  BlockToeplitz t = toeplitz::kms(40, 0.5);
  const la::index_t n = t.order();
  la::Mat b(n, 3);
  for (la::index_t i = 0; i < n * 3; ++i) b.data()[i] = std::sin(0.07 * i);
  const std::vector<double> b0(b.view().col(0), b.view().col(0) + n);
  const std::uint64_t warm_id = svc.solve(t, b0).req_id;  // every door below hits

  struct Counts {
    std::uint64_t submitted, completed, batches, samples;
  };
  auto counts = [&] {
    svc.drain();
    const service::ServiceStats s = svc.stats();
    return Counts{s.submitted, s.completed, s.batches, latency_samples()};
  };
  auto expect_delta = [](const Counts& a, const Counts& z, std::uint64_t reqs,
                         std::uint64_t samples, const char* door) {
    EXPECT_EQ(z.submitted - a.submitted, reqs) << door;
    EXPECT_EQ(z.completed - a.completed, reqs) << door;
    EXPECT_EQ(z.batches - a.batches, 1u) << door;
    EXPECT_EQ(z.samples - a.samples, samples) << door;
  };
  auto same_bits = [n](const double* x, const std::vector<double>& want) {
    return std::memcmp(x, want.data(), static_cast<std::size_t>(n) * sizeof(double)) == 0;
  };

  Counts c0 = counts();
  const SolveResult r = svc.solve(t, b0);
  Counts c1 = counts();
  expect_delta(c0, c1, 1, 1, "solve");
  EXPECT_TRUE(r.cache_hit);

  const la::Mat x1 = svc.solve_many(t, b.block(0, 0, n, 1));
  Counts c2 = counts();
  expect_delta(c1, c2, 1, 1, "solve_many k=1");
  EXPECT_TRUE(same_bits(x1.data(), r.x));

  const la::Mat x3 = svc.solve_many(t, b.view());
  Counts c3 = counts();
  expect_delta(c2, c3, 3, 1, "solve_many k=3");  // one latency sample per call
  EXPECT_TRUE(same_bits(x3.data(), r.x));

  const SolveResult a = svc.submit(t, b0).get();
  Counts c4 = counts();
  expect_delta(c3, c4, 1, 1, "submit");
  EXPECT_TRUE(same_bits(a.x.data(), r.x));

  // Every call mints exactly one id, in call order (solve_many's included).
  EXPECT_EQ(r.req_id, warm_id + 1);
  EXPECT_EQ(a.req_id, r.req_id + 3);
  EXPECT_GT(svc.solve(t, b0).req_id, a.req_id);
}

TEST(Service, SlowRequestsCountedAgainstThreshold) {
  ServiceOptions o = small_opts();
  o.slow_ms = 1e-6;  // ~1 ns threshold: everything is "slow" (0 disables)
  Service svc(o);
  BlockToeplitz t = toeplitz::kms(24, 0.5);
  svc.solve(t, toeplitz::rhs_for_ones(t));
  EXPECT_EQ(svc.stats().slow, 1u);
  const std::string json = svc.stats_json().dump_compact();
  EXPECT_NE(json.find("\"slow\""), std::string::npos) << json;

  ServiceOptions fast = small_opts();
  fast.slow_ms = 1e9;  // nothing is slow
  Service svc2(fast);
  svc2.solve(t, toeplitz::rhs_for_ones(t));
  EXPECT_EQ(svc2.stats().slow, 0u);
}

TEST(Service, GaugesTrackCacheAndQueueState) {
  const util::GaugeId resident = util::Metrics::gauge("service_cache_resident_bytes");
  const util::GaugeId depth = util::Metrics::gauge("service_queue_depth");
  Service svc(small_opts());
  BlockToeplitz t = toeplitz::kms(32, 0.5);
  svc.solve(t, toeplitz::rhs_for_ones(t));
  EXPECT_GT(util::Metrics::gauge_value(resident), 0);  // the factor is resident
  svc.drain();
  EXPECT_EQ(util::Metrics::gauge_value(depth), 0);  // drained queue reads empty
}

TEST(ServiceOptions, SlowAndTraceKnobsFromEnv) {
  setenv("BST_SERVICE_SLOW_MS", "7.5", 1);
  setenv("BST_SERVICE_TRACE_REQS", "3", 1);
  const ServiceOptions o = ServiceOptions::from_env();
  EXPECT_NEAR(o.slow_ms, 7.5, 1e-12);
  EXPECT_EQ(o.trace_requests, 3u);
  unsetenv("BST_SERVICE_SLOW_MS");
  unsetenv("BST_SERVICE_TRACE_REQS");
  EXPECT_NEAR(ServiceOptions::from_env().slow_ms, ServiceOptions{}.slow_ms, 1e-12);
}

TEST(MetricsCounters, ServiceCountersAccumulate) {
  const util::CtrId hits = util::Metrics::counter("service_cache_hits");
  const util::CtrId misses = util::Metrics::counter("service_cache_misses");
  const std::uint64_t h0 = util::Metrics::counter_value(hits);
  const std::uint64_t m0 = util::Metrics::counter_value(misses);
  Service svc(small_opts());
  BlockToeplitz t = toeplitz::kms(16, 0.5);
  std::vector<double> b = toeplitz::rhs_for_ones(t);
  svc.solve(t, b);
  svc.solve(t, b);
  EXPECT_EQ(util::Metrics::counter_value(hits), h0 + 1);
  EXPECT_EQ(util::Metrics::counter_value(misses), m0 + 1);
}

}  // namespace
}  // namespace bst
