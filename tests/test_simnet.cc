// Tests for the distributed-memory simulation: machine cost model,
// layout/owner maps, distributed factorization correctness (every layout
// really runs on distributed storage) and the qualitative tradeoffs of
// section 7.
#include <gtest/gtest.h>

#include <cstring>

#include "core/schur.h"
#include "simnet/dist_schur.h"
#include "simnet/machine.h"
#include "toeplitz/generators.h"

namespace bst::simnet {
namespace {

bool same_bits(const la::Mat& a, const la::Mat& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.rows() * a.cols()) * sizeof(double)) == 0;
}

TEST(Machine, ComputeAdvancesClock) {
  Machine m(2, MachineParams{.flop_rate = 100.0, .latency = 0.0, .bandwidth = 1e9});
  m.compute(0, 200.0);
  EXPECT_DOUBLE_EQ(m.time(), 2.0);
  EXPECT_DOUBLE_EQ(m.breakdown().compute, 2.0);
}

TEST(Machine, PutSynchronizesReceiver) {
  MachineParams p;
  p.flop_rate = 1.0;
  p.latency = 1.0;
  p.bandwidth = 8.0;  // 1 second per 8 bytes
  Machine m(2, p);
  m.compute(0, 5.0);           // PE0 at t=5
  m.put(0, 1, 8.0);            // arrives at 5 + 1 + 1 = 7
  EXPECT_DOUBLE_EQ(m.time(), 7.0);
}

TEST(Machine, BroadcastReachesEveryone) {
  MachineParams p;
  p.latency = 1.0;
  p.bandwidth = 1e18;
  Machine m(8, p);
  m.compute(3, 0.0);
  m.broadcast(3, 0.0);
  // log2(8) = 3 hops of 1 second latency.
  EXPECT_DOUBLE_EQ(m.time(), 3.0);
}

TEST(Machine, BarrierAlignsClocksAndCountsIdle) {
  MachineParams p;
  p.flop_rate = 1.0;
  p.barrier_hop = 0.0;
  Machine m(2, p);
  m.compute(0, 10.0);
  m.barrier();
  EXPECT_DOUBLE_EQ(m.time(), 10.0);
  EXPECT_DOUBLE_EQ(m.breakdown().barrier, 10.0);  // PE1 idled 10 seconds
}

TEST(Machine, SelfPutIsFree) {
  Machine m(2, MachineParams{});
  m.put(0, 0, 1e9);
  EXPECT_DOUBLE_EQ(m.time(), 0.0);
}

TEST(RepresentationBytes, YtyIsSmallest) {
  for (core::index_t m : {2, 4, 8, 32}) {
    const double u = representation_bytes(core::Representation::AccumulatedU, m);
    const double vy = representation_bytes(core::Representation::VY2, m);
    const double yty = representation_bytes(core::Representation::YTY, m);
    // Paper section 6.5: the YTY form needs about half the storage /
    // communication volume of the other methods (U and VY are both 4m^2).
    EXPECT_LT(yty, vy) << m;
    EXPECT_LE(vy, u) << m;
    // ~ (2m^2 + m^2/2) / 4m^2 = 0.625, approaching 0.5 as the triangular
    // T block becomes negligible.
    EXPECT_GE(yty / vy, 0.5) << m;
    EXPECT_LE(yty / vy, 0.72) << m;
  }
}

class DistCorrectness : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

// (layout, np, group or spread): 0 = V1, 1 = V2 with `group`, 2 = V3 with
// `spread`.
TEST_P(DistCorrectness, DistributedFactorEqualsSequential) {
  const auto [layouti, np, k] = GetParam();
  const Layout layout = layouti == 0 ? Layout::V1 : layouti == 1 ? Layout::V2 : Layout::V3;
  // V3 splits each block over `spread` PEs, so its block size is a multiple.
  toeplitz::BlockToeplitz t =
      toeplitz::random_spd_block(layout == Layout::V3 ? 4 : 3, 12, 2, 99);
  core::SchurFactor seq = core::block_schur_factor(t);

  DistOptions opt;
  opt.layout = layout;
  opt.np = np;
  if (layout == Layout::V3) {
    opt.spread = k;
  } else {
    opt.group = k;
  }
  DistResult res = dist_schur_factor(t, opt, /*want_factor=*/true);
  ASSERT_TRUE(res.r.has_value());
  EXPECT_TRUE(same_bits(*res.r, seq.r));
  EXPECT_GT(res.sim_seconds, 0.0);
}

INSTANTIATE_TEST_SUITE_P(LayoutsAndSizes, DistCorrectness,
                         ::testing::Combine(::testing::Values(0, 1), ::testing::Values(1, 2, 4, 8),
                                            ::testing::Values(1, 2, 3)));
INSTANTIATE_TEST_SUITE_P(SplitLayout, DistCorrectness,
                         ::testing::Combine(::testing::Values(2), ::testing::Values(4, 8),
                                            ::testing::Values(2, 4)));

TEST(DistSchur, V3NumericPathMatchesSequential) {
  toeplitz::BlockToeplitz t = toeplitz::random_spd_block(2, 4, 1, 1);
  DistOptions opt;
  opt.layout = Layout::V3;
  opt.np = 4;
  opt.spread = 2;
  const DistResult with = dist_schur_factor(t, opt, /*want_factor=*/true);
  ASSERT_TRUE(with.r.has_value());
  EXPECT_TRUE(same_bits(*with.r, core::block_schur_factor(t).r));
  const DistResult without = dist_schur_factor(t, opt, /*want_factor=*/false);
  EXPECT_FALSE(without.r.has_value());
  // The clocks come from the cost model either way.
  EXPECT_EQ(with.sim_seconds, without.sim_seconds);
  // Slices must be whole columns: spread 2 cannot split m = 3.
  EXPECT_THROW(dist_schur_factor(toeplitz::random_spd_block(3, 4, 1, 1), opt, true),
               std::invalid_argument);
}

TEST(DistSchur, InvalidOptionsRejected) {
  DistOptions opt;
  opt.np = 0;
  EXPECT_THROW(dist_schur_model(1, 8, opt), std::invalid_argument);
  opt.np = 4;
  opt.layout = Layout::V3;
  opt.spread = 3;  // does not divide np
  EXPECT_THROW(dist_schur_model(1, 8, opt), std::invalid_argument);
}

TEST(DistSchur, ModelIsDeterministic) {
  DistOptions opt;
  opt.np = 16;
  const DistResult a = dist_schur_model(1, 512, opt);
  const DistResult b = dist_schur_model(1, 512, opt);
  EXPECT_DOUBLE_EQ(a.sim_seconds, b.sim_seconds);
  EXPECT_EQ(a.steps, 511);
}

TEST(DistSchur, GroupingReducesShiftTraffic) {
  // Paper section 7.1.2: V2's shift volume drops by the group factor.
  DistOptions v1;
  v1.np = 16;
  DistOptions v2 = v1;
  v2.layout = Layout::V2;
  v2.group = 8;
  const DistResult r1 = dist_schur_model(1, 1024, v1);
  const DistResult r2 = dist_schur_model(1, 1024, v2);
  EXPECT_LT(r2.breakdown.shift, r1.breakdown.shift * 0.5);
}

TEST(DistSchur, Fig6ShapeSharpFallThenRise) {
  // 4096-point scalar matrix on 16 PEs: time falls with b then rises
  // (paper Fig. 6; best around b = 16).
  DistOptions opt;
  opt.np = 16;
  auto time_for = [&](core::index_t b) {
    DistOptions o = opt;
    if (b == 1) {
      o.layout = Layout::V1;
    } else {
      o.layout = Layout::V2;
      o.group = b;
    }
    return dist_schur_model(1, 4096, o).sim_seconds;
  };
  const double t1 = time_for(1);
  const double t16 = time_for(16);
  const double t256 = time_for(256);
  EXPECT_LT(t16, t1);    // grouping helps at first...
  EXPECT_GT(t256, t16);  // ...then the lost parallelism dominates
}

TEST(DistSchur, Fig9ShapeBlockSizeCrossover) {
  // 1024-point matrix, m = 2 vs m = 4 (paper Fig. 9): the larger block
  // size loses on few PEs (more flops) and wins on many (fewer steps =>
  // fewer synchronizations).
  auto time_for = [&](core::index_t m, int np) {
    DistOptions o;
    o.np = np;
    return dist_schur_model(m, 1024 / m, o).sim_seconds;
  };
  EXPECT_LT(time_for(2, 1), time_for(4, 1));    // small NP: m = 2 faster
  EXPECT_GT(time_for(2, 64), time_for(4, 64));  // large NP: m = 4 faster
}

TEST(DistSchur, V3HelpsLargeBlocksFewBlocks) {
  // Paper Fig. 8 mechanism: m = 32, p = 128 on 64 PEs: most PEs idle
  // under V1; spreading each block increases parallelism.
  DistOptions v1;
  v1.np = 64;
  DistOptions v3 = v1;
  v3.layout = Layout::V3;
  v3.spread = 8;
  const double t1 = dist_schur_model(32, 128, v1).sim_seconds;
  const double t3 = dist_schur_model(32, 128, v3).sim_seconds;
  EXPECT_LT(t3, t1);
}

TEST(DistSchur, MoreProcessorsHelpWhenParallelismAvailable) {
  DistOptions a, b;
  a.np = 4;
  b.np = 16;
  const double t4 = dist_schur_model(8, 256, a).sim_seconds;
  const double t16 = dist_schur_model(8, 256, b).sim_seconds;
  EXPECT_LT(t16, t4);
}

TEST(DistSchur, BlockSizeOverrideInDistributedRun) {
  toeplitz::BlockToeplitz t = toeplitz::kms(16, 0.5);
  DistOptions opt;
  opt.np = 2;
  opt.block_size = 4;
  DistResult res = dist_schur_factor(t, opt, /*want_factor=*/true);
  ASSERT_TRUE(res.r.has_value());
  core::SchurOptions sopt;
  sopt.block_size = 4;
  core::SchurFactor seq = core::block_schur_factor(t, sopt);
  EXPECT_TRUE(same_bits(*res.r, seq.r));
}


TEST(Machine, ExchangeIsConcurrentNotChained) {
  // With put_many in a loop, PE k's send would wait for PE k-1's arrival;
  // exchange() must charge all sends from a common snapshot.
  MachineParams p;
  p.latency = 1.0;
  p.bandwidth = 1e18;
  Machine chained(4, p), collective(4, p);
  for (int pe = 0; pe < 4; ++pe) chained.put_many(pe, (pe + 1) % 4, 1.0, 0.0);
  std::vector<Machine::ShiftMsg> msgs;
  for (int pe = 0; pe < 4; ++pe) msgs.push_back({pe, (pe + 1) % 4, 1.0, 0.0});
  collective.exchange(msgs);
  EXPECT_DOUBLE_EQ(collective.time(), 1.0);  // all concurrent
  EXPECT_GT(chained.time(), 1.5);            // the ring chained up
}

TEST(Machine, ExchangeSkipsSelfAndEmpty) {
  Machine m(2, MachineParams{});
  m.exchange({{0, 0, 5.0, 100.0}, {1, 0, 0.0, 100.0}});
  EXPECT_DOUBLE_EQ(m.time(), 0.0);
}

TEST(Machine, CommDelayChargesBroadcastBucket) {
  Machine m(2, MachineParams{});
  m.comm_delay(1, 0.25);
  EXPECT_DOUBLE_EQ(m.time(), 0.25);
  EXPECT_DOUBLE_EQ(m.breakdown().broadcast, 0.25);
}

TEST(MachineParams, BlockEfficiencySaturatesAtCacheLine) {
  MachineParams p;
  EXPECT_LT(p.block_efficiency(1), p.block_efficiency(2));
  EXPECT_LT(p.block_efficiency(2), p.block_efficiency(4));
  EXPECT_DOUBLE_EQ(p.block_efficiency(4), 1.0);
  EXPECT_DOUBLE_EQ(p.block_efficiency(32), 1.0);
}

}  // namespace
}  // namespace bst::simnet
