// Tests for the threads-based message-passing runtime and the SPMD
// distributed factorization running on it.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <numeric>
#include <string>

#include "core/schur.h"
#include "simnet/runtime.h"
#include "simnet/threaded_schur.h"
#include "toeplitz/generators.h"

namespace bst::simnet {
namespace {

bool same_bits(const la::Mat& a, const la::Mat& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.rows() * a.cols()) * sizeof(double)) == 0;
}

TEST(Runtime, RanksAndSize) {
  std::atomic<int> sum{0};
  run_spmd(4, [&](Comm& c) {
    EXPECT_EQ(c.size(), 4);
    sum.fetch_add(c.rank());
  });
  EXPECT_EQ(sum.load(), 0 + 1 + 2 + 3);
}

TEST(Runtime, PointToPointDelivery) {
  run_spmd(2, [](Comm& c) {
    if (c.rank() == 0) {
      c.send(1, 7, {1.0, 2.0, 3.0});
    } else {
      std::vector<double> got = c.recv(0, 7);
      ASSERT_EQ(got.size(), 3u);
      EXPECT_DOUBLE_EQ(got[1], 2.0);
    }
  });
}

TEST(Runtime, FifoPerSourceAndTag) {
  run_spmd(2, [](Comm& c) {
    if (c.rank() == 0) {
      for (int i = 0; i < 16; ++i) c.send(1, 3, {static_cast<double>(i)});
    } else {
      for (int i = 0; i < 16; ++i) {
        std::vector<double> got = c.recv(0, 3);
        EXPECT_DOUBLE_EQ(got[0], static_cast<double>(i));
      }
    }
  });
}

TEST(Runtime, TagsAreIndependentChannels) {
  run_spmd(2, [](Comm& c) {
    if (c.rank() == 0) {
      c.send(1, 1, {1.0});
      c.send(1, 2, {2.0});
    } else {
      // Receive in the opposite order of sending: tags must not mix.
      EXPECT_DOUBLE_EQ(c.recv(0, 2)[0], 2.0);
      EXPECT_DOUBLE_EQ(c.recv(0, 1)[0], 1.0);
    }
  });
}

TEST(Runtime, BroadcastFromEveryRoot) {
  for (int root = 0; root < 3; ++root) {
    run_spmd(3, [root](Comm& c) {
      std::vector<double> data;
      if (c.rank() == root) data = {42.0, static_cast<double>(root)};
      c.broadcast(root, data);
      ASSERT_EQ(data.size(), 2u);
      EXPECT_DOUBLE_EQ(data[0], 42.0);
      EXPECT_DOUBLE_EQ(data[1], static_cast<double>(root));
    });
  }
}

TEST(Runtime, BarrierSeparatesPhases) {
  // Without the barrier this would race; with it, every PE observes all
  // increments from phase 1 before phase 2 reads.
  std::atomic<int> counter{0};
  run_spmd(8, [&](Comm& c) {
    counter.fetch_add(1);
    c.barrier();
    EXPECT_EQ(counter.load(), 8);
    c.barrier();
    counter.fetch_add(10);
    c.barrier();
    EXPECT_EQ(counter.load(), 8 + 80);
  });
}

TEST(Runtime, BarrierIsReusableManyTimes) {
  std::atomic<int> phase{0};
  run_spmd(4, [&](Comm& c) {
    for (int it = 0; it < 50; ++it) {
      if (c.rank() == 0) phase.store(it);
      c.barrier();
      EXPECT_EQ(phase.load(), it);
      c.barrier();
    }
  });
}

TEST(Runtime, ExceptionPropagatesWhenAllThrow) {
  EXPECT_THROW(run_spmd(3, [](Comm&) { throw std::runtime_error("boom"); }),
               std::runtime_error);
}

TEST(Runtime, RingPass) {
  // Token accumulates each rank around a ring.
  run_spmd(5, [](Comm& c) {
    const int next = (c.rank() + 1) % c.size();
    const int prev = (c.rank() + c.size() - 1) % c.size();
    if (c.rank() == 0) {
      c.send(next, 0, {0.0});
      std::vector<double> token = c.recv(prev, 0);
      EXPECT_DOUBLE_EQ(token[0], 0.0 + 1 + 2 + 3 + 4);
    } else {
      std::vector<double> token = c.recv(prev, 0);
      token[0] += static_cast<double>(c.rank());
      c.send(next, 0, std::move(token));
    }
  });
}

class ThreadedSchurSweep : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(ThreadedSchurSweep, MatchesSequentialFactor) {
  const auto [np, group, m] = GetParam();
  toeplitz::BlockToeplitz t =
      toeplitz::random_spd_block(m, 12, 2, static_cast<std::uint64_t>(np * 10 + group + m));
  core::SchurFactor seq = core::block_schur_factor(t);
  DistOptions opt;
  opt.np = np;
  if (group > 1) {
    opt.layout = Layout::V2;
    opt.group = group;
  }
  la::Mat r = threaded_schur_factor(t, opt);
  EXPECT_TRUE(same_bits(r, seq.r));
}

INSTANTIATE_TEST_SUITE_P(NpGroupM, ThreadedSchurSweep,
                         ::testing::Combine(::testing::Values(1, 2, 3, 4, 8),
                                            ::testing::Values(1, 2, 3),
                                            ::testing::Values(1, 3)));

TEST(ThreadedSchur, AllPesThrowOnIndefinite) {
  toeplitz::BlockToeplitz t = toeplitz::random_indefinite(8, 3, /*diag=*/0.2);
  DistOptions opt;
  opt.np = 4;
  EXPECT_THROW(threaded_schur_factor(t, opt), core::NotPositiveDefinite);
}

class ThreadedV3Sweep : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(ThreadedV3Sweep, SplitBlocksMatchSequential) {
  const auto [np, spread, m] = GetParam();
  if (np % spread != 0 || m % spread != 0) GTEST_SKIP() << "invalid combination";
  toeplitz::BlockToeplitz t = toeplitz::random_spd_block(
      m, 8, 2, static_cast<std::uint64_t>(np + spread * 10 + m * 100));
  core::SchurFactor seq = core::block_schur_factor(t);
  DistOptions opt;
  opt.np = np;
  opt.layout = Layout::V3;
  opt.spread = spread;
  la::Mat r = threaded_schur_factor(t, opt);
  EXPECT_TRUE(same_bits(r, seq.r));
}

INSTANTIATE_TEST_SUITE_P(NpSpreadM, ThreadedV3Sweep,
                         ::testing::Combine(::testing::Values(2, 4, 8),
                                            ::testing::Values(2, 4),
                                            ::testing::Values(4, 8)));

TEST(ThreadedSchur, V3InvalidSpreadRejected) {
  toeplitz::BlockToeplitz t = toeplitz::random_spd_block(4, 4, 1, 1);
  DistOptions opt;
  opt.np = 4;
  opt.layout = Layout::V3;
  opt.spread = 3;  // does not divide np
  EXPECT_THROW(threaded_schur_factor(t, opt), std::invalid_argument);
  opt.np = 6;
  opt.spread = 3;  // divides np but not m = 4
  EXPECT_THROW(threaded_schur_factor(t, opt), std::invalid_argument);
}

TEST(ThreadedSchur, V3BreakdownThrowsEverywhere) {
  toeplitz::BlockToeplitz t = toeplitz::random_indefinite(8, 3, /*diag=*/0.2)
                                  .with_block_size(2);
  DistOptions opt;
  opt.np = 4;
  opt.layout = Layout::V3;
  opt.spread = 2;
  EXPECT_THROW(threaded_schur_factor(t, opt), std::runtime_error);
}

TEST(ThreadedSchur, BreakdownReportIsTheSequentialOne) {
  // Every PE throws the pivot owner's (column, hnorm), so whichever PE
  // run_spmd rethrows, the message is the sequential factorization's.
  const toeplitz::BlockToeplitz t = toeplitz::random_indefinite(16, 23).with_block_size(2);
  std::string want;
  try {
    core::block_schur_factor(t);
  } catch (const core::NotPositiveDefinite& e) {
    want = e.what();
  }
  ASSERT_FALSE(want.empty());
  for (Layout layout : {Layout::V1, Layout::V3}) {
    DistOptions opt;
    opt.np = 4;
    opt.layout = layout;
    opt.spread = 2;
    for (int run = 0; run < 60; ++run) {
      try {
        threaded_schur_factor(t, opt);
        ADD_FAILURE() << to_string(layout) << ": no breakdown";
      } catch (const core::NotPositiveDefinite& e) {
        ASSERT_EQ(want, e.what()) << to_string(layout) << " run " << run;
      }
    }
  }
}

TEST(ThreadedSchur, BlockSizeOverride) {
  toeplitz::BlockToeplitz t = toeplitz::kms(24, 0.6);
  DistOptions opt;
  opt.np = 3;
  opt.block_size = 4;
  core::SchurOptions sopt;
  sopt.block_size = 4;
  core::SchurFactor seq = core::block_schur_factor(t, sopt);
  la::Mat r = threaded_schur_factor(t, opt);
  EXPECT_TRUE(same_bits(r, seq.r));
}

TEST(ThreadedSchur, MorePesThanBlocks) {
  toeplitz::BlockToeplitz t = toeplitz::random_spd_block(2, 3, 1, 7);
  DistOptions opt;
  opt.np = 8;  // most PEs own nothing
  core::SchurFactor seq = core::block_schur_factor(t);
  la::Mat r = threaded_schur_factor(t, opt);
  EXPECT_TRUE(same_bits(r, seq.r));
}

}  // namespace
}  // namespace bst::simnet
