#include "env/environment.hpp"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "env/distribution.hpp"
#include "graph/generators.hpp"

namespace ncb {
namespace {

BanditInstance make_path_instance() {
  return bernoulli_instance(path_graph(4), {0.1, 0.8, 0.3, 0.6});
}

TEST(Environment, AdvanceDrawsEveryArm) {
  Environment env(make_path_instance(), 1);
  const auto& rewards = env.advance();
  EXPECT_EQ(rewards.size(), 4u);
  EXPECT_EQ(env.slots_drawn(), 1);
  for (const double r : rewards) EXPECT_TRUE(r == 0.0 || r == 1.0);
}

TEST(Environment, DeterministicGivenSeed) {
  Environment a(make_path_instance(), 99), b(make_path_instance(), 99);
  for (int t = 0; t < 200; ++t) EXPECT_EQ(a.advance(), b.advance());
}

TEST(Environment, DifferentSeedsDiffer) {
  Environment a(make_path_instance(), 1), b(make_path_instance(), 2);
  int diffs = 0;
  for (int t = 0; t < 100; ++t) {
    if (a.advance() != b.advance()) ++diffs;
  }
  EXPECT_GT(diffs, 0);
}

TEST(Environment, EmpiricalMeansConverge) {
  Environment env(make_path_instance(), 5);
  std::vector<double> sums(4, 0.0);
  const int n = 100000;
  for (int t = 0; t < n; ++t) {
    const auto& r = env.advance();
    for (std::size_t i = 0; i < 4; ++i) sums[i] += r[i];
  }
  const auto& means = env.instance().means();
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(sums[i] / n, means[i], 0.01) << "arm " << i;
  }
}

TEST(Environment, StrategyRewardIsComponentSum) {
  Environment env(make_path_instance(), 3);
  const auto& r = env.advance();
  EXPECT_DOUBLE_EQ(env.strategy_reward({0, 2}), r[0] + r[2]);
  EXPECT_DOUBLE_EQ(env.strategy_reward({1}), r[1]);
}

TEST(Environment, SideRewardIsClosedNeighborhoodSum) {
  Environment env(make_path_instance(), 4);
  const auto& r = env.advance();
  EXPECT_DOUBLE_EQ(env.side_reward(0), r[0] + r[1]);
  EXPECT_DOUBLE_EQ(env.side_reward(1), r[0] + r[1] + r[2]);
  EXPECT_DOUBLE_EQ(env.side_reward(3), r[2] + r[3]);
}

TEST(Environment, StrategySideRewardIsCoverageSum) {
  Environment env(make_path_instance(), 6);
  const auto& r = env.advance();
  // CB_x is the reward summed over Y_x. Y({0,2}) = {0,1,2,3}.
  const Graph& g = env.graph();
  EXPECT_DOUBLE_EQ(env.strategy_reward(g.strategy_neighborhood_list({0, 2})),
                   r[0] + r[1] + r[2] + r[3]);
  // Y({3}) = {2,3}.
  EXPECT_DOUBLE_EQ(env.strategy_reward(g.strategy_neighborhood_list({3})),
                   r[2] + r[3]);
}

TEST(Environment, RewardsAccessorMatchesLastAdvance) {
  Environment env(make_path_instance(), 7);
  const auto snapshot = env.advance();
  EXPECT_EQ(env.rewards(), snapshot);
}

TEST(Environment, CopiesInstance) {
  auto inst = make_path_instance();
  Environment env(inst, 8);
  EXPECT_EQ(env.num_arms(), 4u);
  EXPECT_EQ(env.instance().means(), inst.means());
}

// The row draw's two paths must both replay the per-arm sample() loop
// over one generator seeded like the environment's: every row bit for bit,
// and the generator left at the same point after `slots` rows.
void expect_rows_match_per_arm_loop(const BanditInstance& instance,
                                    std::uint64_t seed, int slots) {
  Environment env(instance, seed);
  Xoshiro256 reference(seed);
  for (int t = 0; t < slots; ++t) {
    const std::vector<double>& row = env.advance();
    ASSERT_EQ(row.size(), instance.num_arms());
    for (std::size_t i = 0; i < row.size(); ++i) {
      const double expected =
          instance.arm(static_cast<ArmId>(i)).sample(reference);
      ASSERT_EQ(std::memcmp(&row[i], &expected, sizeof expected), 0)
          << "arm " << i << " slot " << t;
    }
  }
  Xoshiro256 after = env.rng();
  EXPECT_EQ(after(), reference());
}

// FNV-1a over the bytes of `slots` rows.
std::uint64_t row_stream_hash(Environment& env, int slots) {
  std::uint64_t h = 1469598103934665603ULL;
  for (int t = 0; t < slots; ++t) {
    for (const double v : env.advance()) {
      std::uint64_t bits;
      std::memcpy(&bits, &v, sizeof bits);
      for (int b = 0; b < 8; ++b) {
        h ^= (bits >> (8 * b)) & 0xff;
        h *= 1099511628211ULL;
      }
    }
  }
  return h;
}

// Every arm Bernoulli with 0 < p < 1: the integer-threshold row path,
// including p at both ends of the open interval (2^-53 and 1 - 2^-53,
// where ceil(p·2^53) is 1 and 2^53 - 1). Hashes captured from the
// per-arm virtual loop before the row path existed.
TEST(Environment, BernoulliRowMatchesPerArmSampleLoop) {
  const BanditInstance instance = bernoulli_instance(
      empty_graph(6), {0x1p-53, 0.5, 1.0 - 0x1p-53, 0.3, 0.7, 0.999});
  expect_rows_match_per_arm_loop(instance, 12345, 10000);
  Environment env(bernoulli_instance(empty_graph(4),
                                     {0x1p-53, 0.5, 1.0 - 0x1p-53, 0.3}),
                  78);
  EXPECT_EQ(row_stream_hash(env, 10000), 12565247412977578115ULL);
}

// The threshold is exact at the boundary: with p equal to the draw's
// uniform() the arm pays 0, one ulp above it pays 1. Each arm's p is set
// from the very draw it will consume.
TEST(Environment, BernoulliThresholdIsExactAtTheDraw) {
  constexpr std::uint64_t kSeed = 2468;
  Xoshiro256 peek(kSeed);
  std::vector<double> ps;
  for (int i = 0; i < 16; ++i) {
    const double u = static_cast<double>(peek() >> 11) * 0x1.0p-53;
    ps.push_back(i % 2 == 0 ? u : std::nextafter(u, 1.0));
  }
  const BanditInstance instance = bernoulli_instance(empty_graph(16), ps);
  Environment env(instance, kSeed);
  const std::vector<double>& row = env.advance();
  for (std::size_t i = 0; i < row.size(); ++i) {
    EXPECT_EQ(row[i], i % 2 == 0 ? 0.0 : 1.0) << "arm " << i;
  }
  expect_rows_match_per_arm_loop(instance, kSeed, 100);
}

// An arm with p = 0 or p = 1 consumes no draw, so such an instance keeps
// the per-arm loop; a threshold row would draw for those arms and shift
// the stream.
TEST(Environment, DegenerateBernoulliArmsKeepPerArmLoop) {
  expect_rows_match_per_arm_loop(
      bernoulli_instance(empty_graph(3), {0.5, 1.0, 0.3}), 54320, 10000);
  expect_rows_match_per_arm_loop(
      bernoulli_instance(empty_graph(3), {0.5, 0.0, 0.3}), 54322, 10000);
  expect_rows_match_per_arm_loop(
      bernoulli_instance(empty_graph(4), {0.0, 0.5, 1.0, 0.3}), 54321, 10000);
  Environment env(bernoulli_instance(empty_graph(4), {0.0, 0.5, 1.0, 0.3}),
                  79);
  EXPECT_EQ(row_stream_hash(env, 10000), 18396087036247944515ULL);
}

TEST(Environment, MixedDistributionsKeepTheirStream) {
  auto make = [] {
    std::vector<DistributionPtr> arms;
    arms.push_back(std::make_unique<BetaDist>(2.0, 3.0));
    arms.push_back(std::make_unique<UniformDist>(0.2, 0.9));
    arms.push_back(std::make_unique<ClippedGaussianDist>(0.5, 0.2));
    arms.push_back(std::make_unique<ConstantDist>(0.25));
    arms.push_back(std::make_unique<BernoulliDist>(0.4));
    return BanditInstance(empty_graph(5), std::move(arms));
  };
  expect_rows_match_per_arm_loop(make(), 99, 2000);
  Environment env(make(), 77);
  EXPECT_EQ(row_stream_hash(env, 1000), 14511899102511846337ULL);
}

}  // namespace
}  // namespace ncb
