#include "env/environment.hpp"

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace ncb
