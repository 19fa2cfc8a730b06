#include "core/dfl_ssr.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "graph/generators.hpp"

namespace ncb {
namespace {

std::vector<Observation> closed_obs(const Graph& g, ArmId played,
                                    const std::vector<double>& values) {
  std::vector<Observation> out;
  for (const ArmId j : g.closed_neighborhood(played)) {
    out.push_back({j, values[static_cast<std::size_t>(j)]});
  }
  return out;
}

TEST(DflSsr, ObCounterIsMinOverNeighborhood) {
  // Path 0-1-2: playing 0 observes {0,1}; playing 2 observes {1,2}.
  const Graph g = path_graph(3);
  DflSsr policy;
  policy.reset(g);
  policy.observe(0, 1, closed_obs(g, 0, {0.5, 0.5, 0.5}));
  // O = [1, 1, 0]. Ob_0 = min(O_0,O_1) = 1; Ob_1 = min over {0,1,2} = 0.
  EXPECT_EQ(policy.observation_count(0), 1);
  EXPECT_EQ(policy.observation_count(1), 1);
  EXPECT_EQ(policy.observation_count(2), 0);
  EXPECT_EQ(policy.side_observation_count(0), 1);
  EXPECT_EQ(policy.side_observation_count(1), 0);
  EXPECT_EQ(policy.side_observation_count(2), 0);

  policy.observe(2, 2, closed_obs(g, 2, {0.5, 0.5, 0.5}));
  // O = [1, 2, 1]. Ob_0 = 1, Ob_1 = 1, Ob_2 = 1.
  EXPECT_EQ(policy.side_observation_count(0), 1);
  EXPECT_EQ(policy.side_observation_count(1), 1);
  EXPECT_EQ(policy.side_observation_count(2), 1);
}

TEST(DflSsr, PairedEstimateMatchesHandComputation) {
  // Path 0-1: both arms always observed together, so pairing is direct.
  const Graph g = path_graph(2);
  DflSsr policy;
  policy.reset(g);
  policy.observe(0, 1, {{0, 0.2}, {1, 0.4}});
  policy.observe(0, 2, {{0, 0.6}, {1, 0.8}});
  // Ob_0 = 2; paired sums: (0.2+0.4) and (0.6+0.8); mean = 1.0.
  EXPECT_EQ(policy.side_observation_count(0), 2);
  EXPECT_NEAR(policy.side_reward_estimate(0), 1.0, 1e-12);
}

TEST(DflSsr, PairedEstimateUsesOnlyFirstObSamples) {
  // Path 0-1-2: arm 1 accumulates more observations than arm 2; the paired
  // estimator for arm 2 must use only the first Ob_2 samples of arm 1.
  const Graph g = path_graph(3);
  DflSsr policy;
  policy.reset(g);
  // Play 0 twice: arm0, arm1 observed with values below.
  policy.observe(0, 1, {{0, 0.0}, {1, 1.0}});
  policy.observe(0, 2, {{0, 0.0}, {1, 0.0}});
  // Play 2 once: arms 1, 2 observed (third observation of arm 1).
  policy.observe(2, 3, {{1, 0.0}, {2, 0.5}});
  // For arm 2: N_2 = {1, 2}; Ob_2 = min(3, 1) = 1. Paired sample m=1 pairs
  // arm 1's FIRST observation (1.0) with arm 2's first (0.5): estimate 1.5.
  EXPECT_EQ(policy.side_observation_count(2), 1);
  EXPECT_NEAR(policy.side_reward_estimate(2), 1.5, 1e-12);
}

TEST(DflSsr, MeanSumEstimateUsesAllSamples) {
  const Graph g = path_graph(3);
  DflSsr policy(DflSsrOptions{.estimator = SsrEstimator::kMeanSum});
  policy.reset(g);
  policy.observe(0, 1, {{0, 0.0}, {1, 1.0}});
  policy.observe(0, 2, {{0, 0.0}, {1, 0.0}});
  policy.observe(2, 3, {{1, 0.0}, {2, 0.5}});
  // Arm 2 estimate = X̄_1 + X̄_2 = (1/3) + 0.5.
  EXPECT_NEAR(policy.side_reward_estimate(2), 1.0 / 3.0 + 0.5, 1e-12);
  EXPECT_EQ(policy.name(), "DFL-SSR(mean-sum)");
}

TEST(DflSsr, IndexInfiniteUntilWholeNeighborhoodObserved) {
  const Graph g = path_graph(3);
  DflSsr policy;
  policy.reset(g);
  policy.observe(0, 1, closed_obs(g, 0, {0.5, 0.5, 0.5}));
  // Arm 1's neighborhood includes the still-unobserved arm 2.
  EXPECT_TRUE(std::isinf(policy.index(1, 2)));
  EXPECT_FALSE(std::isinf(policy.index(0, 2)));
}

TEST(DflSsr, SelectPrefersInfiniteIndex) {
  const Graph g = path_graph(3);
  DflSsr policy;
  policy.reset(g);
  policy.observe(0, 1, closed_obs(g, 0, {0.9, 0.9, 0.9}));
  // Arms 1 and 2 still have Ob = 0 → infinite index → must be selected.
  const ArmId next = policy.select(2);
  EXPECT_TRUE(next == 1 || next == 2);
}

TEST(DflSsr, ConvergesToBestSideRewardArm) {
  // Star graph: hub 0 has u_0 = sum of all means — play counts should
  // concentrate on the hub even though leaf 1 has the best direct mean.
  const Graph g = star_graph(4);
  const std::vector<double> means{0.2, 0.9, 0.6, 0.5};
  DflSsr policy;
  policy.reset(g);
  Xoshiro256 rng(5);
  std::vector<std::int64_t> plays(4, 0);
  for (TimeSlot t = 1; t <= 4000; ++t) {
    const ArmId a = policy.select(t);
    ++plays[static_cast<std::size_t>(a)];
    std::vector<double> values(4);
    for (std::size_t i = 0; i < 4; ++i) values[i] = rng.bernoulli(means[i]) ? 1.0 : 0.0;
    policy.observe(a, t, closed_obs(g, a, values));
  }
  // Hub u_0 = 2.2 vs leaves u_i ≤ 1.1: the hub must dominate.
  EXPECT_GT(plays[0], 3000);
}

TEST(DflSsr, ResetClearsHistories) {
  const Graph g = path_graph(2);
  DflSsr policy;
  policy.reset(g);
  policy.observe(0, 1, {{0, 0.5}, {1, 0.5}});
  policy.reset(g);
  EXPECT_EQ(policy.observation_count(0), 0);
  EXPECT_EQ(policy.side_observation_count(0), 0);
  EXPECT_DOUBLE_EQ(policy.side_reward_estimate(0), 0.0);
}

// The Ob_i and B̄_i that observe() tracks (and refresh_indices() reads)
// must equal a from-scratch recount after every observe, for both
// estimators, on sparse, hub and clique graphs, under whole closed
// neighborhoods, partial ones, and spans that repeat an arm.
TEST(DflSsr, TrackedObAndEstimateEqualRecountAfterEveryObserve) {
  Xoshiro256 gen(41);
  const Graph graphs[] = {erdos_renyi(30, 0.2, gen), star_graph(30),
                          disjoint_cliques(5, 6)};
  for (const SsrEstimator estimator :
       {SsrEstimator::kPaired, SsrEstimator::kMeanSum}) {
    for (const Graph& g : graphs) {
      DflSsr policy(DflSsrOptions{.estimator = estimator, .seed = 3});
      SCOPED_TRACE(policy.describe());
      policy.reset(g);
      const auto n = static_cast<std::uint64_t>(g.num_vertices());
      Xoshiro256 rng(43);
      std::vector<Observation> span;
      for (TimeSlot t = 1; t <= 1500; ++t) {
        const auto played = static_cast<ArmId>(rng.uniform_int(n));
        span.clear();
        switch (rng.uniform_int(3)) {
          case 0:  // the whole closed neighborhood
            for (const ArmId j : g.closed_neighborhood(played)) {
              span.push_back({j, rng.bernoulli(0.6) ? 1.0 : 0.0});
            }
            break;
          case 1:  // part of it
            for (const ArmId j : g.closed_neighborhood(played)) {
              if (rng.bernoulli(0.5)) span.push_back({j, rng.uniform()});
            }
            break;
          default:  // arbitrary arms, repeats included
            for (std::uint64_t m = 1 + rng.uniform_int(6); m > 0; --m) {
              const auto arm = static_cast<ArmId>(
                  rng.uniform_int(rng.bernoulli(0.5) ? 3 : n));
              span.push_back({arm, rng.uniform()});
            }
        }
        policy.observe(played, t, span);
        for (ArmId i = 0; i < static_cast<ArmId>(n); ++i) {
          ASSERT_EQ(policy.tracked_side_observation_count(i),
                    policy.side_observation_count(i))
              << "arm " << i << " slot " << t;
          ASSERT_EQ(policy.tracked_side_reward_estimate(i),
                    policy.side_reward_estimate(i))
              << "arm " << i << " slot " << t;
        }
        if (t % 7 == 0) (void)policy.select(t);
      }
      EXPECT_GT(policy.side_observation_count(0), 0);
    }
  }
}

TEST(DflSsr, PairedAndMeanSumAgreeWhenSynchronized) {
  // Complete graph: every play observes every arm, so the paired prefix and
  // the global mean coincide.
  const Graph g = complete_graph(3);
  DflSsr paired;
  DflSsr meansum(DflSsrOptions{.estimator = SsrEstimator::kMeanSum});
  paired.reset(g);
  meansum.reset(g);
  Xoshiro256 rng(11);
  for (TimeSlot t = 1; t <= 50; ++t) {
    std::vector<Observation> obs;
    for (ArmId i = 0; i < 3; ++i) obs.push_back({i, rng.uniform()});
    paired.observe(0, t, obs);
    meansum.observe(0, t, obs);
  }
  for (ArmId i = 0; i < 3; ++i) {
    EXPECT_NEAR(paired.side_reward_estimate(i),
                meansum.side_reward_estimate(i), 1e-9);
  }
}

}  // namespace
}  // namespace ncb
