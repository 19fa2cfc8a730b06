#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "core/dfl_sso.hpp"
#include "core/epsilon_greedy.hpp"
#include "core/exp3.hpp"
#include "core/moss.hpp"
#include "core/policy_registry.hpp"
#include "core/random_policy.hpp"
#include "core/thompson.hpp"
#include "core/ucb1.hpp"
#include "core/ucb_n.hpp"
#include "graph/generators.hpp"
#include "util/math.hpp"

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

TEST(DflSso, ExploresUnobservedArmsFirst) {
  const Graph g = empty_graph(4);
  DflSso policy;
  policy.reset(g);
  std::set<ArmId> chosen;
  for (TimeSlot t = 1; t <= 4; ++t) {
    const ArmId a = policy.select(t);
    chosen.insert(a);
    policy.observe(a, t, {{a, 0.5}});
  }
  EXPECT_EQ(chosen.size(), 4u);  // all arms tried once
}

TEST(DflSso, SideObservationsUpdateNeighbors) {
  const Graph g = star_graph(4);
  DflSso policy;
  policy.reset(g);
  // Playing the hub observes everyone.
  policy.observe(0, 1, closed_obs(g, 0, {0.5, 0.6, 0.7, 0.8}));
  for (ArmId i = 0; i < 4; ++i) {
    EXPECT_EQ(policy.observation_count(i), 1) << "arm " << i;
  }
  EXPECT_DOUBLE_EQ(policy.empirical_mean(2), 0.7);
}

TEST(DflSso, IndexFormulaHandComputed) {
  const Graph g = empty_graph(2);
  DflSso policy;
  policy.reset(g);
  policy.observe(0, 1, {{0, 1.0}});
  // O_0 = 1, X̄_0 = 1. Index at t = 2e² (so ratio = e², log = 2):
  // 1 + sqrt(2/1) = 1 + sqrt(2).
  const auto t = static_cast<TimeSlot>(std::ceil(2.0 * std::exp(2.0)));
  const double ratio = static_cast<double>(t) / 2.0;
  EXPECT_NEAR(policy.index(0, t), 1.0 + std::sqrt(std::log(ratio)), 1e-9);
  EXPECT_TRUE(std::isinf(policy.index(1, t)));
}

TEST(DflSso, IncrementalMeanMatchesBatch) {
  const Graph g = empty_graph(1);
  DflSso policy;
  policy.reset(g);
  const std::vector<double> values{0.3, 0.9, 0.1, 0.5, 0.7};
  double total = 0.0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    policy.observe(0, static_cast<TimeSlot>(i + 1), {{0, values[i]}});
    total += values[i];
  }
  EXPECT_NEAR(policy.empirical_mean(0),
              total / static_cast<double>(values.size()), 1e-12);
  EXPECT_EQ(policy.observation_count(0), 5);
}

TEST(DflSso, ResetClearsState) {
  const Graph g = empty_graph(2);
  DflSso policy;
  policy.reset(g);
  policy.observe(0, 1, {{0, 1.0}});
  policy.reset(g);
  EXPECT_EQ(policy.observation_count(0), 0);
  EXPECT_DOUBLE_EQ(policy.empirical_mean(0), 0.0);
}

TEST(DflSso, NeighborGreedyPlaysBestEmpiricalNeighbor) {
  // Star: hub 0 with mean 0.1, leaf 1 with mean 0.9 — once both observed,
  // the greedy variant redirects hub selections to the leaf.
  const Graph g = star_graph(3);
  DflSso policy(DflSsoOptions{.neighbor_greedy = true});
  policy.reset(g);
  // Feed identical history: hub bad, leaf 1 good, leaf 2 bad.
  for (TimeSlot t = 1; t <= 30; ++t) {
    policy.observe(0, t, closed_obs(g, 0, {0.1, 0.9, 0.2}));
  }
  // Whatever the index argmax is, the played arm must have the max
  // empirical mean within that arm's closed neighborhood; for the hub's
  // neighborhood that is leaf 1.
  const ArmId played = policy.select(31);
  EXPECT_EQ(played, 1);
  EXPECT_EQ(policy.name(), "DFL-SSO+greedy");
}

TEST(Moss, IgnoresSideObservations) {
  const Graph g = star_graph(3);
  Moss policy(MossOptions{.horizon = 100});
  policy.reset(g);
  policy.observe(0, 1, closed_obs(g, 0, {0.5, 0.9, 0.8}));
  EXPECT_EQ(policy.play_count(0), 1);
  EXPECT_EQ(policy.play_count(1), 0);
  EXPECT_EQ(policy.play_count(2), 0);
}

TEST(Moss, ThrowsWhenPlayedArmMissing) {
  Moss policy;
  policy.reset(empty_graph(2));
  EXPECT_THROW(policy.observe(0, 1, {{1, 0.5}}), std::logic_error);
}

TEST(Moss, FixedHorizonIndexUsesN) {
  Moss policy(MossOptions{.horizon = 10000});
  policy.reset(empty_graph(2));
  policy.observe(0, 1, {{0, 0.5}});
  // ratio = n/(K·T) = 10000/2 regardless of t.
  const double expected =
      0.5 + std::sqrt(std::log(10000.0 / 2.0) / 1.0);
  EXPECT_NEAR(policy.index(0, 1), expected, 1e-12);
  EXPECT_NEAR(policy.index(0, 9999), expected, 1e-12);
  EXPECT_EQ(policy.name(), "MOSS");
}

TEST(Moss, AnytimeIndexUsesT) {
  Moss policy;  // horizon 0 → anytime
  policy.reset(empty_graph(2));
  policy.observe(0, 1, {{0, 0.5}});
  EXPECT_LT(policy.index(0, 2), policy.index(0, 1000));
  EXPECT_EQ(policy.name(), "MOSS-anytime");
}

TEST(Ucb1, IndexFormula) {
  Ucb1 policy;
  policy.reset(empty_graph(3));
  policy.observe(1, 1, {{1, 0.6}});
  const double expected = 0.6 + std::sqrt(2.0 * std::log(100.0) / 1.0);
  EXPECT_NEAR(policy.index(1, 100), expected, 1e-12);
  EXPECT_TRUE(std::isinf(policy.index(0, 100)));
}

TEST(Ucb1, OnlyPlayedArmUpdates) {
  Ucb1 policy;
  policy.reset(star_graph(3));
  policy.observe(0, 1, {{0, 0.5}, {1, 0.9}, {2, 0.1}});
  EXPECT_EQ(policy.play_count(0), 1);
  EXPECT_EQ(policy.play_count(1), 0);
}

TEST(UcbN, ConsumesSideObservations) {
  const Graph g = star_graph(3);
  UcbN policy;
  policy.reset(g);
  policy.observe(0, 1, closed_obs(g, 0, {0.5, 0.9, 0.1}));
  EXPECT_EQ(policy.observation_count(0), 1);
  EXPECT_EQ(policy.observation_count(1), 1);
  EXPECT_EQ(policy.observation_count(2), 1);
  EXPECT_EQ(policy.name(), "UCB-N");
}

TEST(UcbMaxN, PlaysBestEmpiricalInNeighborhood) {
  const Graph g = star_graph(3);
  UcbN policy(UcbNOptions{.max_variant = true});
  policy.reset(g);
  for (TimeSlot t = 1; t <= 30; ++t) {
    policy.observe(0, t, closed_obs(g, 0, {0.1, 0.9, 0.2}));
  }
  EXPECT_EQ(policy.select(31), 1);
  EXPECT_EQ(policy.name(), "UCB-MaxN");
}

TEST(EpsilonGreedy, ZeroEpsilonIsPureGreedy) {
  EpsilonGreedy policy(EpsilonGreedyOptions{.epsilon = 0.0});
  policy.reset(empty_graph(3));
  // Visit all arms once (forced exploration).
  for (TimeSlot t = 1; t <= 3; ++t) {
    const ArmId a = policy.select(t);
    policy.observe(a, t, {{a, a == 1 ? 1.0 : 0.0}});
  }
  for (TimeSlot t = 4; t <= 20; ++t) {
    EXPECT_EQ(policy.select(t), 1);
  }
}

TEST(EpsilonGreedy, DecaySchedule) {
  EpsilonGreedyOptions opts;
  opts.decay = true;
  opts.c = 1.0;
  opts.d = 0.5;
  EpsilonGreedy policy(opts);
  policy.reset(empty_graph(10));
  EXPECT_DOUBLE_EQ(policy.epsilon_at(1), 1.0);  // clamped
  EXPECT_NEAR(policy.epsilon_at(1000), 1.0 * 10 / (0.25 * 1000), 1e-12);
  EXPECT_GT(policy.epsilon_at(100), policy.epsilon_at(10000));
}

TEST(EpsilonGreedy, SideObservationOptIn) {
  const Graph g = star_graph(3);
  EpsilonGreedyOptions opts;
  opts.use_side_observations = true;
  EpsilonGreedy with_side(opts);
  with_side.reset(g);
  with_side.observe(0, 1, closed_obs(g, 0, {0.1, 0.9, 0.5}));
  // Arm 1 now has data: with epsilon=0.1 it usually exploits arm 1 — but we
  // only check state indirectly: selecting must not throw and stay in range.
  for (TimeSlot t = 2; t < 10; ++t) {
    const ArmId a = with_side.select(t);
    EXPECT_GE(a, 0);
    EXPECT_LT(a, 3);
  }
  EXPECT_EQ(with_side.name(), "eps-greedy+side");
  EXPECT_THROW(EpsilonGreedy(EpsilonGreedyOptions{.epsilon = 1.5}),
               std::invalid_argument);
}

TEST(Thompson, PosteriorMeanMovesTowardData) {
  ThompsonSampling policy;
  policy.reset(empty_graph(2));
  EXPECT_DOUBLE_EQ(policy.posterior_mean(0), 0.5);  // uniform prior
  for (TimeSlot t = 1; t <= 50; ++t) policy.observe(0, t, {{0, 1.0}});
  EXPECT_GT(policy.posterior_mean(0), 0.9);
  for (TimeSlot t = 1; t <= 50; ++t) policy.observe(1, t, {{1, 0.0}});
  EXPECT_LT(policy.posterior_mean(1), 0.1);
}

TEST(Thompson, SelectsWithinRange) {
  ThompsonSampling policy;
  policy.reset(empty_graph(5));
  for (TimeSlot t = 1; t <= 20; ++t) {
    const ArmId a = policy.select(t);
    EXPECT_GE(a, 0);
    EXPECT_LT(a, 5);
  }
  EXPECT_THROW(ThompsonSampling(ThompsonOptions{.prior_alpha = 0.0}),
               std::invalid_argument);
}

TEST(Exp3, ProbabilitiesFormDistribution) {
  Exp3 policy;
  policy.reset(empty_graph(4));
  (void)policy.select(1);
  double total = 0.0;
  for (ArmId i = 0; i < 4; ++i) {
    EXPECT_GT(policy.probability(i), 0.0);
    total += policy.probability(i);
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Exp3, RewardIncreasesProbability) {
  Exp3 policy(Exp3Options{.gamma = 0.2});
  policy.reset(empty_graph(3));
  for (TimeSlot t = 1; t <= 100; ++t) {
    const ArmId a = policy.select(t);
    policy.observe(a, t, {{a, a == 2 ? 1.0 : 0.0}});
  }
  (void)policy.select(101);
  EXPECT_GT(policy.probability(2), policy.probability(0));
  EXPECT_GT(policy.probability(2), policy.probability(1));
  EXPECT_THROW(Exp3(Exp3Options{.gamma = 0.0}), std::invalid_argument);
}

TEST(RandomPolicy, UniformCoverage) {
  RandomPolicy policy(123);
  policy.reset(empty_graph(6));
  std::set<ArmId> seen;
  for (TimeSlot t = 1; t <= 300; ++t) seen.insert(policy.select(t));
  EXPECT_EQ(seen.size(), 6u);
}

TEST(PolicyFactory, BuildsEveryName) {
  for (const auto& name : PolicyRegistry::instance().single_play_names()) {
    const auto policy =
        PolicyRegistry::instance().make_single_play(name, 1000, 7);
    ASSERT_NE(policy, nullptr) << name;
    policy->reset(path_graph(4));
    const ArmId a = policy->select(1);
    EXPECT_GE(a, 0);
    EXPECT_LT(a, 4);
  }
}

TEST(PolicyFactory, UnknownNameThrows) {
  EXPECT_THROW(PolicyRegistry::instance().make_single_play("nope", 100, 1),
               std::invalid_argument);
}

TEST(PolicyFactory, SelectsBeforeResetThrow) {
  DflSso sso;
  EXPECT_THROW((void)sso.select(1), std::logic_error);
  Moss moss;
  EXPECT_THROW((void)moss.select(1), std::logic_error);
  Ucb1 ucb;
  EXPECT_THROW((void)ucb.select(1), std::logic_error);
}

// All single-play policies satisfy the interface contract on a random graph.
class SinglePolicyContract : public ::testing::TestWithParam<std::string> {};

TEST_P(SinglePolicyContract, RunsHundredSlotsInRange) {
  Xoshiro256 rng(77);
  const Graph g = erdos_renyi(10, 0.3, rng);
  const auto policy =
      PolicyRegistry::instance().make_single_play(GetParam(), 100, 42);
  policy->reset(g);
  for (TimeSlot t = 1; t <= 100; ++t) {
    const ArmId a = policy->select(t);
    ASSERT_GE(a, 0);
    ASSERT_LT(a, 10);
    std::vector<double> values(10);
    for (auto& v : values) v = rng.uniform();
    policy->observe(a, t, closed_obs(g, a, values));
  }
}

TEST_P(SinglePolicyContract, ResetRestartsDeterministically) {
  const Graph g = path_graph(6);
  const auto policy =
      PolicyRegistry::instance().make_single_play(GetParam(), 100, 42);
  std::vector<ArmId> first, second;
  for (int round = 0; round < 2; ++round) {
    policy->reset(g);
    auto& log = round == 0 ? first : second;
    for (TimeSlot t = 1; t <= 50; ++t) {
      const ArmId a = policy->select(t);
      log.push_back(a);
      std::vector<double> values(6, 0.5);
      policy->observe(a, t, closed_obs(g, a, values));
    }
  }
  EXPECT_EQ(first, second);
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, SinglePolicyContract,
    ::testing::ValuesIn(PolicyRegistry::instance().single_play_names()));

}  // namespace
}  // namespace ncb
