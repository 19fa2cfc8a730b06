#include "core/dfl_cso.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <thread>

#include "env/environment.hpp"
#include "graph/generators.hpp"
#include "sim/experiment.hpp"
#include "sim/runner.hpp"
#include "strategy/strategy_graph.hpp"
#include "util/rng.hpp"

namespace ncb {
namespace {

std::shared_ptr<const FeasibleSet> fig2_family() {
  return std::make_shared<const FeasibleSet>(make_independent_set_family(
      std::make_shared<const Graph>(path_graph(4))));
}

std::vector<Observation> family_obs(const FeasibleSet& f, StrategyId played,
                                    const std::vector<double>& values) {
  std::vector<Observation> out;
  for (const ArmId j : f.neighborhood(played)) {
    out.push_back({j, values[static_cast<std::size_t>(j)]});
  }
  return out;
}

TEST(DflCso, UpdateListsMatchSgClosedNeighborhoods) {
  const auto family = fig2_family();
  DflCso policy(family);
  const Graph sg = build_strategy_graph(*family);
  for (StrategyId x = 0; x < static_cast<StrategyId>(family->size()); ++x) {
    const auto& list = policy.update_list(x);
    const ArmSpan expected = sg.closed_neighborhood(x);
    ASSERT_EQ(list.size(), expected.size()) << "strategy " << x;
    for (std::size_t i = 0; i < list.size(); ++i) {
      EXPECT_EQ(list[i], static_cast<StrategyId>(expected[i]));
    }
  }
}

TEST(DflCso, ObservableScopeIsSuperset) {
  const auto family = fig2_family();
  DflCso faithful(family);
  DflCso observable(family,
                    DflCsoOptions{.scope = CsoUpdateScope::kAllObservable});
  for (StrategyId x = 0; x < static_cast<StrategyId>(family->size()); ++x) {
    const auto& small = faithful.update_list(x);
    const auto& big = observable.update_list(x);
    EXPECT_GE(big.size(), small.size());
    for (const StrategyId y : small) {
      EXPECT_NE(std::find(big.begin(), big.end(), y), big.end());
    }
  }
  EXPECT_EQ(observable.name(), "DFL-CSO(all-observable)");
}

TEST(DflCso, ObserveComputesStrategyRewards) {
  const auto family = fig2_family();
  DflCso policy(family);
  // Play s4 = {0,2} (Y = all arms): rewards 1,2,4,8 per arm.
  const auto id = family->find({0, 2});
  ASSERT_TRUE(id.has_value());
  policy.observe(*id, 1, family_obs(*family, *id, {1, 2, 4, 8}));
  // Every SG-closed-neighbor y of s4 gets R_y = sum of its component arms.
  for (const StrategyId y : policy.update_list(*id)) {
    double expected = 0.0;
    for (const ArmId a : family->strategy(y)) {
      expected += std::pow(2.0, static_cast<double>(a));
    }
    EXPECT_EQ(policy.observation_count(y), 1);
    EXPECT_DOUBLE_EQ(policy.empirical_mean(y), expected) << "strategy " << y;
  }
}

TEST(DflCso, UnupdatedStrategiesKeepInfiniteIndex) {
  const auto family = fig2_family();
  DflCso policy(family);
  const auto id = family->find({3});
  ASSERT_TRUE(id.has_value());
  policy.observe(*id, 1, family_obs(*family, *id, {0, 0, 0.5, 0.5}));
  // s0 = {0} is not observable from {3} (Y = {2,3}).
  const auto id0 = family->find({0});
  EXPECT_TRUE(std::isinf(policy.index(*id0, 2)));
}

TEST(DflCso, SelectPrefersUnobserved) {
  const auto family = fig2_family();
  DflCso policy(family);
  const auto first = policy.select(1);
  EXPECT_GE(first, 0);
  EXPECT_LT(first, static_cast<StrategyId>(family->size()));
}

TEST(DflCso, IndexUsesFamilySizeAsK) {
  const auto family = fig2_family();
  DflCso policy(family);
  const auto id = family->find({0});
  ASSERT_TRUE(id.has_value());
  policy.observe(*id, 1, family_obs(*family, *id, {1, 1, 0, 0}));
  // O = 1, mean = 1 (strategy {0} reward = arm0 = 1). ratio = t/(7·1).
  const TimeSlot t = 70;
  EXPECT_NEAR(policy.index(*id, t), 1.0 + std::sqrt(std::log(10.0)), 1e-12);
}

TEST(DflCso, ResetClearsStats) {
  const auto family = fig2_family();
  DflCso policy(family);
  policy.observe(0, 1, family_obs(*family, 0, {1, 1, 1, 1}));
  policy.reset();
  EXPECT_EQ(policy.observation_count(0), 0);
}

TEST(DflCso, ConvergesToBestStrategy) {
  // Means: arm1 = 0.9 best single... strategies are ISs of the path; the
  // best CSO strategy is {1,3}: λ = 0.9 + 0.8 = 1.7.
  const auto family = fig2_family();
  const std::vector<double> means{0.1, 0.9, 0.2, 0.8};
  DflCso policy(family);
  Xoshiro256 rng(3);
  std::vector<std::int64_t> plays(family->size(), 0);
  for (TimeSlot t = 1; t <= 5000; ++t) {
    const StrategyId x = policy.select(t);
    ++plays[static_cast<std::size_t>(x)];
    std::vector<double> values(4);
    for (std::size_t i = 0; i < 4; ++i) {
      values[i] = rng.bernoulli(means[i]) ? 1.0 : 0.0;
    }
    policy.observe(x, t, family_obs(*family, x, values));
  }
  const auto best = family->find({1, 3});
  ASSERT_TRUE(best.has_value());
  EXPECT_GT(plays[static_cast<std::size_t>(*best)], 3500);
}

// SG is the family's: every DflCso over one family reads the same graph
// (its update lists are views into that one SG), including when the
// policies are constructed concurrently, where std::call_once must make the
// second constructor wait for the first build instead of racing it.
TEST(DflCso, ConcurrentConstructionSharesOneStrategyGraph) {
  Xoshiro256 rng(5);
  const auto family = std::make_shared<const FeasibleSet>(make_subset_family(
      std::make_shared<const Graph>(erdos_renyi(14, 0.3, rng)), 3));
  std::optional<DflCso> a, b;
  std::thread ta([&] { a.emplace(family); });
  std::thread tb([&] { b.emplace(family); });
  ta.join();
  tb.join();
  const Graph& sg = family->strategy_graph();
  EXPECT_FALSE(sg.has_bitset_rows());
  EXPECT_EQ(sg.edges(), build_strategy_graph(*family).edges());
  for (StrategyId x = 0; x < static_cast<StrategyId>(family->size()); ++x) {
    ASSERT_EQ(a->update_list(x).data(), sg.closed_neighborhood(x).data());
    ASSERT_EQ(b->update_list(x).data(), sg.closed_neighborhood(x).data());
  }
  // The observable lists are cached the same way.
  DflCso observable(family,
                    DflCsoOptions{.scope = CsoUpdateScope::kAllObservable});
  for (StrategyId x = 0; x < static_cast<StrategyId>(family->size()); ++x) {
    EXPECT_EQ(observable.update_list(x).to_vector(),
              observable_strategies(*family, x));
    EXPECT_EQ(observable.update_list(x).data(), family->observable(x).data());
  }
}

// The per-count width memo, on the benchmark's combinatorial instance
// (K = 20, ER(0.3), M <= 3, seed 1; |F| = 1,350) over 5,000 slots. Before
// the memo every off-plateau refresh evaluated the width itself: 383,247
// evaluations on this run (≈77 per slot); the memo evaluates it once per
// distinct count O_x per select, 6,900 times (≈1.4 per slot). Holding the
// cache through one power-of-two epoch instead of each com-arm's own
// plateau resolves bounds on more counts: 6,900 → 10,851 (≈2.2 per slot),
// with the 74,372 tie-break draws unchanged. Both counters are
// reset-scoped.
TEST(DflCso, WidthMemoCountsOnBenchmarkInstance) {
  ExperimentConfig config;
  config.num_arms = 20;
  config.edge_probability = 0.3;
  config.strategy_size = 3;
  config.seed = 1;
  const BanditInstance instance = build_instance(config);
  const auto family = build_family(config, instance.graph());
  ASSERT_EQ(family->size(), 1350u);
  DflCso policy(family, DflCsoOptions{.seed = 1});
  Environment env(instance, 1);
  RunnerOptions options;
  options.horizon = 5000;
  options.record_series = false;
  (void)run_combinatorial(policy, *family, env, Scenario::kCso, options);
  EXPECT_EQ(policy.com_arm_learner().width_evaluations(), 10851u);
  EXPECT_EQ(policy.com_arm_learner().tie_break_draws(), 74372u);
  policy.reset();
  EXPECT_EQ(policy.com_arm_learner().width_evaluations(), 0u);
  EXPECT_EQ(policy.com_arm_learner().tie_break_draws(), 0u);
}

TEST(DflCso, NullFamilyThrows) {
  EXPECT_THROW(DflCso(nullptr), std::invalid_argument);
}

}  // namespace
}  // namespace ncb
