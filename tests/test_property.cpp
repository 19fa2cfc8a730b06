// Property-based suites: structural invariants checked across randomized
// instances (seeds are the TEST_P parameter).
#include <gtest/gtest.h>

#include <numeric>

#include "core/policy_registry.hpp"
#include "graph/clique_cover.hpp"
#include "graph/generators.hpp"
#include "sim/runner.hpp"
#include "strategy/strategy_graph.hpp"

namespace ncb {
namespace {

class RandomGraphProperty : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  Graph make_graph(std::size_t n, double p) {
    Xoshiro256 rng(GetParam());
    return erdos_renyi(n, p, rng);
  }
};

TEST_P(RandomGraphProperty, ClosedNeighborhoodContainsSelfAndNeighbors) {
  const Graph g = make_graph(30, 0.3);
  for (ArmId v = 0; v < 30; ++v) {
    const ArmSpan closed = g.closed_neighborhood(v);
    EXPECT_NE(std::find(closed.begin(), closed.end(), v), closed.end());
    EXPECT_EQ(closed.size(), g.degree(v) + 1);
    for (const ArmId j : g.neighbors(v)) {
      EXPECT_NE(std::find(closed.begin(), closed.end(), j), closed.end());
      EXPECT_TRUE(g.has_edge(v, j));
      EXPECT_TRUE(g.has_edge(j, v));  // symmetry
    }
  }
}

TEST_P(RandomGraphProperty, ComplementInvolution) {
  const Graph g = make_graph(15, 0.4);
  const Graph gcc = g.complement().complement();
  EXPECT_EQ(gcc.edges(), g.edges());
}

TEST_P(RandomGraphProperty, GreedyCliqueCoverValid) {
  const Graph g = make_graph(40, 0.5);
  EXPECT_TRUE(is_valid_clique_cover(g, greedy_clique_cover(g)));
}

TEST_P(RandomGraphProperty, StrategyGraphIsSymmetricAndLoopFree) {
  const Graph g = make_graph(7, 0.4);
  const auto family = std::make_shared<const FeasibleSet>(
      make_subset_family(std::make_shared<const Graph>(g), 2));
  const Graph sg = build_strategy_graph(*family);
  for (StrategyId x = 0; x < static_cast<StrategyId>(family->size()); ++x) {
    EXPECT_FALSE(sg.has_edge(x, x));
    for (StrategyId y = 0; y < static_cast<StrategyId>(family->size()); ++y) {
      EXPECT_EQ(sg.has_edge(x, y), sg.has_edge(y, x));
    }
  }
}

TEST_P(RandomGraphProperty, NeighborhoodMonotoneUnderStrategyGrowth) {
  const Graph g = make_graph(12, 0.3);
  const auto family = std::make_shared<const FeasibleSet>(
      make_subset_family(std::make_shared<const Graph>(g), 3));
  // For every strategy, Y of any subset-strategy is contained in Y of the
  // superset strategy.
  for (StrategyId x = 0; x < static_cast<StrategyId>(family->size()); ++x) {
    for (StrategyId y = 0; y < static_cast<StrategyId>(family->size()); ++y) {
      if (family->strategy_bits(x).is_subset_of(family->strategy_bits(y))) {
        EXPECT_TRUE(family->neighborhood_bits(x).is_subset_of(
            family->neighborhood_bits(y)));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomGraphProperty,
                         ::testing::Values(101, 202, 303, 404, 505, 606, 707,
                                           808));

class RunnerInvariants : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RunnerInvariants, SinglePlayAccountingConsistent) {
  Xoshiro256 rng(GetParam());
  const Graph g = erdos_renyi(12, 0.35, rng);
  auto inst = random_bernoulli_instance(g, rng);
  Environment env(inst, GetParam() * 13 + 1);
  const auto policy =
      PolicyRegistry::instance().make_single_play("dfl-sso", 400, GetParam());
  RunnerOptions opts;
  opts.horizon = 400;
  const auto result = run_single_play(*policy, env, Scenario::kSso, opts);

  // 1. cumulative = prefix sums of per-slot.
  double running = 0.0;
  for (std::size_t t = 0; t < 400; ++t) {
    running += result.per_slot_regret[t];
    ASSERT_NEAR(result.cumulative_regret[t], running, 1e-9);
  }
  // 2. play counts sum to horizon.
  EXPECT_EQ(std::accumulate(result.play_counts.begin(),
                            result.play_counts.end(), std::int64_t{0}),
            400);
  // 3. pseudo-regret non-negative; realized regret bounded by opt − 0 and
  //    opt − K (rewards in [0,1]).
  for (std::size_t t = 0; t < 400; ++t) {
    EXPECT_GE(result.per_slot_pseudo_regret[t], -1e-12);
    EXPECT_LE(result.per_slot_regret[t], result.optimal_per_slot + 1e-12);
    EXPECT_GE(result.per_slot_regret[t], result.optimal_per_slot - 1.0 - 1e-12);
  }
  // 4. total reward + cumulative regret = horizon · optimal.
  EXPECT_NEAR(result.total_reward + result.cumulative_regret.back(),
              400.0 * result.optimal_per_slot, 1e-6);
}

TEST_P(RunnerInvariants, SsrAccountingConsistent) {
  Xoshiro256 rng(GetParam() ^ 0xabcdef);
  const Graph g = erdos_renyi(10, 0.3, rng);
  auto inst = random_bernoulli_instance(g, rng);
  Environment env(inst, GetParam() * 7 + 5);
  const auto policy =
      PolicyRegistry::instance().make_single_play("dfl-ssr", 300, GetParam());
  RunnerOptions opts;
  opts.horizon = 300;
  const auto result = run_single_play(*policy, env, Scenario::kSsr, opts);
  EXPECT_NEAR(result.total_reward + result.cumulative_regret.back(),
              300.0 * result.optimal_per_slot, 1e-6);
  for (const double pr : result.per_slot_pseudo_regret) EXPECT_GE(pr, -1e-12);
}

TEST_P(RunnerInvariants, CombinatorialAccountingConsistent) {
  Xoshiro256 rng(GetParam() ^ 0x123456);
  const Graph g = erdos_renyi(8, 0.4, rng);
  auto inst = random_bernoulli_instance(g, rng);
  const auto family = std::make_shared<const FeasibleSet>(
      make_subset_family(std::make_shared<const Graph>(inst.graph()), 2));
  Environment env(inst, GetParam() + 99);
  for (const char* name : {"dfl-cso", "dfl-csr", "cucb"}) {
    const auto policy =
        PolicyRegistry::instance().make_combinatorial(name, family, GetParam());
    const Scenario scenario =
        std::string(name) == "dfl-csr" ? Scenario::kCsr : Scenario::kCso;
    RunnerOptions opts;
    opts.horizon = 200;
    Environment fresh(inst, GetParam() + 99);
    const auto result =
        run_combinatorial(*policy, *family, fresh, scenario, opts);
    EXPECT_NEAR(result.total_reward + result.cumulative_regret.back(),
                200.0 * result.optimal_per_slot, 1e-6)
        << name;
    for (const double pr : result.per_slot_pseudo_regret) {
      ASSERT_GE(pr, -1e-12) << name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RunnerInvariants,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

class PolicyGraphSweep
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(PolicyGraphSweep, HundredSlotsOnEveryGraphShape) {
  const auto& [policy_name, shape] = GetParam();
  Graph g = empty_graph(1);
  switch (shape) {
    case 0: g = empty_graph(9); break;
    case 1: g = complete_graph(9); break;
    case 2: g = star_graph(9); break;
    case 3: g = cycle_graph(9); break;
    case 4: g = path_graph(9); break;
    default: g = disjoint_cliques(3, 3); break;
  }
  auto policy =
      PolicyRegistry::instance().make_single_play(policy_name, 100, 7);
  policy->reset(g);
  Xoshiro256 rng(55);
  for (TimeSlot t = 1; t <= 100; ++t) {
    const ArmId a = policy->select(t);
    ASSERT_GE(a, 0);
    ASSERT_LT(a, 9);
    std::vector<Observation> obs;
    for (const ArmId j : g.closed_neighborhood(a)) {
      obs.push_back({j, rng.uniform()});
    }
    policy->observe(a, t, obs);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PolicyGraphSweep,
    ::testing::Combine(::testing::Values("dfl-sso", "dfl-ssr", "moss", "ucb-n",
                                         "ucb-maxn", "thompson-side"),
                       ::testing::Range(0, 6)));

}  // namespace
}  // namespace ncb
