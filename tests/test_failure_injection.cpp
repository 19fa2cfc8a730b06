// Failure injection: side observations dropped with probability p. The
// policies must degrade gracefully — never crash, never consume phantom
// data — and converge whenever the guaranteed (own-reward) feedback
// suffices.
#include <gtest/gtest.h>

#include "core/dfl_cso.hpp"
#include "core/dfl_sso.hpp"
#include "core/policy_registry.hpp"
#include "graph/generators.hpp"
#include "sim/runner.hpp"

namespace ncb {
namespace {

BanditInstance er_instance(std::size_t k, double p, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  return random_bernoulli_instance(erdos_renyi(k, p, rng), rng);
}

TEST(FailureInjection, FullDropReducesSsoToOwnFeedback) {
  // p = 1: only the played arm reports. DFL-SSO's observation counts must
  // equal its play counts.
  const auto inst = er_instance(8, 0.5, 3);
  Environment env(inst, 7);
  DflSso policy;
  RunnerOptions opts;
  opts.horizon = 300;
  opts.observation_drop_prob = 1.0;
  const auto result = run_single_play(policy, env, Scenario::kSso, opts);
  std::int64_t total_observations = 0;
  for (ArmId i = 0; i < 8; ++i) {
    total_observations += policy.observation_count(i);
    EXPECT_EQ(policy.observation_count(i), result.play_counts[i]) << i;
  }
  EXPECT_EQ(total_observations, 300);
}

TEST(FailureInjection, ZeroDropMatchesBaselineRun) {
  const auto inst = er_instance(10, 0.4, 5);
  RunnerOptions opts;
  opts.horizon = 400;
  Environment env_a(inst, 9);
  DflSso a(DflSsoOptions{.seed = 1});
  const auto clean = run_single_play(a, env_a, Scenario::kSso, opts);
  opts.observation_drop_prob = 0.0;
  Environment env_b(inst, 9);
  DflSso b(DflSsoOptions{.seed = 1});
  const auto with_flag = run_single_play(b, env_b, Scenario::kSso, opts);
  EXPECT_EQ(clean.cumulative_regret, with_flag.cumulative_regret);
}

TEST(FailureInjection, SsrNeverDropsPayoutObservations) {
  // Under SSR the neighborhood payout is received, so drops must not apply:
  // results are identical at any drop probability.
  const auto inst = er_instance(8, 0.5, 11);
  RunnerOptions opts;
  opts.horizon = 300;
  Environment env_a(inst, 13);
  auto a =
      PolicyRegistry::instance().make_single_play("dfl-ssr", opts.horizon, 2);
  const auto clean = run_single_play(*a, env_a, Scenario::kSsr, opts);
  opts.observation_drop_prob = 0.9;
  Environment env_b(inst, 13);
  auto b =
      PolicyRegistry::instance().make_single_play("dfl-ssr", opts.horizon, 2);
  const auto dropped = run_single_play(*b, env_b, Scenario::kSsr, opts);
  EXPECT_EQ(clean.cumulative_regret, dropped.cumulative_regret);
}

TEST(FailureInjection, DflSsoStillConvergesUnderHeavyDrops) {
  const auto inst = er_instance(10, 0.4, 17);
  Environment env(inst, 19);
  DflSso policy;
  RunnerOptions opts;
  opts.horizon = 4000;
  opts.observation_drop_prob = 0.8;
  const auto result = run_single_play(policy, env, Scenario::kSso, opts);
  // Average pseudo-regret over the last tenth must be well below the first.
  double head = 0.0, tail = 0.0;
  for (std::size_t i = 0; i < 400; ++i) {
    head += result.per_slot_pseudo_regret[i];
    tail += result.per_slot_pseudo_regret[result.per_slot_pseudo_regret.size() - 1 - i];
  }
  EXPECT_LT(tail, head);
}

TEST(FailureInjection, CsoSkipsIncompleteComArms) {
  // With all side observations dropped, com-arms can only be updated from
  // their own component arms — possible only when s_y ⊆ s_played, i.e. the
  // played strategy and its sub-strategies. No phantom updates.
  const auto graph = std::make_shared<const Graph>(path_graph(4));
  const auto family =
      std::make_shared<const FeasibleSet>(make_subset_family(graph, 2));
  const auto inst = bernoulli_instance(*graph, {0.2, 0.8, 0.4, 0.6});
  Environment env(inst, 23);
  DflCso policy(family);
  RunnerOptions opts;
  opts.horizon = 200;
  opts.observation_drop_prob = 1.0;
  const auto result =
      run_combinatorial(policy, *family, env, Scenario::kCso, opts);
  // Every strategy's observation count is at most the number of slots, and
  // the run completes with consistent accounting.
  std::int64_t total = 0;
  for (StrategyId x = 0; x < static_cast<StrategyId>(family->size()); ++x) {
    EXPECT_LE(policy.observation_count(x), 200);
    total += policy.observation_count(x);
  }
  EXPECT_GT(total, 0);
  EXPECT_EQ(result.cumulative_regret.size(), 200u);
}

TEST(FailureInjection, DropSeedReproducible) {
  const auto inst = er_instance(8, 0.4, 29);
  RunnerOptions opts;
  opts.horizon = 300;
  opts.observation_drop_prob = 0.5;
  opts.drop_seed = 99;
  Environment env_a(inst, 31);
  DflSso a(DflSsoOptions{.seed = 4});
  const auto r1 = run_single_play(a, env_a, Scenario::kSso, opts);
  Environment env_b(inst, 31);
  DflSso b(DflSsoOptions{.seed = 4});
  const auto r2 = run_single_play(b, env_b, Scenario::kSso, opts);
  EXPECT_EQ(r1.cumulative_regret, r2.cumulative_regret);
}

// Drop-rate sweep: every side-consuming policy survives every drop rate.
class DropSweep : public ::testing::TestWithParam<double> {};

TEST_P(DropSweep, PoliciesSurvive) {
  const auto inst = er_instance(8, 0.5, 37);
  RunnerOptions opts;
  opts.horizon = 200;
  opts.observation_drop_prob = GetParam();
  for (const char* name : {"dfl-sso", "ucb-n", "ucb-maxn", "exp3-set",
                           "thompson-side", "eps-greedy-side"}) {
    Environment env(inst, 41);
    auto policy =
        PolicyRegistry::instance().make_single_play(name, opts.horizon, 6);
    const auto result = run_single_play(*policy, env, Scenario::kSso, opts);
    EXPECT_EQ(result.cumulative_regret.size(), 200u) << name;
  }
}

INSTANTIATE_TEST_SUITE_P(Rates, DropSweep,
                         ::testing::Values(0.0, 0.25, 0.5, 0.75, 1.0));

}  // namespace
}  // namespace ncb
