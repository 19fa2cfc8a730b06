// Cross-module integration tests: the paper's qualitative claims on small,
// fast instances. These assert the *shape* results the figures show —
// convergence to zero per-slot regret, and DFL-SSO dominating MOSS.
#include <gtest/gtest.h>

#include "core/policy_registry.hpp"
#include "graph/generators.hpp"
#include "sim/experiment.hpp"
#include "sim/replication.hpp"

namespace ncb {
namespace {

BanditInstance er_instance(std::size_t k, double p, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  return random_bernoulli_instance(erdos_renyi(k, p, rng), rng);
}

ReplicationOptions opts(std::size_t reps, TimeSlot horizon) {
  ReplicationOptions o;
  o.replications = reps;
  o.master_seed = 777;
  o.runner.horizon = horizon;
  return o;
}

SinglePolicyFactory named_factory(const std::string& name, TimeSlot horizon) {
  return [name, horizon](std::uint64_t seed) {
    return PolicyRegistry::instance().make_single_play(name, horizon, seed);
  };
}

double tail_mean(const std::vector<double>& series, std::size_t window) {
  double total = 0.0;
  for (std::size_t i = 0; i < window; ++i) {
    total += series[series.size() - 1 - i];
  }
  return total / static_cast<double>(window);
}

TEST(Integration, DflSsoBeatsMossOnConnectedGraph) {
  // Fig. 3's claim on a reduced instance: K = 30, n = 3000.
  const auto inst = er_instance(30, 0.3, 11);
  const TimeSlot n = 3000;
  const auto sso = run_replicated_single(named_factory("dfl-sso", n), inst,
                                         Scenario::kSso, opts(10, n));
  const auto moss = run_replicated_single(named_factory("moss", n), inst,
                                          Scenario::kSso, opts(10, n));
  EXPECT_LT(sso.final_cumulative.mean(), moss.final_cumulative.mean());
}

TEST(Integration, DflSsoEqualsMossShapeOnEmptyGraph) {
  // Without edges there is no side information: both anytime-MOSS-style
  // policies should end with comparable cumulative regret (within 2x).
  const auto inst = er_instance(10, 0.0, 13);
  const TimeSlot n = 2000;
  const auto sso = run_replicated_single(named_factory("dfl-sso", n), inst,
                                         Scenario::kSso, opts(10, n));
  const auto moss = run_replicated_single(named_factory("moss-anytime", n),
                                          inst, Scenario::kSso, opts(10, n));
  const double a = sso.final_cumulative.mean();
  const double b = moss.final_cumulative.mean();
  EXPECT_LT(a, 2.0 * b + 50.0);
  EXPECT_LT(b, 2.0 * a + 50.0);
}

TEST(Integration, DflSsoZeroRegretTrend) {
  // R_t/t must shrink substantially from t = 100 to t = n.
  const auto inst = er_instance(20, 0.3, 17);
  const TimeSlot n = 4000;
  const auto result = run_replicated_single(named_factory("dfl-sso", n), inst,
                                            Scenario::kSso, opts(10, n));
  const auto avg = result.average_regret();
  EXPECT_LT(avg.back(), 0.5 * avg[99]);
}

TEST(Integration, DflSsrConvergesToZeroPerSlotRegret) {
  // Fig. 5's claim: expected regret → 0.
  const auto inst = er_instance(15, 0.3, 19);
  const TimeSlot n = 4000;
  const auto result = run_replicated_single(named_factory("dfl-ssr", n), inst,
                                            Scenario::kSsr, opts(10, n));
  const auto pseudo = result.per_slot_pseudo_regret.means();
  EXPECT_LT(tail_mean(pseudo, 200), 0.15);
}

TEST(Integration, DflCsoConvergesOnDenseGraph) {
  // Fig. 4(b)'s claim on a reduced instance.
  ExperimentConfig c;
  c.num_arms = 10;
  c.edge_probability = 0.6;
  c.horizon = 3000;
  c.replications = 6;
  c.strategy_size = 2;
  const auto result = run_combinatorial_experiment(c, "dfl-cso", Scenario::kCso);
  const auto pseudo = result.per_slot_pseudo_regret.means();
  EXPECT_LT(tail_mean(pseudo, 150), 0.2);
}

TEST(Integration, DflCsrConvergesToZeroPerSlotRegret) {
  // Fig. 6's claim on a reduced instance.
  ExperimentConfig c;
  c.num_arms = 10;
  c.edge_probability = 0.3;
  c.horizon = 3000;
  c.replications = 6;
  c.strategy_size = 2;
  const auto result = run_combinatorial_experiment(c, "dfl-csr", Scenario::kCsr);
  const auto pseudo = result.per_slot_pseudo_regret.means();
  EXPECT_LT(tail_mean(pseudo, 150), 0.25);
}

TEST(Integration, SidePoliciesBeatRandom) {
  const auto inst = er_instance(15, 0.4, 23);
  const TimeSlot n = 2000;
  const auto random = run_replicated_single(named_factory("random", n), inst,
                                            Scenario::kSso, opts(6, n));
  for (const char* name : {"dfl-sso", "ucb-n", "ucb1", "thompson"}) {
    const auto result = run_replicated_single(named_factory(name, n), inst,
                                              Scenario::kSso, opts(6, n));
    EXPECT_LT(result.final_cumulative.mean(),
              0.8 * random.final_cumulative.mean())
        << name;
  }
}

TEST(Integration, UcbNBenefitsFromSideObservations) {
  const auto inst = er_instance(25, 0.4, 29);
  const TimeSlot n = 2500;
  const auto ucb_n = run_replicated_single(named_factory("ucb-n", n), inst,
                                           Scenario::kSso, opts(8, n));
  const auto ucb1 = run_replicated_single(named_factory("ucb1", n), inst,
                                          Scenario::kSso, opts(8, n));
  EXPECT_LT(ucb_n.final_cumulative.mean(), ucb1.final_cumulative.mean());
}

TEST(Integration, DenserGraphsHelpDflSso) {
  // Side observation grows with density; cumulative regret should drop.
  const TimeSlot n = 2500;
  const auto sparse = run_replicated_single(
      named_factory("dfl-sso", n), er_instance(30, 0.1, 31), Scenario::kSso,
      opts(8, n));
  const auto dense = run_replicated_single(
      named_factory("dfl-sso", n), er_instance(30, 0.8, 31), Scenario::kSso,
      opts(8, n));
  EXPECT_LT(dense.final_cumulative.mean(), sparse.final_cumulative.mean());
}

TEST(Integration, SsrOptimumDiffersFromSsoOptimum) {
  // A concrete instance where maximizing side reward changes the target,
  // and DFL-SSR finds it: star whose hub has a poor direct mean.
  const Graph g = star_graph(5);
  auto inst = bernoulli_instance(g, {0.1, 0.9, 0.5, 0.5, 0.5});
  ASSERT_EQ(inst.best_arm(), 1);
  ASSERT_EQ(inst.best_side_reward_arm(), 0);
  const TimeSlot n = 3000;
  const auto result = run_replicated_single(named_factory("dfl-ssr", n), inst,
                                            Scenario::kSsr, opts(6, n));
  const auto pseudo = result.per_slot_pseudo_regret.means();
  EXPECT_LT(tail_mean(pseudo, 100), 0.2);
}

TEST(Integration, CsoAllObservableAtLeastAsGoodAsFaithful) {
  // More updates at equal observation cost should not hurt (allow noise).
  ExperimentConfig c;
  c.num_arms = 10;
  c.edge_probability = 0.5;
  c.horizon = 2500;
  c.replications = 6;
  c.strategy_size = 2;
  const auto faithful = run_combinatorial_experiment(c, "dfl-cso", Scenario::kCso);
  const auto observable =
      run_combinatorial_experiment(c, "dfl-cso-observable", Scenario::kCso);
  EXPECT_LT(observable.final_cumulative.mean(),
            1.3 * faithful.final_cumulative.mean() + 20.0);
}

}  // namespace
}  // namespace ncb
