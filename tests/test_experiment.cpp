#include "sim/experiment.hpp"

#include <gtest/gtest.h>

#include "exp/sweep_runner.hpp"

namespace ncb {
namespace {

/// The one job of a one-policy spec over `config`'s coordinates: a
/// single-play or combinatorial experiment is one sweep job.
exp::SweepJob experiment_job(const ExperimentConfig& c, const char* policy,
                             Scenario scenario) {
  exp::SweepSpec spec;
  spec.scenario = scenario;
  spec.policies = {policy};
  spec.graphs = {c.graph_family};
  spec.arms = {c.num_arms};
  spec.edge_probabilities = {c.edge_probability};
  spec.horizons = {c.horizon};
  spec.replications = c.replications;
  spec.seed = c.seed;
  spec.strategy_size = c.strategy_size;
  spec.checkpoints = 0;  // dense grid: one sample per slot
  return spec.expand().at(0);
}

TEST(ExperimentConfig, DescribeMentionsKeyFields) {
  const auto c = fig3_config();
  const auto text = c.describe();
  EXPECT_NE(text.find("K=100"), std::string::npos);
  EXPECT_NE(text.find("n=10000"), std::string::npos);
  EXPECT_NE(text.find("ER(p=0.3)"), std::string::npos);
}

TEST(ExperimentConfig, FigureDefaultsMatchPaper) {
  // The figures' workloads are the checked-in specs; fig3_config() is the
  // bench mains' copy of specs/fig3.sweep.
  const auto spec = [](const char* name) {
    return exp::SweepSpec::parse_file(std::string(NCB_SPECS_DIR) + "/" +
                                      name + ".sweep");
  };
  const exp::SweepJob fig3 = spec("fig3").expand().at(1);  // dfl-sso
  EXPECT_EQ(fig3.config.num_arms, fig3_config().num_arms);
  EXPECT_EQ(fig3.config.horizon, fig3_config().horizon);
  EXPECT_DOUBLE_EQ(fig3.config.edge_probability,
                   fig3_config().edge_probability);
  EXPECT_EQ(fig3_config().num_arms, 100u);
  EXPECT_EQ(fig3_config().horizon, 10000);
  EXPECT_EQ(spec("fig5").expand().at(0).config.num_arms, 100u);
  const auto fig4 = spec("fig4").expand();
  ASSERT_EQ(fig4.size(), 2u);
  EXPECT_DOUBLE_EQ(fig4[0].config.edge_probability, 0.3);
  EXPECT_DOUBLE_EQ(fig4[1].config.edge_probability, 0.6);
  EXPECT_EQ(fig4[0].config.strategy_size, 3u);
  EXPECT_EQ(spec("fig6").expand().at(0).config.horizon, 10000);
}

TEST(BuildGraph, DeterministicForFixedSeed) {
  const auto c = fig3_config();
  const Graph a = build_graph(c);
  const Graph b = build_graph(c);
  EXPECT_EQ(a.edges(), b.edges());
  EXPECT_EQ(a.num_vertices(), 100u);
}

TEST(BuildGraph, AllFamiliesConstruct) {
  ExperimentConfig c;
  c.num_arms = 12;
  for (const auto fam :
       {GraphFamily::kErdosRenyi, GraphFamily::kComplete, GraphFamily::kEmpty,
        GraphFamily::kStar, GraphFamily::kCycle,
        GraphFamily::kDisjointCliques, GraphFamily::kBarabasiAlbert,
        GraphFamily::kWattsStrogatz}) {
    c.graph_family = fam;
    c.family_param = fam == GraphFamily::kWattsStrogatz ? 2 : 4;
    if (fam == GraphFamily::kWattsStrogatz) c.edge_probability = 0.2;
    const Graph g = build_graph(c);
    EXPECT_EQ(g.num_vertices(), 12u) << c.describe();
  }
}

TEST(BuildGraph, CliquesMustDivide) {
  ExperimentConfig c;
  c.graph_family = GraphFamily::kDisjointCliques;
  c.num_arms = 10;
  c.family_param = 3;
  EXPECT_THROW((void)build_graph(c), std::invalid_argument);
}

TEST(BuildInstance, MeansUniformAndDeterministic) {
  const auto c = fig3_config();
  const auto a = build_instance(c);
  const auto b = build_instance(c);
  EXPECT_EQ(a.means(), b.means());
  for (const double mu : a.means()) {
    EXPECT_GE(mu, 0.0);
    EXPECT_LE(mu, 1.0);
  }
}

TEST(BuildFamily, RespectsStrategySize) {
  ExperimentConfig c;
  c.num_arms = 8;
  c.strategy_size = 3;
  const auto inst = build_instance(c);
  const auto family = build_family(c, inst.graph());
  EXPECT_EQ(family->max_strategy_size(), 3u);
  // |F| = C(8,1)+C(8,2)+C(8,3) = 8+28+56 = 92.
  EXPECT_EQ(family->size(), 92u);
}

TEST(RunSingleExperiment, SmallEndToEnd) {
  ExperimentConfig c;
  c.num_arms = 10;
  c.horizon = 300;
  c.replications = 3;
  const exp::JobOutcome outcome = exp::run_sweep_job(
      experiment_job(c, "dfl-sso", Scenario::kSso), 0, exp::SweepRunOptions{});
  EXPECT_EQ(outcome.aggregate.replications(), 3u);
  EXPECT_EQ(outcome.aggregate.expected().length(), 300u);
}

TEST(RunCombinatorialExperiment, SmallEndToEnd) {
  ExperimentConfig c;
  c.num_arms = 6;
  c.horizon = 200;
  c.replications = 2;
  c.strategy_size = 2;
  ThreadPool pool(2);
  exp::SweepRunOptions options;
  options.pool = &pool;
  const exp::JobOutcome outcome = exp::run_sweep_job(
      experiment_job(c, "dfl-cso", Scenario::kCso), 0, options);
  EXPECT_EQ(outcome.aggregate.replications(), 2u);
  EXPECT_EQ(outcome.aggregate.cumulative().length(), 200u);
}

TEST(RunSingleExperiment, UnknownPolicyThrows) {
  ExperimentConfig c;
  c.num_arms = 4;
  c.horizon = 10;
  c.replications = 1;
  EXPECT_THROW((void)experiment_job(c, "bogus", Scenario::kSso),
               std::invalid_argument);
}

TEST(ScenarioNames, AllDistinct) {
  EXPECT_EQ(scenario_name(Scenario::kSso), "SSO");
  EXPECT_EQ(scenario_name(Scenario::kCso), "CSO");
  EXPECT_EQ(scenario_name(Scenario::kSsr), "SSR");
  EXPECT_EQ(scenario_name(Scenario::kCsr), "CSR");
  EXPECT_TRUE(is_combinatorial(Scenario::kCso));
  EXPECT_FALSE(is_combinatorial(Scenario::kSsr));
  EXPECT_TRUE(is_side_reward(Scenario::kCsr));
  EXPECT_FALSE(is_side_reward(Scenario::kSso));
}

}  // namespace
}  // namespace ncb
