// Golden select-trace regression for the combinatorial policies.
//
// DFL-CSO runs as DFL-SSO over the strategy relation graph, and the exact
// coverage / modular oracles sum over a prefix-sharing tree. Both must be
// behaviorally invisible: for a fixed seed and reward stream, every
// combinatorial policy must select the exact same strategy sequence as the
// per-policy full-rescan implementation it replaced. The expectations below
// were captured from that implementation and must never change.
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/cucb.hpp"
#include "core/dfl_csr.hpp"
#include "core/policy_registry.hpp"
#include "env/environment.hpp"
#include "graph/generators.hpp"
#include "sim/experiment.hpp"
#include "sim/runner.hpp"
#include "strategy/feasible_set.hpp"
#include "util/rng.hpp"

namespace ncb {
namespace {

struct GoldenTrace {
  const char* policy;
  const char* graph;
  std::uint64_t selection_hash;  // FNV-1a over all 400 selections
  std::vector<StrategyId> head;  // first 24 selections
};

// 4 combinatorial policies x 3 graphs, K = 16, all subsets of size <= 3
// (|F| = 696), 400 slots, Bernoulli(0.5) rewards over Y_x seeded per cell.
const GoldenTrace kGoldens[] = {
    {"dfl-cso", "er", 6007096959898461741ULL,
     {454, 316, 65, 644, 283, 599, 91, 178, 394, 420, 654, 141,
      661, 423, 485, 241, 180, 172, 586, 215, 666, 359, 503, 543}},
    {"dfl-cso", "star", 5162661244977024427ULL,
     {454, 317, 40, 604, 166, 485, 579, 314, 100, 572, 103, 557,
      558, 409, 504, 62, 350, 529, 35, 496, 652, 366, 320, 553}},
    {"dfl-cso", "cliques", 5407097819800371501ULL,
     {454, 342, 105, 596, 354, 76, 26, 688, 49, 190, 7, 109,
      0, 12, 302, 252, 612, 151, 513, 264, 319, 321, 522, 667}},
    {"dfl-csr", "er", 14819231142731526078ULL,
     {445, 595, 302, 445, 637, 445, 445, 445, 445, 445, 445, 445,
      445, 445, 445, 445, 445, 445, 445, 445, 445, 445, 445, 445}},
    {"dfl-csr", "star", 4601841193665760899ULL,
     {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
      0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
    {"dfl-csr", "cliques", 10631277672109778189ULL,
     {178, 182, 178, 178, 178, 178, 178, 178, 178, 178, 178, 178,
      178, 178, 178, 178, 178, 178, 178, 178, 178, 178, 178, 178}},
    {"dfl-csr-greedy", "er", 7607851973488259398ULL,
     {445, 595, 673, 673, 673, 673, 673, 673, 673, 673, 673, 673,
      673, 673, 673, 673, 673, 673, 673, 673, 673, 673, 673, 673}},
    {"dfl-csr-greedy", "star", 4601841193665760899ULL,
     {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
      0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
    {"dfl-csr-greedy", "cliques", 4974424862748162733ULL,
     {178, 216, 216, 216, 216, 216, 216, 216, 216, 216, 216, 216,
      216, 216, 216, 216, 216, 216, 216, 216, 216, 216, 216, 216}},
    {"cucb", "er", 13540824515241041256ULL,
     {136, 410, 576, 661, 692, 149, 332, 613, 687, 174, 656, 167,
      236, 421, 314, 344, 577, 679, 139, 578, 325, 532, 681, 454}},
    {"cucb", "star", 16177478974935066199ULL,
     {136, 410, 576, 661, 692, 354, 576, 678, 354, 600, 345, 398,
      140, 424, 570, 612, 569, 620, 497, 402, 486, 345, 366, 560}},
    {"cucb", "cliques", 9354658488666204047ULL,
     {136, 410, 576, 661, 692, 195, 640, 692, 193, 329, 332, 579,
      454, 661, 237, 559, 574, 195, 560, 453, 461, 171, 692, 171}},
};

std::uint64_t fnv1a(const std::vector<StrategyId>& xs) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const StrategyId x : xs) {
    for (int b = 0; b < 4; ++b) {
      h ^= static_cast<std::uint64_t>(
          (static_cast<std::uint32_t>(x) >> (8 * b)) & 0xff);
      h *= 1099511628211ULL;
    }
  }
  return h;
}

// Policy/graph order must match the capture harness: the reward stream for
// cell (pi, gi) is seeded 2000*(pi+1)+gi, pi the policy's position in the
// capture. Position 1 belonged to a since-deleted DFL-CSO variant; the
// others keep their positions, so every stream is the captured one.
const std::vector<std::pair<std::string, std::size_t>> kPolicies = {
    {"dfl-cso", 0}, {"dfl-csr", 2}, {"dfl-csr-greedy", 3}, {"cucb", 4}};
const std::vector<std::string> kGraphNames = {"er", "star", "cliques"};

std::shared_ptr<const FeasibleSet> make_family(const std::string& name) {
  Graph g = [&] {
    if (name == "er") {
      Xoshiro256 gen(17);
      return erdos_renyi(16, 0.15, gen);
    }
    if (name == "star") return star_graph(16);
    return disjoint_cliques(4, 4);
  }();
  return std::make_shared<const FeasibleSet>(
      make_subset_family(std::make_shared<const Graph>(std::move(g)), 3));
}

std::vector<StrategyId> run_trace(const std::string& policy_name,
                                  const std::string& graph_name,
                                  std::uint64_t reward_seed) {
  constexpr TimeSlot kSlots = 400;
  const auto family = make_family(graph_name);
  const auto policy =
      PolicyRegistry::instance().make_combinatorial(policy_name, family, 123);
  policy->reset();
  Xoshiro256 rewards(reward_seed);
  std::vector<Observation> batch;
  std::vector<StrategyId> selections;
  selections.reserve(static_cast<std::size_t>(kSlots));
  for (TimeSlot t = 1; t <= kSlots; ++t) {
    const StrategyId x = policy->select(t);
    selections.push_back(x);
    batch.clear();
    for (const ArmId j : family->neighborhood(x)) {
      batch.push_back({j, rewards.bernoulli(0.5) ? 1.0 : 0.0});
    }
    policy->observe(x, t, ObservationSpan(batch.data(), batch.size()));
  }
  return selections;
}

TEST(CombinatorialGoldens, TraceMatchesFullRescanCapture) {
  for (const GoldenTrace& golden : kGoldens) {
    std::size_t pi = 0, gi = 0;
    while (kPolicies[pi].first != golden.policy) ++pi;
    while (kGraphNames[gi] != golden.graph) ++gi;
    SCOPED_TRACE(std::string(golden.policy) + " on " + golden.graph);
    const std::vector<StrategyId> selections = run_trace(
        golden.policy, golden.graph, 2000 * (kPolicies[pi].second + 1) + gi);
    for (std::size_t i = 0; i < golden.head.size(); ++i) {
      EXPECT_EQ(selections[i], golden.head[i]) << "slot " << (i + 1);
    }
    EXPECT_EQ(fnv1a(selections), golden.selection_hash);
  }
}

// The grid above (|F| = 696, 400 slots) never leaves the O_x = 1 plateau
// at t ≤ |F|, so it pins neither hot (off-plateau) com-arms nor a long
// steady state. This case runs the benchmark instance — K = 20, ER(0.3),
// all subsets of size <= 3 (|F| = 1,350), seed 1 — for 3,000 slots, past
// t = 2|F|, with Bernoulli(μ_j) rewards over Y_x. The expectations were
// captured from the implementation before the batched per-count refresh,
// the two-level argmax skip, the branch-free oracle leaf scan, DFL-CSO's
// presized staging buffer and the bound-gated lazy refresh of hot
// com-arms, and must never change.
struct LongRunGolden {
  const char* policy;
  std::uint64_t reward_seed;     // the Bernoulli stream of the capture
  std::uint64_t selection_hash;  // FNV-1a over all 3,000 selections
  std::vector<StrategyId> tail;  // last 16 selections
};

const LongRunGolden kLongRunGoldens[] = {
    {"dfl-cso", 3000, 4479461017448061992ULL,
     {1211, 1211, 1211, 1211, 1211, 1211, 1211, 1211,
      1211, 1211, 1211, 1211, 1211, 1211, 1211, 1211}},
    {"dfl-csr", 3002, 4556602464853175047ULL,
     {310, 310, 310, 310, 310, 310, 310, 310,
      310, 310, 310, 310, 310, 310, 310, 310}},
    {"cucb", 3003, 6038368086120063862ULL,
     {1211, 1211, 1111, 1111, 1111, 1211, 1211, 1211,
      1211, 1211, 1211, 1211, 1211, 1211, 1211, 1211}},
};

TEST(CombinatorialGoldens, LongRunOnBenchmarkInstanceMatchesCapture) {
  constexpr TimeSlot kSlots = 3000;
  ExperimentConfig config;
  config.num_arms = 20;
  config.edge_probability = 0.3;
  config.strategy_size = 3;
  config.seed = 1;
  const BanditInstance instance = build_instance(config);
  const auto family = build_family(config, instance.graph());
  ASSERT_EQ(family->size(), 1350u);
  const std::vector<double>& means = instance.means();
  for (const LongRunGolden& golden : kLongRunGoldens) {
    SCOPED_TRACE(golden.policy);
    const auto policy = PolicyRegistry::instance().make_combinatorial(
        golden.policy, family, 123);
    policy->reset();
    Xoshiro256 rewards(golden.reward_seed);
    std::vector<Observation> batch;
    std::vector<StrategyId> selections;
    selections.reserve(static_cast<std::size_t>(kSlots));
    for (TimeSlot t = 1; t <= kSlots; ++t) {
      const StrategyId x = policy->select(t);
      selections.push_back(x);
      batch.clear();
      for (const ArmId j : family->neighborhood(x)) {
        const double mu = means[static_cast<std::size_t>(j)];
        batch.push_back({j, rewards.bernoulli(mu) ? 1.0 : 0.0});
      }
      policy->observe(x, t, ObservationSpan(batch.data(), batch.size()));
    }
    ASSERT_EQ(golden.tail.size(), 16u);
    for (std::size_t i = 0; i < golden.tail.size(); ++i) {
      const std::size_t slot = selections.size() - golden.tail.size() + i;
      EXPECT_EQ(selections[slot], golden.tail[i]) << "slot " << (slot + 1);
    }
    EXPECT_EQ(fnv1a(selections), golden.selection_hash);
  }
}

// Work counter of the exact oracles' branch-and-bound: prefix-tree nodes
// summed (one add each, the warm-start row included) by DFL-CSR (Y_x tree,
// 3,693 nodes) and CUCB (s_x tree, 1,351 nodes) on the seed-1 benchmark
// instance over 5,000 slots. A full pass sums every node but the root on
// every call: 3,692 and 1,350 per call, 18,460,000 and 6,750,000 here;
// the skip sums 45× and 26× fewer.
// The counters and the warm start are reset-scoped, so a replication's
// count does not depend on what its policy object ran before.
TEST(CombinatorialGoldens, OracleNodesSummedOnBenchmarkInstance) {
  ExperimentConfig config;
  config.num_arms = 20;
  config.edge_probability = 0.3;
  config.strategy_size = 3;
  config.seed = 1;
  const BanditInstance instance = build_instance(config);
  const auto family = build_family(config, instance.graph());
  ASSERT_EQ(family->neighborhood_tree().num_nodes(), 3693u);
  ASSERT_EQ(family->strategy_tree().num_nodes(), 1351u);
  RunnerOptions options;
  options.horizon = 5000;
  options.record_series = false;

  DflCsr csr(family, nullptr, DflCsrOptions{.seed = 1});
  const auto& oracle =
      dynamic_cast<const ExactCoverageOracle&>(csr.oracle());
  Cucb cucb(family, CucbOptions{.seed = 1});
  for (int run = 0; run < 2; ++run) {
    SCOPED_TRACE("run " + std::to_string(run));
    Environment csr_env(instance, 1);
    (void)run_combinatorial(csr, *family, csr_env, Scenario::kCsr, options);
    EXPECT_EQ(oracle.nodes_summed(), 406456u);  // 81.3 per call
    Environment cucb_env(instance, 1);
    (void)run_combinatorial(cucb, *family, cucb_env, Scenario::kCso, options);
    EXPECT_EQ(cucb.oracle_nodes_summed(), 261528u);  // 52.3 per call
  }
  csr.reset();
  cucb.reset();
  EXPECT_EQ(oracle.nodes_summed(), 0u);
  EXPECT_EQ(cucb.oracle_nodes_summed(), 0u);
}

// Every (policy, graph) cell of the capture grid must be present above.
TEST(CombinatorialGoldens, GridIsComplete) {
  EXPECT_EQ(std::size(kGoldens), kPolicies.size() * kGraphNames.size());
  for (const auto& policy : kPolicies) {
    const std::string& p = policy.first;
    for (const auto& gname : kGraphNames) {
      bool found = false;
      for (const GoldenTrace& golden : kGoldens) {
        if (p == golden.policy && gname == golden.graph) found = true;
      }
      EXPECT_TRUE(found) << p << " on " << gname << " missing";
    }
  }
}

}  // namespace
}  // namespace ncb
