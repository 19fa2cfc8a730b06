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
#include <vector>

#include <gtest/gtest.h>

#include "core/policy_registry.hpp"
#include "graph/generators.hpp"
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

// 5 combinatorial policies x 3 graphs, K = 16, all subsets of size <= 3
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
    {"dfl-cso-observable", "er", 473111731027289226ULL,
     {454, 346, 179, 664, 544, 340, 216, 207, 44, 189, 306, 227,
      414, 270, 335, 317, 315, 215, 521, 348, 226, 225, 168, 377}},
    {"dfl-cso-observable", "star", 2683993538054221139ULL,
     {454, 323, 54, 639, 228, 580, 666, 687, 501, 533, 541, 283,
      285, 577, 277, 523, 324, 302, 514, 481, 289, 282, 289, 479}},
    {"dfl-cso-observable", "cliques", 4978406605887744465ULL,
     {454, 550, 22, 79, 198, 554, 201, 469, 590, 414, 232, 369,
      618, 366, 369, 232, 367, 618, 366, 366, 366, 369, 369, 369}},
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
// cell (pi, gi) is seeded 2000*(pi+1)+gi.
const std::vector<std::string> kPolicies = {
    "dfl-cso", "dfl-cso-observable", "dfl-csr", "dfl-csr-greedy", "cucb"};
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
    while (kPolicies[pi] != golden.policy) ++pi;
    while (kGraphNames[gi] != golden.graph) ++gi;
    SCOPED_TRACE(std::string(golden.policy) + " on " + golden.graph);
    const std::vector<StrategyId> selections =
        run_trace(golden.policy, golden.graph, 2000 * (pi + 1) + gi);
    for (std::size_t i = 0; i < golden.head.size(); ++i) {
      EXPECT_EQ(selections[i], golden.head[i]) << "slot " << (i + 1);
    }
    EXPECT_EQ(fnv1a(selections), golden.selection_hash);
  }
}

// Every (policy, graph) cell of the capture grid must be present above.
TEST(CombinatorialGoldens, GridIsComplete) {
  EXPECT_EQ(std::size(kGoldens), kPolicies.size() * kGraphNames.size());
  for (const auto& p : kPolicies) {
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
