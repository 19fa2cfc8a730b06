#include "strategy/oracle.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace ncb {
namespace {

std::shared_ptr<const Graph> shared_graph(Graph g) {
  return std::make_shared<const Graph>(std::move(g));
}

TEST(CoverageValue, HandComputed) {
  const auto family = make_subset_family(shared_graph(path_graph(4)), 2);
  const std::vector<double> scores{1.0, 2.0, 4.0, 8.0};
  // Strategy {0}: Y = {0,1} → 3. Strategy {0,3}: Y = {0,1,2,3} → 15.
  const auto id0 = family.find({0});
  const auto id03 = family.find({0, 3});
  ASSERT_TRUE(id0 && id03);
  EXPECT_DOUBLE_EQ(coverage_value(family, *id0, scores), 3.0);
  EXPECT_DOUBLE_EQ(coverage_value(family, *id03, scores), 15.0);
}

TEST(ModularValue, HandComputed) {
  const auto family = make_subset_family(shared_graph(path_graph(4)), 2);
  const std::vector<double> scores{1.0, 2.0, 4.0, 8.0};
  const auto id13 = family.find({1, 3});
  ASSERT_TRUE(id13);
  EXPECT_DOUBLE_EQ(modular_value(family, *id13, scores), 10.0);
}

TEST(ExactCoverageOracle, PicksArgmax) {
  const auto family = make_subset_family(shared_graph(path_graph(4)), 2);
  const ExactCoverageOracle oracle;
  const std::vector<double> scores{1.0, 2.0, 4.0, 8.0};
  const StrategyId best = oracle.select(family, scores);
  // Full coverage {0,1,2,3} is reachable (e.g. {0,2}, {0,3}, {1,3}), value 15.
  EXPECT_DOUBLE_EQ(coverage_value(family, best, scores), 15.0);
}

TEST(ExactCoverageOracle, SizeMismatchThrows) {
  const auto family = make_subset_family(shared_graph(path_graph(4)), 2);
  const ExactCoverageOracle oracle;
  EXPECT_THROW(static_cast<void>(oracle.select(family, {1.0})),
               std::invalid_argument);
}

TEST(ExactCoverageOracle, MatchesBruteForceOnRandomInstances) {
  Xoshiro256 rng(31);
  const ExactCoverageOracle oracle;
  for (int trial = 0; trial < 10; ++trial) {
    const auto family =
        make_subset_family(shared_graph(erdos_renyi(8, 0.4, rng)), 2);
    std::vector<double> scores(8);
    for (auto& s : scores) s = rng.uniform();
    const StrategyId chosen = oracle.select(family, scores);
    double best = -1.0;
    for (StrategyId x = 0; x < static_cast<StrategyId>(family.size()); ++x) {
      best = std::max(best, coverage_value(family, x, scores));
    }
    EXPECT_NEAR(coverage_value(family, chosen, scores), best, 1e-12);
  }
}

TEST(ArgmaxModular, MatchesBruteForce) {
  Xoshiro256 rng(37);
  const auto family =
      make_subset_family(shared_graph(erdos_renyi(9, 0.3, rng)), 3);
  std::vector<double> scores(9);
  for (auto& s : scores) s = rng.uniform();
  const StrategyId chosen = argmax_modular(family, scores);
  double best = -1.0;
  for (StrategyId x = 0; x < static_cast<StrategyId>(family.size()); ++x) {
    best = std::max(best, modular_value(family, x, scores));
  }
  EXPECT_NEAR(modular_value(family, chosen, scores), best, 1e-12);
}

TEST(GreedyCoverageOracle, ExactOnModularCase) {
  // Empty graph: coverage is modular, greedy is optimal.
  const auto family = make_subset_family(shared_graph(empty_graph(6)), 2);
  const GreedyCoverageOracle greedy;
  const ExactCoverageOracle exact;
  const std::vector<double> scores{0.1, 0.9, 0.3, 0.8, 0.2, 0.5};
  const StrategyId g = greedy.select(family, scores);
  const StrategyId e = exact.select(family, scores);
  EXPECT_DOUBLE_EQ(coverage_value(family, g, scores),
                   coverage_value(family, e, scores));
}

TEST(GreedyCoverageOracle, RequiresSubsetFamily) {
  const auto family = make_independent_set_family(shared_graph(path_graph(4)));
  const GreedyCoverageOracle greedy;
  EXPECT_THROW(static_cast<void>(greedy.select(family, {1, 1, 1, 1})),
               std::invalid_argument);
}

TEST(GreedyCoverageOracle, ApproximationGuaranteeHolds) {
  Xoshiro256 rng(41);
  const GreedyCoverageOracle greedy;
  const ExactCoverageOracle exact;
  for (int trial = 0; trial < 10; ++trial) {
    const auto family =
        make_subset_family(shared_graph(erdos_renyi(10, 0.3, rng)), 3);
    std::vector<double> scores(10);
    for (auto& s : scores) s = rng.uniform();
    const double g = coverage_value(family, greedy.select(family, scores), scores);
    const double e = coverage_value(family, exact.select(family, scores), scores);
    EXPECT_GE(g, (1.0 - 1.0 / std::exp(1.0)) * e - 1e-9);
    EXPECT_LE(g, e + 1e-12);
  }
}

TEST(GreedyCoverageOracle, ExactSizeFamilyFillsUp) {
  const auto family =
      make_subset_family(shared_graph(empty_graph(5)), 3, /*exact=*/true);
  const GreedyCoverageOracle greedy;
  const StrategyId x = greedy.select(family, {0.5, 0.4, 0.3, 0.2, 0.1});
  EXPECT_EQ(family.strategy(x).size(), 3u);
  EXPECT_EQ(family.strategy(x), (ArmSet{0, 1, 2}));
}

TEST(GreedyCoverageOracle, NegativeScoresClamped) {
  const auto family = make_subset_family(shared_graph(empty_graph(4)), 2);
  const GreedyCoverageOracle greedy;
  // All-negative scores: greedy still returns a valid strategy.
  const StrategyId x = greedy.select(family, {-1.0, -2.0, -3.0, -4.0});
  EXPECT_LT(x, static_cast<StrategyId>(family.size()));
  EXPECT_GE(x, 0);
}

TEST(Oracles, TieBreaksDeterministically) {
  const auto family = make_subset_family(shared_graph(empty_graph(3)), 1);
  const ExactCoverageOracle oracle;
  // All equal scores: smallest strategy id wins.
  EXPECT_EQ(oracle.select(family, {0.5, 0.5, 0.5}), 0);
  EXPECT_EQ(argmax_modular(family, {0.5, 0.5, 0.5}), 0);
}

// The exact oracles sum over a prefix-sharing tree; they must return exactly
// the index a first-strict-maximum scan over coverage_value / modular_value
// returns, on every family shape and on scores full of ties, negatives,
// signed zeros, 1e6 and +inf (where a reassociated or reordered sum would
// pick a different tied or near-tied strategy).
StrategyId reference_argmax(const FeasibleSet& family,
                            const std::vector<double>& scores, bool coverage) {
  StrategyId best = 0;
  double best_value = -std::numeric_limits<double>::infinity();
  for (StrategyId x = 0; x < static_cast<StrategyId>(family.size()); ++x) {
    const double v = coverage ? coverage_value(family, x, scores)
                              : modular_value(family, x, scores);
    if (v > best_value) {
      best_value = v;
      best = x;
    }
  }
  return best;
}

std::vector<FeasibleSet> property_families(Xoshiro256& rng) {
  std::vector<FeasibleSet> out;
  const auto graph = shared_graph(erdos_renyi(9, 0.3, rng));
  out.push_back(make_subset_family(graph, 3));
  out.push_back(make_subset_family(graph, 3, /*exact=*/true));
  out.push_back(make_independent_set_family(graph, 4));
  std::vector<int> groups(9);
  for (int& g : groups) g = static_cast<int>(rng.uniform_int(3));
  out.push_back(make_partition_matroid_family(graph, groups, 2));
  // Explicit: random subsets in random order, so rows sharing a prefix
  // are not adjacent in the family.
  std::set<ArmSet> seen;
  std::vector<ArmSet> explicit_rows;
  for (int i = 0; i < 60; ++i) {
    ArmSet s;
    for (ArmId a = 0; a < 9; ++a) {
      if (rng.bernoulli(0.3)) s.push_back(a);
    }
    if (!s.empty() && seen.insert(s).second) explicit_rows.push_back(s);
  }
  out.push_back(make_explicit_family(graph, explicit_rows));
  return out;
}

std::vector<double> property_scores(Xoshiro256& rng, std::size_t n) {
  const double palette[] = {0.0,  -0.0, 1.0, 0.5, -0.25, -3.0,
                            1e6, std::numeric_limits<double>::infinity()};
  std::vector<double> scores(n);
  const int mode = static_cast<int>(rng.uniform_int(5));
  for (double& s : scores) {
    switch (mode) {
      case 0: s = rng.bernoulli(0.5) ? 1.0 : 0.0; break;  // many ties
      case 1: s = palette[rng.uniform_int(7)]; break;     // finite mix
      case 2: s = palette[rng.uniform_int(8)]; break;     // with +inf
      // Tenths: equal-looking sums that differ only by rounding, so any
      // other summation order flips near-ties (0.1+0.2+0.3 > 0.6).
      case 3: s = 0.1 * static_cast<double>(1 + rng.uniform_int(7)); break;
      default: s = rng.uniform(-1.0, 1.0); break;
    }
  }
  return scores;
}

TEST(ExactOracles, TreeSumMatchesReferenceScanExactly) {
  Xoshiro256 rng(43);
  const ExactCoverageOracle oracle;  // one oracle: scratch reused
  std::vector<double> scratch;       // across families of every size
  for (int trial = 0; trial < 8; ++trial) {
    for (const FeasibleSet& family : property_families(rng)) {
      SCOPED_TRACE("family kind " + std::to_string(static_cast<int>(
                                        family.kind())));
      for (int draw = 0; draw < 25; ++draw) {
        const std::vector<double> scores = property_scores(rng, 9);
        EXPECT_EQ(oracle.select(family, scores),
                  reference_argmax(family, scores, /*coverage=*/true));
        EXPECT_EQ(argmax_modular(family, scores, scratch),
                  reference_argmax(family, scores, /*coverage=*/false));
      }
    }
  }
}

TEST(ExactOracles, TreeSharesPrefixes) {
  Xoshiro256 rng(47);
  const auto family =
      make_subset_family(shared_graph(erdos_renyi(12, 0.3, rng)), 3);
  // One node per distinct s_x prefix: every ≤3-subset is its own prefix,
  // plus the root.
  EXPECT_EQ(family.strategy_tree().num_nodes(), family.size() + 1);
  std::size_t row_entries = 0;
  for (StrategyId x = 0; x < static_cast<StrategyId>(family.size()); ++x) {
    row_entries += family.neighborhood(x).size();
  }
  EXPECT_LT(family.neighborhood_tree().num_nodes(), row_entries);
}

}  // namespace
}  // namespace ncb
