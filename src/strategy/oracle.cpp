#include "strategy/oracle.hpp"

#include <algorithm>
#include <stdexcept>

namespace ncb {

double coverage_value(const FeasibleSet& family, StrategyId x,
                      const std::vector<double>& scores) {
  double total = 0.0;
  family.neighborhood_bits(x).for_each(
      [&](ArmId i) { total += scores[static_cast<std::size_t>(i)]; });
  return total;
}

double modular_value(const FeasibleSet& family, StrategyId x,
                     const std::vector<double>& scores) {
  double total = 0.0;
  for (const ArmId i : family.strategy(x)) {
    total += scores[static_cast<std::size_t>(i)];
  }
  return total;
}

StrategyId ExactCoverageOracle::select(const FeasibleSet& family,
                                       const std::vector<double>& scores) const {
  if (scores.size() != family.graph().num_vertices()) {
    throw std::invalid_argument("ExactCoverageOracle: score size mismatch");
  }
  return static_cast<StrategyId>(
      family.neighborhood_tree().argmax(scores.data(), scratch_));
}

StrategyId GreedyCoverageOracle::select(const FeasibleSet& family,
                                        const std::vector<double>& scores) const {
  if (family.kind() != FamilyKind::kTopMSubsets &&
      family.kind() != FamilyKind::kExactMSubsets) {
    throw std::invalid_argument(
        "GreedyCoverageOracle: requires a subset (cardinality) family");
  }
  if (scores.size() != family.graph().num_vertices()) {
    throw std::invalid_argument("GreedyCoverageOracle: score size mismatch");
  }
  const Graph& g = family.graph();
  const std::size_t n = g.num_vertices();
  const std::size_t m = family.max_strategy_size();
  std::vector<double> gain_scores(n);
  for (std::size_t i = 0; i < n; ++i) gain_scores[i] = std::max(scores[i], 0.0);

  ArmSet chosen;
  Bitset64 covered(n);
  for (std::size_t round = 0; round < m; ++round) {
    ArmId best = kNoArm;
    double best_gain = 0.0;
    for (std::size_t cand = 0; cand < n; ++cand) {
      const auto c = static_cast<ArmId>(cand);
      if (std::find(chosen.begin(), chosen.end(), c) != chosen.end()) continue;
      double gain = 0.0;
      g.closed_neighborhood_bits(c).for_each([&](ArmId j) {
        if (!covered.test(static_cast<std::size_t>(j))) {
          gain += gain_scores[static_cast<std::size_t>(j)];
        }
      });
      if (best == kNoArm || gain > best_gain) {
        best = c;
        best_gain = gain;
      }
    }
    // For the ≤M family stop early once no candidate adds positive value
    // (adding more arms cannot help). The exact-M family must fill up.
    if (best == kNoArm) break;
    if (family.kind() == FamilyKind::kTopMSubsets && best_gain <= 0.0 &&
        !chosen.empty()) {
      break;
    }
    chosen.push_back(best);
    covered |= g.closed_neighborhood_bits(best);
  }
  std::sort(chosen.begin(), chosen.end());
  const auto id = family.find(chosen);
  if (!id) {
    throw std::logic_error("GreedyCoverageOracle: chosen set not in family");
  }
  return *id;
}

StrategyId argmax_modular(const FeasibleSet& family,
                          const std::vector<double>& scores,
                          std::vector<double>& scratch) {
  if (scores.size() != family.graph().num_vertices()) {
    throw std::invalid_argument("argmax_modular: score size mismatch");
  }
  return static_cast<StrategyId>(
      family.strategy_tree().argmax(scores.data(), scratch));
}

StrategyId argmax_modular(const FeasibleSet& family,
                          const std::vector<double>& scores) {
  std::vector<double> scratch;
  return argmax_modular(family, scores, scratch);
}

}  // namespace ncb
