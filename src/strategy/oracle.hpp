// Combinatorial optimization oracles (paper §VI assumes "the combinatorial
// problem at each decision point can be solved optimally").
//
// DFL-CSR maximizes a *coverage* objective Σ_{i∈Y_x} w_i over F (the
// neighborhood union makes it submodular, not modular); CUCB-style baselines
// maximize the modular objective Σ_{i∈s_x} w_i. We provide exact
// enumeration oracles over an explicit FeasibleSet and a lazy-greedy
// (1-1/e)-approximate coverage oracle for cardinality-constrained families.
//
// Both exact oracles run one kernel, a branch-and-bound over the family's
// prefix-sharing sum tree (strategy/prefix_sum_tree.hpp) on the rows Y_x or
// s_x. It sums only the prefixes whose subtree could still hold a row that
// ties or beats the best one found, with a rounding margin that makes the
// skip exact: every strategy value it sums is bit-identical to
// coverage_value / modular_value, and the winner is the one a
// first-strict-maximum scan over every strategy returns.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "strategy/feasible_set.hpp"
#include "util/types.hpp"

namespace ncb {

/// Argmax over F of the coverage objective Σ_{i ∈ Y_x} scores[i].
/// Ties break toward the smaller strategy id. `scores` may be any reals.
class CoverageOracle {
 public:
  virtual ~CoverageOracle() = default;

  /// Selects the (approximately) best strategy id for the given per-arm
  /// scores. `scores.size()` must equal the family's vertex count.
  [[nodiscard]] virtual StrategyId select(
      const FeasibleSet& family, const std::vector<double>& scores) const = 0;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Forgets per-run state (the exact oracle's warm start and work
  /// counter); never changes what select() returns.
  virtual void reset() const {}
};

/// Exact enumeration by branch-and-bound over the family's Y_x prefix-sum
/// tree: at most one add per tree node (at most Σ_x |Y_x|), usually far
/// fewer. The scratch belongs to the oracle, so select() does not allocate
/// after its first call and warm-starts from its previous winner — and one
/// oracle object must not run select() from two threads at once (DflCsr
/// builds one per policy).
class ExactCoverageOracle final : public CoverageOracle {
 public:
  [[nodiscard]] StrategyId select(
      const FeasibleSet& family,
      const std::vector<double>& scores) const override;
  [[nodiscard]] std::string name() const override { return "exact"; }
  void reset() const override { scratch_.reset(); }

  /// Tree nodes summed since construction or reset().
  [[nodiscard]] std::uint64_t nodes_summed() const noexcept {
    return scratch_.nodes_summed;
  }

 private:
  mutable PrefixSumTree::Scratch scratch_;
};

/// Lazy greedy on the submodular coverage function. Valid only for subset
/// families (kTopMSubsets / kExactMSubsets); guarantees (1 − 1/e)·OPT when
/// all scores are non-negative. Negative scores are clamped to 0 for the
/// marginal-gain computation (they can only reduce coverage value).
class GreedyCoverageOracle final : public CoverageOracle {
 public:
  [[nodiscard]] StrategyId select(
      const FeasibleSet& family,
      const std::vector<double>& scores) const override;
  [[nodiscard]] std::string name() const override { return "greedy"; }
};

/// Argmax over F of the modular objective Σ_{i ∈ s_x} scores[i] (exact
/// branch-and-bound over the family's s_x prefix-sum tree). Used by the
/// CUCB baseline, which passes its own `scratch` so that repeated calls do
/// not allocate and warm-start from the previous winner.
[[nodiscard]] StrategyId argmax_modular(const FeasibleSet& family,
                                        const std::vector<double>& scores,
                                        PrefixSumTree::Scratch& scratch);

/// Same, with a call-local scratch buffer.
[[nodiscard]] StrategyId argmax_modular(const FeasibleSet& family,
                                        const std::vector<double>& scores);

/// Coverage value Σ_{i∈Y_x} scores[i] of one strategy.
[[nodiscard]] double coverage_value(const FeasibleSet& family, StrategyId x,
                                    const std::vector<double>& scores);

/// Modular value Σ_{i∈s_x} scores[i] of one strategy.
[[nodiscard]] double modular_value(const FeasibleSet& family, StrategyId x,
                                   const std::vector<double>& scores);

}  // namespace ncb
