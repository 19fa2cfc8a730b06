// Combinatorial optimization oracles (paper §VI assumes "the combinatorial
// problem at each decision point can be solved optimally").
//
// DFL-CSR maximizes a *coverage* objective Σ_{i∈Y_x} w_i over F (the
// neighborhood union makes it submodular, not modular); CUCB-style baselines
// maximize the modular objective Σ_{i∈s_x} w_i. We provide exact
// enumeration oracles over an explicit FeasibleSet and a lazy-greedy
// (1-1/e)-approximate coverage oracle for cardinality-constrained families.
//
// Both exact oracles run one kernel, the family's prefix-sharing sum tree
// (strategy/prefix_sum_tree.hpp) over the rows Y_x or s_x: every strategy
// value is bit-identical to coverage_value / modular_value, and ties break
// toward the smaller strategy id exactly as a per-strategy scan would.
#pragma once

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
};

/// Exact enumeration: one add per node of the family's Y_x prefix-sum
/// tree (at most Σ_x |Y_x|). The node-value scratch belongs to the oracle,
/// so select() does not allocate after its first call — and one oracle
/// object must not run select() from two threads at once (DflCsr builds
/// one per policy).
class ExactCoverageOracle final : public CoverageOracle {
 public:
  [[nodiscard]] StrategyId select(
      const FeasibleSet& family,
      const std::vector<double>& scores) const override;
  [[nodiscard]] std::string name() const override { return "exact"; }

 private:
  mutable std::vector<double> scratch_;
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
/// enumeration over the family's s_x prefix-sum tree). Used by the CUCB
/// baseline, which passes its own `scratch` so that repeated calls do not
/// allocate.
[[nodiscard]] StrategyId argmax_modular(const FeasibleSet& family,
                                        const std::vector<double>& scores,
                                        std::vector<double>& scratch);

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
