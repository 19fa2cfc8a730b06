// DFL-CSO — Algorithm 2: distribution-free learning for combinatorial play
// with side observation.
//
// The CSO problem is converted to SSO over the strategy relation graph
// SG(F, L) of §IV: each feasible strategy is a com-arm; playing x reveals
// arm rewards over Y_x, which determines the full reward of every com-arm
// whose component arms lie inside Y_x. DFL-CSO is therefore DFL-SSO
// (Algorithm 1) run on SG, whose K is |F|: its per-com-arm statistics
// (O_x, R̄_x), its MOSS-style index R̄_x + sqrt(log⁺(t/(|F|·O_x))/O_x), its
// plateau-cached select and its tie-break draws all come from the wrapped
// DflSso. This class only turns each slot's arm values into com-arm
// rewards and delivers them as one batched observation. SG is the family's
// own (FeasibleSet::strategy_graph()), built once and shared by every
// replication and thread.
//
// Update scope:
//  * kStrategyGraph (faithful to Algorithm 2's "for y ∈ N_x over SG"):
//    updates the closed SG-neighborhood of the played com-arm.
//  * kAllObservable: updates every com-arm with s_y ⊆ Y_x — a superset of
//    the SG neighborhood (SG requires mutual containment); strictly more
//    information at the same observation cost.
//
// Theorem 2: R_n ≤ 15.94·sqrt(n|F|) + 0.74·C·sqrt(n/|F|).
#pragma once

#include <memory>
#include <vector>

#include "core/dfl_sso.hpp"
#include "core/policy.hpp"
#include "strategy/feasible_set.hpp"

namespace ncb {

enum class CsoUpdateScope {
  kStrategyGraph,  ///< Closed SG-neighborhood (pseudocode-faithful).
  kAllObservable,  ///< Every com-arm contained in the observed set Y_x.
};

struct DflCsoOptions {
  CsoUpdateScope scope = CsoUpdateScope::kStrategyGraph;
  std::uint64_t seed = 0x5eedc501;
};

class DflCso final : public CombinatorialPolicy {
 public:
  explicit DflCso(std::shared_ptr<const FeasibleSet> family,
                  DflCsoOptions options = {});

  void reset() override;
  [[nodiscard]] StrategyId select(TimeSlot t) override {
    return sso_.select(t);
  }
  void observe(StrategyId played, TimeSlot t,
               ObservationSpan observations) override;
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] const FeasibleSet& family() const noexcept { return *family_; }
  [[nodiscard]] std::int64_t observation_count(StrategyId x) const {
    return sso_.observation_count(x);
  }
  [[nodiscard]] double empirical_mean(StrategyId x) const {
    return sso_.empirical_mean(x);
  }
  [[nodiscard]] double index(StrategyId x, TimeSlot t) const {
    return sso_.index(x, t);
  }
  /// Com-arms whose statistics get updated when `x` is played (a view into
  /// the family's SG or observable lists).
  [[nodiscard]] Span<StrategyId> update_list(StrategyId x) const;

 private:
  std::shared_ptr<const FeasibleSet> family_;
  CsoUpdateScope scope_;
  DflSso sso_;
  std::vector<double> arm_values_;       // this slot's revealed arm values
  std::vector<std::int64_t> arm_stamp_;  // which epoch staged the value
  std::int64_t epoch_ = 0;
  ObservationBatch rewards_;  // one observe()'s com-arm rewards
};

}  // namespace ncb
