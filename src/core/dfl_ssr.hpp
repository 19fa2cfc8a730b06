// DFL-SSR — Algorithm 3: distribution-free learning for single-play with
// side reward.
//
// The decision maker receives B_{i,t} = Σ_{j∈N_i} X_{j,t} when playing i,
// so the target is the arm maximizing u_i = Σ_{j∈N_i} μ_j. Because neighbor
// rewards are observed asynchronously, the side-reward observation counter
// advances only when the least-observed member of N_i is renewed (paper
// Eq. 44): Ob_i = min_{j∈N_i} O_j.
//
// Two estimators for B̄_i are provided:
//  * kPaired (faithful to the pseudocode): the m-th side-reward sample of
//    arm i pairs the m-th direct observation of every j ∈ N_i; needs per-arm
//    observation prefix sums (O(total observations) memory).
//  * kMeanSum: B̄_i = Σ_{j∈N_i} X̄_j over all observations (O(K) memory).
// Both are unbiased for u_i; the A3 ablation compares them empirically.
//
// Theorem 3: R_n ≤ 49·K·sqrt(nK).
#pragma once

#include <vector>

#include "core/arm_stats.hpp"
#include "core/index_policy.hpp"

namespace ncb {

enum class SsrEstimator {
  kPaired,   ///< Pseudocode-faithful paired samples.
  kMeanSum,  ///< Sum of neighbor empirical means.
};

struct DflSsrOptions {
  SsrEstimator estimator = SsrEstimator::kPaired;
  std::uint64_t seed = 0x5eed5512;
};

class DflSsr final : public SingleIndexPolicy {
 public:
  explicit DflSsr(DflSsrOptions options = {});

  void observe(ArmId played, TimeSlot t, ObservationSpan observations) override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::string describe() const override;

  /// Direct-observation count O_i; bounds-checked.
  [[nodiscard]] std::int64_t observation_count(ArmId i) const {
    return direct_.count(i);
  }
  /// Side-reward observation count Ob_i = min_{j∈N_i} O_j.
  [[nodiscard]] std::int64_t side_observation_count(ArmId i) const;
  /// Current side-reward estimate B̄_i (0 when Ob_i = 0).
  [[nodiscard]] double side_reward_estimate(ArmId i) const;
  /// Index value of arm i at slot t (+inf when Ob_i = 0). The [0,K]-ranged
  /// side reward is used unnormalized, as in the pseudocode.
  [[nodiscard]] double index(ArmId i, TimeSlot t) const override;

 protected:
  void on_reset(const Graph& graph) override;
  [[nodiscard]] IndexRefreshMode refresh_mode() const override {
    return IndexRefreshMode::kIncremental;
  }
  void refresh_indices(TimeSlot t, Span<ArmId> arms, double* values,
                       TimeSlot* valid_until) override;

 private:
  /// B̄_i given Ob_i = `ob` (the paired estimator reads it; 0 when ob = 0).
  [[nodiscard]] double estimate_given(ArmId i, std::int64_t ob) const;

  DflSsrOptions options_;
  Graph graph_{0};  // copied at reset(); no external lifetime requirement
  ArmStatsTable direct_;                           // O_i and X̄_i
  std::vector<std::vector<double>> prefix_sums_;   // kPaired: per-arm Σ first m obs
};

}  // namespace ncb
