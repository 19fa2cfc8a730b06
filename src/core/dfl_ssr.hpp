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
// observe() keeps Ob_i exact without recounting the neighborhood: ob_[i]
// holds Ob_i and at_min_[i] how many members of N_i sit at it, so when O_j
// goes c → c+1 only the neighbors i ∈ N_j with Ob_i = c lose a member, and
// Ob_i rises (to exactly c+1, with one recount of N_i) when the last one
// leaves. Every such Ob_i is ≤ O_j, so a per-arm max of Ob over N_j skips
// the scan of N_j whenever none of them sits at c. The paired B̄_i reads
// only Ob_i and append-only prefix sums, so it is cached per arm,
// recomputed and dirty-marked only when Ob_i rises, and refresh_indices()
// is O(1) per arm. The mean-sum B̄_i moves with every neighbor mean, so
// that estimator dirty-marks the observed arms' closed neighborhoods (two
// hops) and sums over N_i on refresh.
//
// Theorem 3: R_n ≤ 49·K·sqrt(nK).
#pragma once

#include <cstdint>
#include <deque>
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
  /// Side-reward observation count Ob_i = min_{j∈N_i} O_j, recounted from
  /// scratch (the reference for the tracked count).
  [[nodiscard]] std::int64_t side_observation_count(ArmId i) const;
  /// Current side-reward estimate B̄_i (0 when Ob_i = 0), from scratch.
  [[nodiscard]] double side_reward_estimate(ArmId i) const;
  /// The Ob_i observe() tracks, which refresh_indices() reads (tests);
  /// bounds-checked.
  [[nodiscard]] std::int64_t tracked_side_observation_count(ArmId i) const {
    return ob_.at(static_cast<std::size_t>(i));
  }
  /// The B̄_i refresh_indices() reads (tests): the paired estimator's cached
  /// value, or the mean-sum over N_i; bounds-checked.
  [[nodiscard]] double tracked_side_reward_estimate(ArmId i) const;
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

  /// One more direct observation of `arm`, whose count was `before`:
  /// updates ob_/at_min_ over N_arm, and for the paired estimator recomputes
  /// and dirty-marks every arm whose Ob_i rose.
  void raise_count(ArmId arm, std::int64_t before);

  DflSsrOptions options_;
  Graph graph_{0};  // copied at reset(); no external lifetime requirement
  ArmStatsTable direct_;                           // O_i and X̄_i
  // kPaired: per-arm Σ of the first m observations. A deque: appends never
  // copy or re-fault the history the way a growing vector does.
  std::vector<std::deque<double>> prefix_sums_;
  std::vector<std::int64_t> ob_;       // tracked Ob_i
  std::vector<std::uint32_t> at_min_;  // |{j ∈ N_i : O_j = Ob_i}|
  std::vector<std::int64_t> max_neighbor_ob_;  // max_{i∈N_j} Ob_i
  std::vector<double> paired_estimate_;  // kPaired: B̄_i given ob_[i]
};

}  // namespace ncb
