// MOSS (Minimax Optimal Strategy in the Stochastic case, Audibert & Bubeck).
//
// The paper's Fig. 3 baseline and the skeleton of DFL-SSO: identical index
// shape, but MOSS only learns from the arm it plays (no side observations).
// Fixed-horizon form uses sqrt(log⁺(n/(K·T_i))/T_i); the anytime form
// substitutes t for n, matching Algorithm 1's index exactly when the
// relation graph is empty.
#pragma once

#include "core/index_policy.hpp"

namespace ncb {

struct MossOptions {
  /// Known horizon n; 0 selects the anytime variant (ratio uses t).
  TimeSlot horizon = 0;
  std::uint64_t seed = 0x5eedA055;
};

class Moss final : public ArmStatIndexPolicy {
 public:
  explicit Moss(MossOptions options = {});

  /// Played-only update: MOSS has no side information.
  void observe(ArmId played, TimeSlot t, ObservationSpan observations) override;
  [[nodiscard]] double index(ArmId i, TimeSlot t) const override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::string describe() const override;

  [[nodiscard]] std::int64_t play_count(ArmId i) const {
    return observation_count(i);
  }

 protected:
  [[nodiscard]] TimeSlot hold_through(TimeSlot t) const override {
    return plateau_epoch_end(t);
  }
  void refresh_indices(TimeSlot t, Span<ArmId> arms, double* values) override;

 private:
  /// Fixed-horizon index: the ratio uses n, not t, so it only moves when
  /// the arm is played again.
  [[nodiscard]] double fixed_horizon_index(ArmId i) const;

  MossOptions options_;
};

}  // namespace ncb
