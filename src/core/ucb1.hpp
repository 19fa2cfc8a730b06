// UCB1 (Auer, Cesa-Bianchi & Fischer 2002): the classical index policy,
// X̄_i + sqrt(2 ln t / T_i). Distribution-dependent baseline without side
// information.
#pragma once

#include "core/index_policy.hpp"

namespace ncb {

struct Ucb1Options {
  /// Exploration scale; 2.0 is the textbook constant.
  double exploration = 2.0;
  std::uint64_t seed = 0x5eed0cb1;
};

class Ucb1 final : public ArmStatIndexPolicy {
 public:
  explicit Ucb1(Ucb1Options options = {});

  /// Played-only update: UCB1 ignores side observations.
  void observe(ArmId played, TimeSlot t, ObservationSpan observations) override;
  [[nodiscard]] double index(ArmId i, TimeSlot t) const override;
  [[nodiscard]] std::string name() const override { return "UCB1"; }
  [[nodiscard]] std::string describe() const override;

  [[nodiscard]] std::int64_t play_count(ArmId i) const {
    return observation_count(i);
  }

 protected:
  /// Bulk refresh with ln t hoisted out of the per-arm loop.
  void refresh_all_indices(TimeSlot t, double* out) override;

 private:
  Ucb1Options options_;
};

}  // namespace ncb
