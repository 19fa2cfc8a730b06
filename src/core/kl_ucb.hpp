// KL-UCB (Garivier & Cappé 2011): the strongest classical stochastic
// baseline for bounded rewards. Index = max{ q ≥ X̄_i :
// T_i · kl(X̄_i, q) ≤ ln t + c·ln ln t }, solved by bisection on the
// Bernoulli KL divergence. Distribution-dependent and asymptotically
// optimal for Bernoulli arms; the A8 panel ranks it against the
// distribution-free DFL policies. Optionally consumes side observations
// (a KL analogue of UCB-N).
#pragma once

#include "core/index_policy.hpp"

namespace ncb {

struct KlUcbOptions {
  /// The `c` in ln t + c·ln ln t; 0 is the common practical choice,
  /// 3 the theoretical one.
  double c = 0.0;
  bool use_side_observations = false;
  std::uint64_t seed = 0x5eedc1cb;
};

class KlUcb final : public ArmStatIndexPolicy {
 public:
  explicit KlUcb(KlUcbOptions options = {});

  void observe(ArmId played, TimeSlot t, ObservationSpan observations) override;
  [[nodiscard]] double index(ArmId i, TimeSlot t) const override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::string describe() const override;

  /// Bernoulli KL divergence kl(p, q) with the usual 0·log 0 conventions.
  [[nodiscard]] static double bernoulli_kl(double p, double q) noexcept;

  /// Upper KL confidence bound: max{q ∈ [p, 1] : kl(p, q) ≤ budget/count}.
  [[nodiscard]] static double kl_upper_bound(double p, double count,
                                             double budget) noexcept;

 protected:
  /// Bulk refresh with the ln t + c·ln ln t budget hoisted out of the
  /// per-arm bisection loop.
  void refresh_all_indices(TimeSlot t, double* out) override;

 private:
  KlUcbOptions options_;
};

}  // namespace ncb
