// DFL-SSO — Algorithm 1: distribution-free learning for single-play with
// side observation.
//
// Index: X̄_i + sqrt(log⁺(t / (K·O_i)) / O_i), where O_i counts *all*
// observations of arm i (direct plays plus side observations from playing a
// neighbor). Every slot updates the statistics of the whole closed
// neighborhood N_{I_t} in one batched pass — exactly the observation set
// the runner delivers. Theorem 1: R_n ≤ 15.94·sqrt(nK) + 0.74·C·sqrt(n/K).
#pragma once

#include "core/index_policy.hpp"

namespace ncb {

struct DflSsoOptions {
  /// §IX future-work heuristic: after computing the argmax-index arm I_t,
  /// actually play the arm with the best empirical mean within N_{I_t}.
  bool neighbor_greedy = false;
  /// Multiplier η on the exploration width (index = X̄ + η·width). 1.0 is
  /// Algorithm 1; the A-η ablation sweeps it.
  double exploration_scale = 1.0;
  /// Seed for random tie-breaking among equal indices.
  std::uint64_t seed = 0x5eed5501;
};

class DflSso final : public ArmStatIndexPolicy {
 public:
  explicit DflSso(DflSsoOptions options = {});

  /// The index value of arm i at slot t (+inf when unobserved).
  [[nodiscard]] double index(ArmId i, TimeSlot t) const override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::string describe() const override;

 protected:
  void on_reset(const Graph& graph) override;
  [[nodiscard]] ArmId refine_selection(ArmId best) override;
  [[nodiscard]] TimeSlot hold_through(TimeSlot t) const override {
    return plateau_epoch_end(t);
  }
  void refresh_indices(TimeSlot t, Span<ArmId> arms, double* values) override;

 private:
  DflSsoOptions options_;
  // Copied at reset() for neighbor_greedy only; no external lifetime
  // requirement.
  Graph graph_{0};
};

}  // namespace ncb
