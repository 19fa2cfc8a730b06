// UCB-N and UCB-MaxN (Caron, Kveton, Lelarge & Bhagat 2012): the prior
// side-observation policies the paper's §VIII contrasts against. Both use
// the UCB1 index over *observation* counts (side observations included);
// UCB-MaxN then plays the empirically best arm within the chosen arm's
// closed neighborhood. Their regret bounds are distribution-dependent
// (they degrade as Δ_min → 0), which is the gap DFL-SSO closes.
#pragma once

#include "core/index_policy.hpp"

namespace ncb {

struct UcbNOptions {
  double exploration = 2.0;
  /// false → UCB-N (play the argmax-index arm); true → UCB-MaxN (play the
  /// best empirical arm inside the argmax arm's closed neighborhood).
  bool max_variant = false;
  std::uint64_t seed = 0x5eed0cbe;
};

class UcbN final : public ArmStatIndexPolicy {
 public:
  explicit UcbN(UcbNOptions options = {});

  [[nodiscard]] double index(ArmId i, TimeSlot t) const override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::string describe() const override;

 protected:
  void on_reset(const Graph& graph) override;
  [[nodiscard]] ArmId refine_selection(ArmId best) override;
  /// Bulk refresh with ln t hoisted out of the per-arm loop.
  void refresh_all_indices(TimeSlot t, double* out) override;

 private:
  UcbNOptions options_;
  Graph graph_{0};  // copied at reset(); no external lifetime requirement
};

}  // namespace ncb
