// CUCB-style combinatorial UCB (Gai et al. / Chen et al.): the
// combinatorial-play baseline *without* side bonus the paper's §VIII cites.
// Learns per-arm means from the arms it actually plays, selects the strategy
// maximizing the modular sum of per-arm UCB indices. Distribution-dependent.
#pragma once

#include <memory>
#include <vector>

#include "core/arm_stats.hpp"
#include "core/policy.hpp"
#include "strategy/feasible_set.hpp"
#include "util/rng.hpp"

namespace ncb {

struct CucbOptions {
  double exploration = 1.5;  ///< Chen et al. use sqrt(3 ln t / (2 T_i)).
  std::uint64_t seed = 0x5eedcccb;
};

class Cucb final : public CombinatorialPolicy {
 public:
  explicit Cucb(std::shared_ptr<const FeasibleSet> family,
                CucbOptions options = {});

  void reset() override;
  [[nodiscard]] StrategyId select(TimeSlot t) override;
  void observe(StrategyId played, TimeSlot t,
               ObservationSpan observations) override;
  [[nodiscard]] std::string name() const override { return "CUCB"; }
  [[nodiscard]] std::string describe() const override;

  [[nodiscard]] std::int64_t play_count(ArmId i) const {
    return stats_.count(i);
  }
  [[nodiscard]] double arm_index(ArmId i, TimeSlot t) const;

 private:
  std::shared_ptr<const FeasibleSet> family_;
  CucbOptions options_;
  ArmStatsTable stats_;
  std::vector<double> scores_;
  std::vector<double> oracle_scratch_;  // argmax_modular's node values
  Xoshiro256 rng_;
};

}  // namespace ncb
