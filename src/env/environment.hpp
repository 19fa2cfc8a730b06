// The stochastic environment: draws the i.i.d. reward row X_{·,t} once per
// time slot. Policies never see this object directly — the simulation runner
// mediates feedback per scenario semantics, so a policy can only learn what
// its scenario legitimately observes.
#pragma once

#include <memory>
#include <vector>

#include "env/instance.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace ncb {

class Environment {
 public:
  /// Takes the instance by value; the environment owns its RNG stream so
  /// replications with distinct seeds are independent.
  Environment(BanditInstance instance, std::uint64_t seed);

  /// Shares an immutable instance instead of copying it — replications of
  /// the same job differ only in their RNG stream, so the sweep engine
  /// reuses one generated graph/instance across all of them (and across
  /// jobs with identical instance coordinates). `instance` must be non-null.
  Environment(std::shared_ptr<const BanditInstance> instance,
              std::uint64_t seed);

  /// Advances to the next time slot and draws X_{i,t} for every arm.
  /// Returns the drawn row (valid until the next call).
  const std::vector<double>& advance();

  /// Current slot's reward row (last `advance()` result).
  [[nodiscard]] const std::vector<double>& rewards() const noexcept {
    return rewards_;
  }

  /// Number of completed `advance()` calls.
  [[nodiscard]] TimeSlot slots_drawn() const noexcept { return slot_; }

  [[nodiscard]] const BanditInstance& instance() const noexcept {
    return *instance_;
  }
  [[nodiscard]] const Graph& graph() const noexcept {
    return instance_->graph();
  }
  [[nodiscard]] std::size_t num_arms() const noexcept {
    return instance_->num_arms();
  }

  /// Realized reward Σ_{i∈arms} X_i of a sorted arm set at the current
  /// slot: a strategy's direct reward for `arms` = s_x, its combinatorial
  /// side reward CB_x for `arms` = Y_x (FeasibleSet::neighborhood).
  [[nodiscard]] double strategy_reward(const ArmSet& arms) const;

  /// Realized side reward of an arm: B_i = Σ_{j∈N_i} X_j.
  [[nodiscard]] double side_reward(ArmId arm) const;

 private:
  std::shared_ptr<const BanditInstance> instance_;
  Xoshiro256 rng_;
  std::vector<double> rewards_;
  TimeSlot slot_ = 0;
};

}  // namespace ncb
