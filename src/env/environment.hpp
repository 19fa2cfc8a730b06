// The stochastic environment: draws the i.i.d. reward row X_{·,t} once per
// time slot. Policies never see this object directly — the simulation runner
// mediates feedback per scenario semantics, so a policy can only learn what
// its scenario legitimately observes.
//
// The row draw has two paths with one draw stream. When every arm is
// BernoulliDist with 0 < p < 1 (every instance build_instance makes), the
// environment precomputes each arm's integer threshold ceil(p·2^53) at
// construction and advance() draws the whole row in one loop over a local
// copy of the RNG, written back once per slot: arm i pays 1 iff
// (x >> 11) < ceil(p_i·2^53), which is exactly uniform() < p_i. Any other
// instance runs the per-arm virtual Distribution::sample loop, where arms
// with p ∈ {0, 1} consume no draw.
#pragma once

#include <cstdint>
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

  /// The reward stream's generator as the last `advance()` left it (tests
  /// compare it against a reference stream).
  [[nodiscard]] const Xoshiro256& rng() const noexcept { return rng_; }

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
  // Per-arm ceil(p·2^53) when every arm is Bernoulli(p), 0 < p < 1; empty
  // otherwise (the per-arm sample() loop).
  std::vector<std::uint64_t> bernoulli_thresholds_;
  std::vector<double> rewards_;
  TimeSlot slot_ = 0;
};

}  // namespace ncb
