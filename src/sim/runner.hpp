// Single-replication simulation: policy × environment × scenario × horizon.
//
// The runner is the only component that touches both the environment's
// ground truth and the policy; it computes the scenario's reward, builds the
// legitimate observation set, and tracks the paper's regret definitions
// (Eqs. 1–4): realized regret (optimal expected reward minus realized
// reward, what the paper plots) and pseudo-regret (optimal mean minus the
// chosen action's mean).
#pragma once

#include <memory>
#include <vector>

#include "core/policy.hpp"
#include "env/environment.hpp"
#include "core/scenario.hpp"
#include "strategy/feasible_set.hpp"
#include "util/types.hpp"

namespace ncb {

struct RunResult {
  Scenario scenario = Scenario::kSso;
  /// Realized regret per slot: opt − received reward (may be negative on a
  /// lucky draw; Fig. 4(b)'s dips below zero are exactly this effect).
  std::vector<double> per_slot_regret;
  /// Prefix sums of per_slot_regret (paper's "accumulated regret").
  std::vector<double> cumulative_regret;
  /// Pseudo-regret per slot: opt mean − chosen action's mean (≥ 0 always).
  std::vector<double> per_slot_pseudo_regret;
  /// How often each arm was *played* (component arms for combinatorial).
  std::vector<std::int64_t> play_counts;
  double total_reward = 0.0;
  double optimal_per_slot = 0.0;  ///< μ*, u*, λ*, or σ* per scenario.

  /// Average regret over time R_n/n at the final slot.
  [[nodiscard]] double final_average_regret() const {
    return cumulative_regret.empty()
               ? 0.0
               : cumulative_regret.back() /
                     static_cast<double>(cumulative_regret.size());
  }
};

struct RunnerOptions {
  TimeSlot horizon = 10000;
  /// Record per-slot series (true for figures; false saves memory when only
  /// the final regret matters).
  bool record_series = true;
  /// Failure injection: each *side* observation (an arm other than the one
  /// played / outside the played strategy) is independently dropped with
  /// this probability — modeling friends who don't report feedback. The
  /// played arms' own rewards are always delivered.
  double observation_drop_prob = 0.0;
  /// Seed for the drop process (independent of the environment stream).
  std::uint64_t drop_seed = 0xd20bd20b;
};

/// Validates `options` at run entry. Throws std::invalid_argument naming
/// the offending field ("RunnerOptions.horizon: ...") when the horizon is
/// not positive or observation_drop_prob lies outside [0, 1].
void validate_runner_options(const RunnerOptions& options);

/// Runs a single-play scenario (kSso or kSsr). The policy is reset first.
[[nodiscard]] RunResult run_single_play(SinglePlayPolicy& policy,
                                        Environment& env, Scenario scenario,
                                        const RunnerOptions& options);

/// Runs a combinatorial scenario (kCso or kCsr) against `family`, which must
/// be built over the same graph as the environment's instance. The policy is
/// reset first.
[[nodiscard]] RunResult run_combinatorial(CombinatorialPolicy& policy,
                                          const FeasibleSet& family,
                                          Environment& env, Scenario scenario,
                                          const RunnerOptions& options);

/// Optimal expected per-slot reward for a scenario: μ* (SSO), u* (SSR),
/// λ* = max_x Σ_{i∈s_x} μ_i (CSO), σ* = max_x Σ_{i∈Y_x} μ_i (CSR).
[[nodiscard]] double optimal_value(const BanditInstance& instance,
                                   Scenario scenario,
                                   const FeasibleSet* family = nullptr);

/// The arms a combinatorial play of x pays out: s_x under CSO, Y_x under
/// CSR. Its realized reward is env.strategy_reward(payout_arms(...)) and
/// its expected reward instance.strategy_mean(payout_arms(...)).
[[nodiscard]] inline const ArmSet& payout_arms(const FeasibleSet& family,
                                               Scenario scenario,
                                               StrategyId x) {
  return scenario == Scenario::kCso ? family.strategy(x)
                                    : family.neighborhood(x);
}

/// Id of the optimal strategy under CSO/CSR semantics.
[[nodiscard]] StrategyId optimal_strategy(const BanditInstance& instance,
                                          Scenario scenario,
                                          const FeasibleSet& family);

}  // namespace ncb
