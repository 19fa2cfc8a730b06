#include "sim/runner.hpp"

#include <limits>
#include <stdexcept>

#include "util/rng.hpp"

namespace ncb {
namespace {

/// Returns true when a side observation should be dropped. `keep_always`
/// marks arms whose rewards are part of the realized payout and therefore
/// always observed.
inline bool drop_observation(const RunnerOptions& options, Xoshiro256& rng,
                             bool keep_always) {
  if (keep_always || options.observation_drop_prob <= 0.0) return false;
  return rng.bernoulli(options.observation_drop_prob);
}

}  // namespace

void validate_runner_options(const RunnerOptions& options) {
  if (options.horizon <= 0) {
    throw std::invalid_argument(
        "RunnerOptions.horizon: must be positive (got " +
        std::to_string(options.horizon) + ")");
  }
  // The negated comparison also rejects NaN.
  if (!(options.observation_drop_prob >= 0.0 &&
        options.observation_drop_prob <= 1.0)) {
    throw std::invalid_argument(
        "RunnerOptions.observation_drop_prob: must be within [0, 1] (got " +
        std::to_string(options.observation_drop_prob) + ")");
  }
}

double optimal_value(const BanditInstance& instance, Scenario scenario,
                     const FeasibleSet* family) {
  switch (scenario) {
    case Scenario::kSso:
      return instance.best_mean();
    case Scenario::kSsr:
      return instance.best_side_reward_mean();
    case Scenario::kCso:
    case Scenario::kCsr: {
      if (!family) {
        throw std::invalid_argument("optimal_value: family required");
      }
      return instance.strategy_mean(payout_arms(
          *family, scenario, optimal_strategy(instance, scenario, *family)));
    }
  }
  throw std::logic_error("optimal_value: bad scenario");
}

StrategyId optimal_strategy(const BanditInstance& instance, Scenario scenario,
                            const FeasibleSet& family) {
  if (!is_combinatorial(scenario)) {
    throw std::invalid_argument("optimal_strategy: combinatorial scenario required");
  }
  StrategyId best = 0;
  double best_value = -std::numeric_limits<double>::infinity();
  for (StrategyId x = 0; x < static_cast<StrategyId>(family.size()); ++x) {
    const double v = instance.strategy_mean(payout_arms(family, scenario, x));
    if (v > best_value) {
      best_value = v;
      best = x;
    }
  }
  return best;
}

RunResult run_single_play(SinglePlayPolicy& policy, Environment& env,
                          Scenario scenario, const RunnerOptions& options) {
  if (is_combinatorial(scenario)) {
    throw std::invalid_argument("run_single_play: single-play scenario required");
  }
  validate_runner_options(options);
  const BanditInstance& instance = env.instance();
  const Graph& graph = instance.graph();
  const std::size_t k = instance.num_arms();

  RunResult result;
  result.scenario = scenario;
  result.optimal_per_slot = optimal_value(instance, scenario);
  result.play_counts.assign(k, 0);
  if (options.record_series) {
    result.per_slot_regret.reserve(static_cast<std::size_t>(options.horizon));
    result.cumulative_regret.reserve(static_cast<std::size_t>(options.horizon));
    result.per_slot_pseudo_regret.reserve(static_cast<std::size_t>(options.horizon));
  }

  policy.reset(graph);
  // Slot-reused feedback buffer: reserved once, refilled in place every
  // slot, delivered as one batched span — the hot loop never allocates.
  ObservationBatch batch;
  batch.reserve(k);
  Xoshiro256 drop_rng(options.drop_seed);
  double cumulative = 0.0;

  for (TimeSlot t = 1; t <= options.horizon; ++t) {
    const ArmId played = policy.select(t);
    if (played < 0 || static_cast<std::size_t>(played) >= k) {
      throw std::out_of_range("run_single_play: policy chose invalid arm");
    }
    const auto& rewards = env.advance();

    // Side observation scope: the closed neighborhood of the played arm.
    // Under SSR the whole neighborhood payout is received, so nothing can
    // be dropped; under SSO only the played arm's sample is guaranteed.
    batch.clear();
    for (const ArmId j : graph.closed_neighborhood(played)) {
      const bool keep_always = j == played || scenario == Scenario::kSsr;
      if (drop_observation(options, drop_rng, keep_always)) continue;
      batch.add(j, rewards[static_cast<std::size_t>(j)]);
    }

    const double realized =
        scenario == Scenario::kSso ? rewards[static_cast<std::size_t>(played)]
                                   : env.side_reward(played);
    const double chosen_mean =
        scenario == Scenario::kSso
            ? instance.means()[static_cast<std::size_t>(played)]
            : instance.side_reward_means()[static_cast<std::size_t>(played)];

    policy.observe(played, t, batch.span());

    result.total_reward += realized;
    ++result.play_counts[static_cast<std::size_t>(played)];
    const double regret = result.optimal_per_slot - realized;
    cumulative += regret;
    if (options.record_series) {
      result.per_slot_regret.push_back(regret);
      result.cumulative_regret.push_back(cumulative);
      result.per_slot_pseudo_regret.push_back(result.optimal_per_slot -
                                              chosen_mean);
    }
  }
  if (!options.record_series) {
    result.cumulative_regret.push_back(cumulative);
  }
  return result;
}

RunResult run_combinatorial(CombinatorialPolicy& policy,
                            const FeasibleSet& family, Environment& env,
                            Scenario scenario, const RunnerOptions& options) {
  if (!is_combinatorial(scenario)) {
    throw std::invalid_argument("run_combinatorial: combinatorial scenario required");
  }
  validate_runner_options(options);
  const BanditInstance& instance = env.instance();
  const std::size_t k = instance.num_arms();
  if (family.graph().num_vertices() != k) {
    throw std::invalid_argument("run_combinatorial: family/instance graph mismatch");
  }

  RunResult result;
  result.scenario = scenario;
  result.optimal_per_slot = optimal_value(instance, scenario, &family);
  result.play_counts.assign(k, 0);
  if (options.record_series) {
    result.per_slot_regret.reserve(static_cast<std::size_t>(options.horizon));
    result.cumulative_regret.reserve(static_cast<std::size_t>(options.horizon));
    result.per_slot_pseudo_regret.reserve(static_cast<std::size_t>(options.horizon));
  }

  policy.reset();
  // Slot-reused feedback buffer (see run_single_play).
  ObservationBatch batch;
  batch.reserve(k);
  Xoshiro256 drop_rng(options.drop_seed);
  double cumulative = 0.0;

  for (TimeSlot t = 1; t <= options.horizon; ++t) {
    const StrategyId played = policy.select(t);
    if (played < 0 || static_cast<std::size_t>(played) >= family.size()) {
      throw std::out_of_range("run_combinatorial: policy chose invalid strategy");
    }
    const auto& rewards = env.advance();
    const ArmSet& arms = family.strategy(played);

    // Observation scope: Y_x, the union of closed neighborhoods. Component
    // arms always report (their rewards are received); under CSR the whole
    // of Y_x is part of the payout, so nothing can be dropped.
    batch.clear();
    for (const ArmId j : family.neighborhood(played)) {
      const bool keep_always =
          scenario == Scenario::kCsr ||
          family.strategy_bits(played).test(static_cast<std::size_t>(j));
      if (drop_observation(options, drop_rng, keep_always)) continue;
      batch.add(j, rewards[static_cast<std::size_t>(j)]);
    }

    const ArmSet& paid = payout_arms(family, scenario, played);
    const double realized = env.strategy_reward(paid);
    const double chosen_mean = instance.strategy_mean(paid);

    policy.observe(played, t, batch.span());

    result.total_reward += realized;
    for (const ArmId i : arms) ++result.play_counts[static_cast<std::size_t>(i)];
    const double regret = result.optimal_per_slot - realized;
    cumulative += regret;
    if (options.record_series) {
      result.per_slot_regret.push_back(regret);
      result.cumulative_regret.push_back(cumulative);
      result.per_slot_pseudo_regret.push_back(result.optimal_per_slot -
                                              chosen_mean);
    }
  }
  if (!options.record_series) {
    result.cumulative_regret.push_back(cumulative);
  }
  return result;
}

}  // namespace ncb
