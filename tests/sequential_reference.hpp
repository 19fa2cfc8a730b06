// Test-local sequential reference for a replicated run: replication r plays
// one run_single_play / run_combinatorial over an environment seeded with
// derive_seed_at(seed, 2r) and a policy seeded with
// derive_seed_at(seed, 2r + 1), and the runs are folded in replication
// order, one after another on the calling thread. That is the contract
// exp::run_job_replications keeps for any pool and shard plan, so the
// tests pin it against this loop bit for bit. The reference also keeps
// the per-slot pseudo-regret, which a JobAggregate does not carry.
#pragma once

#include <memory>
#include <string>

#include "core/policy_registry.hpp"
#include "sim/runner.hpp"
#include "util/rng.hpp"
#include "util/running_stat.hpp"

namespace ncb {

/// Per-slot Welford series over the replications (index i is slot i + 1).
struct SequentialReplications {
  SeriesStat per_slot;    ///< Realized per-slot regret.
  SeriesStat cumulative;  ///< Accumulated realized regret.
  SeriesStat pseudo;      ///< Per-slot pseudo-regret.
  RunningStat final_cumulative;
  double optimal_per_slot = 0.0;
};

/// Runs `replications` replications of the registry spec `policy` under
/// `scenario` for `horizon` slots; `family` is required when the scenario
/// is combinatorial.
inline SequentialReplications replicate_sequentially(
    const std::string& policy, Scenario scenario, TimeSlot horizon,
    std::uint64_t seed, std::size_t replications,
    const std::shared_ptr<const BanditInstance>& instance,
    const std::shared_ptr<const FeasibleSet>& family = nullptr) {
  const PolicyRegistry& registry = PolicyRegistry::instance();
  RunnerOptions runner;
  runner.horizon = horizon;
  SequentialReplications out;
  for (std::size_t r = 0; r < replications; ++r) {
    Environment env(instance, derive_seed_at(seed, 2 * r));
    const std::uint64_t policy_seed = derive_seed_at(seed, 2 * r + 1);
    RunResult run;
    if (is_combinatorial(scenario)) {
      const auto learner =
          registry.make_combinatorial(policy, family, policy_seed);
      run = run_combinatorial(*learner, *family, env, scenario, runner);
    } else {
      const auto learner =
          registry.make_single_play(policy, horizon, policy_seed);
      run = run_single_play(*learner, env, scenario, runner);
    }
    out.per_slot.add_series(run.per_slot_regret);
    out.cumulative.add_series(run.cumulative_regret);
    out.pseudo.add_series(run.per_slot_pseudo_regret);
    out.final_cumulative.add(run.cumulative_regret.back());
    out.optimal_per_slot = run.optimal_per_slot;
  }
  return out;
}

}  // namespace ncb
