#include "sim/replication.hpp"

#include <stdexcept>

#include "exp/shard_scheduler.hpp"

namespace ncb {

std::vector<double> ReplicatedResult::average_regret() const {
  std::vector<double> avg = cumulative_regret.means();
  for (std::size_t i = 0; i < avg.size(); ++i) {
    avg[i] /= static_cast<double>(i + 1);
  }
  return avg;
}

namespace {

/// Drives the replications through exp::run_replications and folds each
/// run into the aggregate; `run` plays one replication on a worker thread.
ReplicatedResult replicate(
    const BanditInstance& instance, Scenario scenario,
    const ReplicationOptions& options,
    const std::function<RunResult(Environment&, std::uint64_t)>& run) {
  validate_runner_options(options.runner);  // before plan_shards reads it
  ReplicatedResult result;
  result.scenario = scenario;
  exp::run_replications(
      exp::plan_shards(options.replications, options.runner.horizon),
      std::make_shared<const BanditInstance>(instance), options.master_seed,
      options.pool, nullptr, run, [&result](RunResult&& one) {
        result.per_slot_regret.add_series(one.per_slot_regret);
        result.cumulative_regret.add_series(one.cumulative_regret);
        result.per_slot_pseudo_regret.add_series(one.per_slot_pseudo_regret);
        result.final_cumulative.add(one.cumulative_regret.back());
        result.optimal_per_slot = one.optimal_per_slot;
        ++result.replications;
      });
  return result;
}

}  // namespace

ReplicatedResult run_replicated_single(const SinglePolicyFactory& make_policy,
                                       const BanditInstance& instance,
                                       Scenario scenario,
                                       const ReplicationOptions& options) {
  if (!make_policy) {
    throw std::invalid_argument("run_replicated_single: null factory");
  }
  return replicate(instance, scenario, options,
                   [&](Environment& env, std::uint64_t policy_seed) {
                     const auto policy = make_policy(policy_seed);
                     return run_single_play(*policy, env, scenario,
                                            options.runner);
                   });
}

ReplicatedResult run_replicated_combinatorial(
    const CombinatorialPolicyFactory& make_policy,
    const BanditInstance& instance, const FeasibleSet& family,
    Scenario scenario, const ReplicationOptions& options) {
  if (!make_policy) {
    throw std::invalid_argument("run_replicated_combinatorial: null factory");
  }
  return replicate(instance, scenario, options,
                   [&](Environment& env, std::uint64_t policy_seed) {
                     const auto policy = make_policy(policy_seed);
                     return run_combinatorial(*policy, family, env, scenario,
                                              options.runner);
                   });
}

}  // namespace ncb
