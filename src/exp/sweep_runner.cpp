#include "exp/sweep_runner.hpp"

#include <cstring>
#include <memory>
#include <sstream>
#include <utility>

#include "core/policy_registry.hpp"
#include "util/timer.hpp"

namespace ncb::exp {

namespace {

/// The instance-defining coordinates of a config (see InstanceCache docs).
/// p enters via its bit pattern so the key is exact, not formatted.
std::string instance_key(const ExperimentConfig& config, bool combinatorial) {
  std::uint64_t p_bits = 0;
  static_assert(sizeof p_bits == sizeof config.edge_probability);
  std::memcpy(&p_bits, &config.edge_probability, sizeof p_bits);
  std::ostringstream key;
  key << family_token(config.graph_family) << ':' << config.num_arms << ':'
      << p_bits << ':' << config.family_param << ':' << config.seed;
  if (combinatorial) {
    key << ":M" << config.strategy_size
        << (config.exact_size_strategies ? "e" : "");
  }
  return key.str();
}

}  // namespace

const InstanceCache::Entry& InstanceCache::get(const ExperimentConfig& config,
                                               bool combinatorial) {
  std::string key = instance_key(config, combinatorial);
  if (key == key_ && entry_.instance != nullptr) {
    ++hits_;
    return entry_;
  }
  ++misses_;
  entry_.instance = std::make_shared<const BanditInstance>(
      build_instance(config));
  entry_.family = combinatorial
                      ? build_family(config, entry_.instance->graph())
                      : nullptr;
  key_ = std::move(key);
  return entry_;
}

void run_job_replications(const SweepJob& job,
                          const std::vector<TimeSlot>& grid,
                          const ShardPlan& plan, const SweepRunOptions& options,
                          const std::function<void(RepSample&&)>& fold) {
  const ExperimentConfig& config = job.config;
  const bool combinatorial = is_combinatorial(job.scenario);
  InstanceCache local_cache;
  InstanceCache& cache =
      options.instance_cache ? *options.instance_cache : local_cache;
  const InstanceCache::Entry& built = cache.get(config, combinatorial);
  const std::shared_ptr<const FeasibleSet>& family = built.family;

  RunnerOptions runner;
  runner.horizon = config.horizon;
  // Each run is sampled on its worker, so only RepSamples ever park.
  run_replications(
      plan, built.instance, config.seed, options.pool, options.should_stop,
      [&](Environment& env, std::uint64_t policy_seed) {
        RunResult run;
        if (combinatorial) {
          const auto policy = PolicyRegistry::instance().make_combinatorial(
              job.policy, family, policy_seed);
          run = run_combinatorial(*policy, *family, env, job.scenario, runner);
        } else {
          const auto policy = PolicyRegistry::instance().make_single_play(
              job.policy, config.horizon, policy_seed);
          run = run_single_play(*policy, env, job.scenario, runner);
        }
        return sample_run(run, grid);
      },
      fold);
}

JobOutcome run_sweep_job(const SweepJob& job, std::size_t checkpoints,
                         const SweepRunOptions& options) {
  Timer timer;
  const ExperimentConfig& config = job.config;
  const std::vector<TimeSlot> grid =
      checkpoint_grid(config.horizon, checkpoints);
  const ShardPlan plan =
      plan_shards(config.replications, config.horizon, options.shard_size);
  JobOutcome outcome;
  outcome.job = job;
  outcome.aggregate = JobAggregate(grid);
  // A cancelled shard leaves the job short; it is then reported incomplete
  // and dropped, so partial aggregates never reach an emitter.
  run_job_replications(job, grid, plan, options, [&outcome](RepSample&& s) {
    outcome.aggregate.add_rep(s);
  });

  outcome.shards = plan.num_shards();
  outcome.shard_size = plan.shard_size;
  outcome.complete =
      outcome.aggregate.replications() == config.replications;
  outcome.seconds = timer.elapsed_seconds();
  return outcome;
}

SweepResult run_sweep(const SweepSpec& spec, const SweepRunOptions& options,
                      const std::set<std::string>& skip_keys) {
  SweepRunOptions job_options = options;
  if (job_options.shard_size == 0) job_options.shard_size = spec.shard_size;
  InstanceCache sweep_cache;
  if (job_options.instance_cache == nullptr) {
    job_options.instance_cache = &sweep_cache;
  }

  SweepResult result;
  for (const SweepJob& job : spec.expand()) {
    if (skip_keys.count(job.key)) {
      ++result.skipped;
      continue;
    }
    if (result.interrupted ||
        (options.should_stop && options.should_stop())) {
      result.interrupted = true;
      ++result.pending;
      continue;
    }
    if (options.max_jobs != 0 && result.outcomes.size() >= options.max_jobs) {
      ++result.pending;
      continue;
    }
    JobOutcome outcome = run_sweep_job(job, spec.checkpoints, job_options);
    if (!outcome.complete) {
      result.interrupted = true;
      ++result.pending;
      continue;
    }
    result.policy_seconds[job.policy].add(outcome.seconds);
    if (options.on_job) options.on_job(outcome);
    result.outcomes.push_back(std::move(outcome));
  }
  return result;
}

}  // namespace ncb::exp
