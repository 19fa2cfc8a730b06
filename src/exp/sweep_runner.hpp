// The sweep engine's execution layer: expand a SweepSpec and run each job's
// replications through exp::run_replications (exp/shard_scheduler.hpp), the
// one replication loop, sampling every run onto the job's checkpoint grid
// on its worker thread and streaming the job aggregates out in order.
//
// Determinism contract: a job's aggregate (and therefore the emitted JSON)
// is bit-identical for any thread count and any shard size, because every
// replication draws counter-based seeds and the loop folds the samples in
// global replication order — the same contract, from the same loop, as
// run_replicated_* and run_*_experiment. Timing is collected separately
// and never enters the deterministic records.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "exp/aggregate.hpp"
#include "exp/shard_scheduler.hpp"
#include "exp/sweep_spec.hpp"
#include "util/running_stat.hpp"

namespace ncb::exp {

/// One completed job plus its (non-deterministic) execution metadata.
struct JobOutcome {
  SweepJob job;
  JobAggregate aggregate;
  double seconds = 0.0;
  std::size_t shards = 0;
  std::size_t shard_size = 0;
  /// False when cancellation skipped shards; an incomplete aggregate must
  /// never be emitted (the job reruns from scratch on resume).
  bool complete = true;
};

/// Reuses the built instance (graph + arm distributions, and the strategy
/// family when combinatorial) across consecutive jobs whose instance
/// coordinates match — family, K, p, family-param, seed, and the family
/// fields. expand() puts the policy axis innermost, so a one-entry cache
/// removes every duplicate graph build in a grid; a distributed worker
/// keeps one across the shards it is assigned. Not thread-safe: callers use
/// it from the job loop, never from shard tasks. Horizon and policy are
/// deliberately not part of the key — they do not affect the instance.
class InstanceCache {
 public:
  struct Entry {
    std::shared_ptr<const BanditInstance> instance;
    std::shared_ptr<const FeasibleSet> family;  ///< Null for single-play.
  };

  /// Returns the cached entry when `config` matches the previous call,
  /// rebuilding (and re-keying) otherwise.
  [[nodiscard]] const Entry& get(const ExperimentConfig& config,
                                 bool combinatorial);

  [[nodiscard]] std::size_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::size_t misses() const noexcept { return misses_; }

 private:
  std::string key_;
  Entry entry_;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
};

struct SweepRunOptions {
  /// Worker pool; nullptr runs shards inline (identical results).
  ThreadPool* pool = nullptr;
  /// Shard-size override: 0 defers to the spec, which defers to the
  /// horizon-aware automatic size.
  std::size_t shard_size = 0;
  /// Stop after this many newly-run jobs (0 = run everything). The cut jobs
  /// are reported as `pending`, which is what --resume later picks up.
  std::size_t max_jobs = 0;
  /// Streaming per-job callback, invoked in expansion order as each job
  /// completes (progress lines, incremental emission, ...).
  std::function<void(const JobOutcome&)> on_job;
  /// Cooperative cancellation (e.g. a SIGINT flag). Checked before each job
  /// and before each shard, from worker threads too — must be thread-safe
  /// and cheap. Once it returns true the current job finishes incomplete
  /// (and is dropped) and the remaining jobs are reported pending, so an
  /// interrupted sweep's output stays valid for --resume.
  std::function<bool()> should_stop;
  /// Shared instance cache; nullptr gives each job a private one (still
  /// correct, no cross-job reuse).
  InstanceCache* instance_cache = nullptr;
};

struct SweepResult {
  std::vector<JobOutcome> outcomes;  ///< Newly-run jobs, expansion order.
  std::size_t skipped = 0;           ///< Jobs satisfied by `skip_keys`.
  std::size_t pending = 0;           ///< Jobs cut by max_jobs or should_stop.
  bool interrupted = false;          ///< should_stop fired mid-sweep.
  /// Wall-clock seconds per policy spec across this run's jobs.
  std::map<std::string, RunningStat> policy_seconds;
};

/// Runs the replications `plan` covers of `job` over its instance (and
/// family when combinatorial) from `options.instance_cache`, samples each
/// run on `grid` on its worker thread, and hands every sample to `fold` in
/// replication order. Uses options.pool and options.should_stop only. The
/// in-process job below and a distributed worker's shard both run here.
void run_job_replications(const SweepJob& job,
                          const std::vector<TimeSlot>& grid,
                          const ShardPlan& plan, const SweepRunOptions& options,
                          const std::function<void(RepSample&&)>& fold);

/// Runs one expanded job: builds the instance (and family when
/// combinatorial), shards its replications, and aggregates at the job's
/// checkpoint grid (`checkpoints` as in SweepSpec, 0 = dense).
[[nodiscard]] JobOutcome run_sweep_job(const SweepJob& job,
                                       std::size_t checkpoints,
                                       const SweepRunOptions& options);

/// Expands and runs the whole grid, skipping jobs whose key is in
/// `skip_keys` (the resume set).
[[nodiscard]] SweepResult run_sweep(const SweepSpec& spec,
                                    const SweepRunOptions& options,
                                    const std::set<std::string>& skip_keys = {});

}  // namespace ncb::exp
