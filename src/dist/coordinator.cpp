#include "dist/coordinator.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <unordered_map>

#include "dist/protocol.hpp"
#include "exp/emitters.hpp"
#include "exp/shard_scheduler.hpp"
#include "net/transport.hpp"
#include "obs/metrics.hpp"
#include "util/timer.hpp"

namespace ncb::dist {

namespace {

/// A job between its first shard dispatch and its last shard result.
struct JobProgress {
  exp::JobAggregate aggregate;
  exp::InOrderFold<exp::RepSample> order;
  double started = 0.0;  ///< Coordinator clock at the first dispatch.
  std::vector<std::size_t> workers;
  std::uint32_t attempts = 1;
};

}  // namespace

DistSweepSummary run_distributed_sweep(const std::vector<exp::SweepJob>& jobs,
                                       const CoordinatorOptions& options,
                                       const std::set<std::string>& skip_keys) {
  if (options.transport == nullptr && options.worker_command.empty()) {
    throw std::invalid_argument("run_distributed_sweep: no worker command");
  }
  std::unique_ptr<net::ProcessTransport> owned;
  net::StreamTransport* transport = options.transport;
  if (transport == nullptr) {
    owned = std::make_unique<net::ProcessTransport>(options.worker_command);
    transport = owned.get();
  }

  DistSweepSummary summary;
  std::vector<std::size_t> queued;
  std::unordered_map<std::string, std::size_t> index_of;
  // The skip/max_jobs cut happens in expansion order FIRST — which jobs run
  // must not depend on the scheduling heuristic below, or --max-jobs resume
  // chains would compute different subsets per transport.
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    index_of.emplace(jobs[i].key, i);
    if (skip_keys.count(jobs[i].key)) {
      ++summary.skipped;
    } else if (options.max_jobs != 0 && queued.size() >= options.max_jobs) {
      ++summary.pending;
    } else {
      queued.push_back(i);
    }
  }
  // Largest-first by the --dry-run slot estimate (replications × horizon).
  // Stable, so equal-cost jobs keep expansion order. Merge is in canonical
  // expansion order regardless, so this affects makespan only, never bytes.
  const auto job_slots = [&](std::size_t index) {
    return static_cast<std::uint64_t>(jobs[index].config.replications) *
           static_cast<std::uint64_t>(jobs[index].config.horizon);
  };
  std::stable_sort(queued.begin(), queued.end(),
                   [&](std::size_t a, std::size_t b) {
                     return job_slots(a) > job_slots(b);
                   });

  // Job-major: every shard of the head job, in replication order, then the
  // next job's. A job's tasks are contiguous, from first_task[job] on.
  net::WorkerPool::Farm farm;
  std::vector<exp::ShardPlan> plans(jobs.size());
  std::vector<std::size_t> first_task(jobs.size());
  std::vector<std::size_t> task_job;
  for (const std::size_t job : queued) {
    const ExperimentConfig& config = jobs[job].config;
    plans[job] = exp::plan_dispatch_shards(config.replications,
                                           config.horizon, options.shard_size,
                                           options.worker_threads);
    first_task[job] = task_job.size();
    for (std::size_t s = 0; s < plans[job].num_shards(); ++s) {
      farm.queue.push_back(task_job.size());
      farm.labels.push_back(jobs[job].key + " replications [" +
                            std::to_string(plans[job].shard_begin(s)) + ", " +
                            std::to_string(plans[job].shard_end(s)) + ")");
      task_job.push_back(job);
    }
  }

  Timer clock;
  std::unordered_map<std::size_t, JobProgress> active;
  obs::Counter& m_jobs_completed =
      obs::MetricsRegistry::global().counter("dist.jobs.completed");
  farm.metric_stem = "dist.jobs";
  farm.result_type = MsgType::kJobResult;
  farm.encode = [&](std::size_t task, std::uint32_t attempt) {
    const std::size_t job = task_job[task];
    const std::size_t shard = task - first_task[job];
    if (active.find(job) == active.end()) {
      JobProgress& progress = active[job];
      progress.aggregate = exp::JobAggregate(
          exp::checkpoint_grid(jobs[job].config.horizon, options.checkpoints));
      progress.started = clock.elapsed_seconds();
    }
    JobAssignMsg assign;
    assign.attempt = attempt;
    assign.checkpoints = options.checkpoints;
    assign.rep_begin = plans[job].shard_begin(shard);
    assign.rep_end = plans[job].shard_end(shard);
    assign.job = jobs[job];
    return Frame{MsgType::kJobAssign, encode_job_assign(assign)};
  };
  // Returns the task the result completes, or task_job.size() — which the
  // pool reports as a protocol violation — when its key, range, sample
  // count or grid size matches no dispatched shard.
  farm.accept = [&](const Frame& frame, std::size_t worker,
                    std::uint32_t attempt) -> std::size_t {
    JobResultMsg result = decode_job_result(frame.payload);
    const std::size_t no_task = task_job.size();
    const auto found = index_of.find(result.key);
    if (found == index_of.end()) return no_task;
    const std::size_t job = found->second;
    const auto live = active.find(job);
    if (live == active.end()) return no_task;
    const exp::ShardPlan& plan = plans[job];
    const std::size_t shard =
        static_cast<std::size_t>(result.rep_begin / plan.shard_size);
    if (shard >= plan.num_shards() ||
        result.rep_begin != plan.shard_begin(shard) ||
        result.rep_end != plan.shard_end(shard) ||
        result.samples.size() != result.rep_end - result.rep_begin) {
      return no_task;
    }
    JobProgress& progress = live->second;
    const std::size_t grid_size = progress.aggregate.grid().size();
    for (const exp::RepSample& sample : result.samples) {
      if (sample.per_slot.size() != grid_size ||
          sample.cumulative.size() != grid_size) {
        return no_task;
      }
    }

    progress.attempts = std::max(progress.attempts, attempt);
    if (std::find(progress.workers.begin(), progress.workers.end(), worker) ==
        progress.workers.end()) {
      progress.workers.push_back(worker);
    }
    progress.order.deliver(shard, std::move(result.samples),
                           [&progress](exp::RepSample&& sample) {
                             progress.aggregate.add_rep(sample);
                           });
    if (progress.order.folded() == plan.num_shards()) {
      m_jobs_completed.inc();
      DistJobResult done;
      done.job = &jobs[job];
      done.record_line = exp::render_job_json(
          exp::JobRecord::from(jobs[job], progress.aggregate));
      done.seconds = clock.elapsed_seconds() - progress.started;
      done.shards = plan.num_shards();
      done.shard_size = plan.shard_size;
      done.workers = std::move(progress.workers);
      done.attempts = progress.attempts;
      active.erase(live);
      summary.policy_seconds[jobs[job].policy].add(done.seconds);
      if (options.on_result) options.on_result(done);
      summary.results.emplace(jobs[job].key, std::move(done));
    }
    return first_task[job] + shard;
  };
  farm.should_stop = options.should_stop;

  net::WorkerPool::Options pool_options;
  pool_options.transport = transport;
  pool_options.expected_schema =
      static_cast<std::uint32_t>(exp::kSweepSchemaVersion);
  pool_options.workers = options.workers;
  net::WorkerPool pool(pool_options);
  net::WorkerPool::Outcome outcome = pool.run(std::move(farm));
  // A stop leaves every job whose last shard never landed pending.
  summary.pending += queued.size() - summary.results.size();
  summary.requeues = outcome.requeues;
  summary.interrupted = outcome.interrupted;
  summary.workers = std::move(outcome.workers);
  return summary;
}

}  // namespace ncb::dist
