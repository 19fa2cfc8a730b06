#include "dist/coordinator.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <unordered_map>

#include "dist/protocol.hpp"
#include "exp/emitters.hpp"
#include "net/transport.hpp"
#include "obs/metrics.hpp"

namespace ncb::dist {

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
  net::WorkerPool::Farm farm;
  std::unordered_map<std::string, std::size_t> index_of;
  // The skip/max_jobs cut happens in expansion order FIRST — which jobs run
  // must not depend on the scheduling heuristic below, or --max-jobs resume
  // chains would compute different subsets per transport.
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    farm.labels.push_back(jobs[i].key);
    index_of.emplace(jobs[i].key, i);
    if (skip_keys.count(jobs[i].key)) {
      ++summary.skipped;
    } else if (options.max_jobs != 0 && farm.queue.size() >= options.max_jobs) {
      ++summary.pending;
    } else {
      farm.queue.push_back(i);
    }
  }
  // Largest-first by the --dry-run slot estimate (replications × horizon).
  // Stable, so equal-cost jobs keep expansion order. Merge is in canonical
  // expansion order regardless, so this affects makespan only, never bytes.
  const auto job_slots = [&](std::size_t index) {
    return static_cast<std::uint64_t>(jobs[index].config.replications) *
           static_cast<std::uint64_t>(jobs[index].config.horizon);
  };
  std::stable_sort(farm.queue.begin(), farm.queue.end(),
                   [&](std::size_t a, std::size_t b) {
                     return job_slots(a) > job_slots(b);
                   });

  obs::Counter& m_jobs_completed =
      obs::MetricsRegistry::global().counter("dist.jobs.completed");
  farm.metric_stem = "dist.jobs";
  farm.result_type = MsgType::kJobResult;
  farm.encode = [&](std::size_t index, std::uint32_t attempt) {
    JobAssignMsg assign;
    assign.attempt = attempt;
    assign.checkpoints = options.checkpoints;
    assign.shard_size = options.shard_size;
    assign.job = jobs[index];
    return Frame{MsgType::kJobAssign, encode_job_assign(assign)};
  };
  farm.accept = [&](const Frame& frame, std::size_t worker,
                    std::uint32_t attempt) -> std::size_t {
    const JobResultMsg result = decode_job_result(frame.payload);
    const auto found = index_of.find(result.key);
    if (found == index_of.end()) return jobs.size();  // matches no task
    const std::size_t index = found->second;
    m_jobs_completed.inc();
    DistJobResult done;
    done.job = &jobs[index];
    done.record_line = result.record_line;
    done.seconds = result.seconds;
    done.shards = static_cast<std::size_t>(result.shards);
    done.shard_size = static_cast<std::size_t>(result.shard_size);
    done.worker = worker;
    done.attempts = attempt;
    summary.policy_seconds[jobs[index].policy].add(result.seconds);
    if (options.on_result) options.on_result(done);
    summary.results.emplace(jobs[index].key, std::move(done));
    return index;
  };
  farm.should_stop = options.should_stop;

  net::WorkerPool::Options pool_options;
  pool_options.transport = transport;
  pool_options.expected_schema =
      static_cast<std::uint32_t>(exp::kSweepSchemaVersion);
  pool_options.workers = options.workers;
  net::WorkerPool pool(pool_options);
  net::WorkerPool::Outcome outcome = pool.run(std::move(farm));
  summary.pending += outcome.pending;
  summary.requeues = outcome.requeues;
  summary.interrupted = outcome.interrupted;
  summary.workers = std::move(outcome.workers);
  return summary;
}

}  // namespace ncb::dist
