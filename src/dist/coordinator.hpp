// The sweep end of the task farm: cut the job list (skip keys, --max-jobs),
// cut each job into replication shards, order them job-major and
// largest-job-first, and hand them to net::WorkerPool (see
// net/worker_pool.hpp), which owns dispatch, crash requeue and the fleet.
// Workers arrive through a net::StreamTransport — forked local processes
// or TCP peers dialing in from other machines — and are treated
// identically once admitted.
//
// The unit of work is a shard: a contiguous replication range of one job
// (exp::plan_dispatch_shards — the horizon-aware size rounded up to a
// multiple of the per-worker thread count, so every worker thread runs
// equal replication counts and a horizon-1 job stays one shard). Dispatch
// is demand-driven (an idle worker gets the next shard, one in flight per
// worker), so fast workers naturally take more of the grid — work stealing
// without a shared queue. Dispatch is job-major: the largest job (by
// replications × horizon, the --dry-run slot estimate) goes first, all of
// its shards in order, then the next job. The head job thus gets every
// thread in the fleet and finishes early; interleaving shards across jobs
// would stretch every job over the whole pass.
//
// Determinism is never entrusted to scheduling: every replication derives
// counter-based seeds from the job's own spec coordinates, so a shard
// computes the same samples on any worker and any attempt. The coordinator
// folds each job's samples into its JobAggregate strictly in replication
// order (exp::InOrderFold — the same fold the in-process thread pool uses)
// and renders the record with the same render_job_json(JobRecord::from(…))
// as the in-process path; the caller merges record lines in canonical
// expansion order, so neither dispatch nor completion order shows in the
// output. A worker lost mid-shard (crash, SIGKILL, dropped connection) has
// its shard requeued at the front with its original seed counter; on a
// spawning transport a replacement process is started — the merged output
// is byte-identical to an undisturbed run.
#pragma once

#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "exp/sweep_spec.hpp"
#include "net/worker_pool.hpp"
#include "util/running_stat.hpp"

namespace ncb::dist {

/// One job completed by the fleet. `record_line` is the deterministic
/// artifact; everything else is execution metadata for stdout only.
struct DistJobResult {
  const exp::SweepJob* job = nullptr;  ///< Into the jobs vector passed in.
  std::string record_line;
  /// Coordinator wall time from the job's first shard dispatch to its last
  /// shard result.
  double seconds = 0.0;
  std::size_t shards = 0;
  std::size_t shard_size = 0;
  std::vector<std::size_t> workers;  ///< Worker ids that ran its shards.
  std::size_t attempts = 1;  ///< 1 + crash requeues of its worst shard.
};

struct CoordinatorOptions {
  /// Worker process count (the pool caps it at the eligible shard count).
  /// Ignored on an accept-based transport, where the fleet is whoever
  /// connects.
  std::size_t workers = 2;
  /// Each worker's thread count; shard sizes round up to a multiple of it
  /// (1 = no rounding, e.g. on a TCP fleet of unknown width).
  std::size_t worker_threads = 1;
  /// argv to exec for each worker; spawn_worker appends `--worker-fd <n>`.
  /// Ignored when `transport` is set.
  std::vector<std::string> worker_command;
  /// Where worker streams come from. Null → an internal ProcessTransport
  /// built from `worker_command` (the single-machine fork/exec path).
  /// The byte-identical-output guarantee holds across transports: shards
  /// derive counter-based seeds from their spec coordinates and fold in
  /// replication order, so WHERE a shard ran never shows.
  net::StreamTransport* transport = nullptr;
  /// Per-job checkpoint count (SweepSpec::checkpoints).
  std::size_t checkpoints = 30;
  /// Replications per shard (0 = plan_dispatch_shards' automatic size).
  std::size_t shard_size = 0;
  /// Dispatch at most this many jobs (0 = all); the rest report pending.
  std::size_t max_jobs = 0;
  /// Streaming callback in completion order (NOT expansion order — merge
  /// deterministically from `results` afterwards).
  std::function<void(const DistJobResult&)> on_result;
  /// Cooperative stop (e.g. a SIGINT flag): no new assignments, in-flight
  /// shards drain, jobs not finished by then report pending.
  std::function<bool()> should_stop;
};

struct DistSweepSummary {
  std::map<std::string, DistJobResult> results;  ///< By job key.
  std::size_t skipped = 0;   ///< Jobs satisfied by skip_keys.
  std::size_t pending = 0;   ///< Jobs cut by max_jobs or left by a stop.
  std::size_t requeues = 0;  ///< Crash-requeued shard assignments.
  bool interrupted = false;  ///< should_stop fired mid-sweep.
  /// Job wall-clock seconds per policy spec (display only).
  std::map<std::string, RunningStat> policy_seconds;
  /// Per-worker accounting (shards, bytes, wall time) in admission order.
  std::vector<net::WorkerSummary> workers;
};

/// Runs `jobs` minus `skip_keys` across worker processes and collects one
/// record line per job. Throws std::runtime_error when a worker reports a
/// job error, a shard crashes net::WorkerPool::kMaxAttempts workers, a
/// result does not match its assignment (key, replication range, sample
/// count or checkpoint grid), or the fleet dies during handshake; workers
/// are killed and reaped before the throw.
[[nodiscard]] DistSweepSummary run_distributed_sweep(
    const std::vector<exp::SweepJob>& jobs, const CoordinatorOptions& options,
    const std::set<std::string>& skip_keys = {});

}  // namespace ncb::dist
