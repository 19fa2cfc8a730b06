// The sweep end of the task farm: cut the job list (skip keys, --max-jobs),
// order it largest-first, and hand it to net::WorkerPool (see
// net/worker_pool.hpp), which owns dispatch, crash requeue and the fleet. Workers arrive through a
// net::StreamTransport — forked local processes or TCP peers dialing in from
// other machines — and are treated identically once admitted.
//
// Dispatch is demand-driven (the idle worker gets the next job), so fast
// workers naturally take more of the grid — work stealing without a shared
// queue. Jobs are handed out largest-first (by replications × horizon, the
// --dry-run slot estimate): on a heterogeneous fleet the long poles start
// early and the stragglers at the end are cheap, shortening the makespan.
// Determinism is never entrusted to scheduling: every job's replications
// derive counter-based seeds from the job's own spec coordinates, so a job
// computes the same bytes on any worker and any attempt, and the caller
// merges record lines in canonical expansion order — dispatch order, like
// completion order, never shows in the output. A worker lost mid-job
// (crash, SIGKILL, dropped connection) has its job requeued at the front
// with its original seed counter; on a spawning transport a replacement
// process is started — the merged output is byte-identical to an
// undisturbed run.
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

/// One job completed by a worker. `record_line` is the deterministic
/// artifact; everything else is execution metadata for stdout only.
struct DistJobResult {
  const exp::SweepJob* job = nullptr;  ///< Into the jobs vector passed in.
  std::string record_line;
  double seconds = 0.0;
  std::size_t shards = 0;
  std::size_t shard_size = 0;
  std::size_t worker = 0;    ///< Worker slot that ran it (display only).
  std::size_t attempts = 1;  ///< 1 + crash requeues.
};

struct CoordinatorOptions {
  /// Worker process count (capped at the eligible job count). Ignored on
  /// an accept-based transport, where the fleet is whoever connects.
  std::size_t workers = 2;
  /// argv to exec for each worker; spawn_worker appends `--worker-fd <n>`.
  /// Ignored when `transport` is set.
  std::vector<std::string> worker_command;
  /// Where worker streams come from. Null → an internal ProcessTransport
  /// built from `worker_command` (the single-machine fork/exec path).
  /// The byte-identical-output guarantee holds across transports: jobs
  /// derive counter-based seeds from their spec coordinates and results
  /// merge in canonical expansion order, so WHERE a job ran never shows.
  net::StreamTransport* transport = nullptr;
  /// Per-job checkpoint count (SweepSpec::checkpoints).
  std::size_t checkpoints = 30;
  /// Shard-size override forwarded to workers (0 = horizon-aware auto).
  std::size_t shard_size = 0;
  /// Dispatch at most this many jobs (0 = all); the rest report pending.
  std::size_t max_jobs = 0;
  /// Streaming callback in completion order (NOT expansion order — merge
  /// deterministically from `results` afterwards).
  std::function<void(const DistJobResult&)> on_result;
  /// Cooperative stop (e.g. a SIGINT flag): no new assignments, in-flight
  /// jobs drain and still count as done, the rest report pending.
  std::function<bool()> should_stop;
};

struct DistSweepSummary {
  std::map<std::string, DistJobResult> results;  ///< By job key.
  std::size_t skipped = 0;   ///< Jobs satisfied by skip_keys.
  std::size_t pending = 0;   ///< Jobs cut by max_jobs or should_stop.
  std::size_t requeues = 0;  ///< Crash-requeued assignments.
  bool interrupted = false;  ///< should_stop fired mid-sweep.
  /// Worker wall-clock seconds per policy spec (display only).
  std::map<std::string, RunningStat> policy_seconds;
  /// Per-worker accounting (jobs, bytes, wall time) in admission order.
  std::vector<net::WorkerSummary> workers;
};

/// Runs `jobs` minus `skip_keys` across worker processes and collects one
/// record line per job. Throws std::runtime_error when a worker reports a
/// job error, a job crashes net::WorkerPool::kMaxAttempts workers, or the
/// fleet dies during handshake; workers are killed and reaped before the
/// throw.
[[nodiscard]] DistSweepSummary run_distributed_sweep(
    const std::vector<exp::SweepJob>& jobs, const CoordinatorOptions& options,
    const std::set<std::string>& skip_keys = {});

}  // namespace ncb::dist
