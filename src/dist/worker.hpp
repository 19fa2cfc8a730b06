// The worker end of the task farm (net/worker_pool.hpp): one loop shared by
// sweep workers (run_worker) and replay workers (replay::run_replay_worker).
// It handshakes, lets the app read any per-worker setup frames, then runs
// assignments until Shutdown or coordinator EOF. The loop only ever sees a
// connected stream fd, so it serves the socketpair and TCP transports alike.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include "dist/protocol.hpp"

namespace ncb::dist {

/// The task a worker is running, as the loop sees it. An app's run-one
/// callback calls begin() as soon as it has decoded the assignment.
struct Assignment {
  std::string label;  ///< Job key / candidate spec; names a WorkerError.

  /// Records the task label and applies the crash injection: when the
  /// environment variable NCB_DIST_KILL_KEY equals `task_label` on attempt
  /// 1 of a task that may carry it (`injectable`: a sweep job's first
  /// shard, any replay candidate), the worker raises SIGKILL instead of
  /// running the task — a deterministic stand-in for a worker lost
  /// mid-task that exercises the coordinator's requeue path (tests/CI
  /// only). One label thus kills exactly one worker.
  void begin(std::string task_label, std::uint32_t attempt, bool injectable);
};

struct WorkerLoop {
  int fd = -1;                  ///< Connected stream to the coordinator.
  std::size_t threads = 0;      ///< Reported in WorkerInfo (0 = hardware).
  std::uint32_t schema = 0;     ///< Hello schema word of this worker kind.
  const char* who = "worker";   ///< Diagnostics prefix on stderr.
  MsgType assign_type = MsgType::kJobAssign;
  /// Optional: reads the coordinator's setup frames after the handshake.
  /// Returns false when the coordinator went away first (a clean exit);
  /// throws on a protocol error.
  std::function<bool()> preamble;
  /// Runs one assignment payload and returns the result frame to send.
  std::function<Frame(const std::string& payload, Assignment& assignment)>
      run_one;
};

/// Runs the worker loop and returns a process exit code: 0 on a clean drain
/// (Shutdown, EOF, or the coordinator vanishing at any point), 1 after
/// reporting a task error as WorkerError, 2 on a handshake or protocol
/// error (diagnostics go to stderr prefixed with `who`).
///
/// Signals: SIGINT is ignored — a ^C lands on the whole foreground process
/// group, and the coordinator (which did not ignore it) drives the graceful
/// stop: workers finish their in-flight task, deliver it, and get a Shutdown.
[[nodiscard]] int run_worker_loop(const WorkerLoop& loop);

struct WorkerOptions {
  int fd = -1;            ///< Connected stream to the coordinator.
  std::size_t threads = 0;  ///< Shard pool size (0 = hardware concurrency).
};

/// The sweep worker: runs each assigned shard (a replication range of one
/// SweepJob) across its thread pool, every thread taking an equal share,
/// and ships the per-replication samples back in replication order; the
/// coordinator folds and renders them (run_worker_loop codes). Instances
/// are cached across consecutive shards of the same instance.
[[nodiscard]] int run_worker(const WorkerOptions& options);

}  // namespace ncb::dist
