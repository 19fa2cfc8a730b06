#include "dist/worker.hpp"

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>

#include "exp/emitters.hpp"
#include "exp/sweep_runner.hpp"
#include "sim/thread_pool.hpp"

namespace ncb::dist {

namespace {

/// Hello → WorkerInfo → await HelloAck. Returns -1 when admitted, else the
/// exit code: 0 when the coordinator vanished first (a clean no-work exit),
/// 2 on a version or protocol mismatch.
int worker_handshake(const WorkerLoop& loop) {
  HelloMsg hello;
  hello.schema = loop.schema;
  WorkerInfoMsg info;
  char hostname[256] = {0};
  if (::gethostname(hostname, sizeof hostname - 1) == 0) info.host = hostname;
  info.pid = static_cast<std::uint64_t>(::getpid());
  info.threads = loop.threads != 0
                     ? loop.threads
                     : std::max(1u, std::thread::hardware_concurrency());
  try {
    write_frame(loop.fd, MsgType::kHello, encode_hello(hello));
    write_frame(loop.fd, MsgType::kWorkerInfo, encode_worker_info(info));
    const std::optional<Frame> ack = read_frame(loop.fd);
    if (!ack) return 0;  // coordinator vanished before the handshake
    if (ack->type != MsgType::kHelloAck) {
      std::cerr << loop.who << ": expected HelloAck, got "
                << frame_type_name(ack->type) << '\n';
      return 2;
    }
    decode_hello_ack(ack->payload);
  } catch (const PeerClosedError&) {
    return 0;  // coordinator vanished mid-handshake — nothing was lost
  } catch (const std::exception& e) {
    std::cerr << loop.who << ": handshake failed: " << e.what() << '\n';
    return 2;
  }
  return -1;
}

}  // namespace

void Assignment::begin(std::string task_label, std::uint32_t attempt,
                       bool injectable) {
  label = std::move(task_label);
  const char* kill_key = std::getenv("NCB_DIST_KILL_KEY");
  if (injectable && kill_key != nullptr && attempt == 1 && label == kill_key) {
    ::raise(SIGKILL);
  }
}

int run_worker_loop(const WorkerLoop& loop) {
  ::signal(SIGINT, SIG_IGN);  // the coordinator owns interrupt handling

  if (const int code = worker_handshake(loop); code >= 0) return code;
  if (loop.preamble) {
    try {
      if (!loop.preamble()) return 0;
    } catch (const PeerClosedError&) {
      return 0;
    } catch (const std::exception& e) {
      std::cerr << loop.who << ": setup failed: " << e.what() << '\n';
      return 2;
    }
  }

  while (true) {
    std::optional<Frame> frame;
    try {
      frame = read_frame(loop.fd);
    } catch (const std::exception& e) {
      std::cerr << loop.who << ": read failed: " << e.what() << '\n';
      return 2;
    }
    if (!frame || frame->type == MsgType::kShutdown) return 0;
    if (frame->type != loop.assign_type) {
      std::cerr << loop.who << ": unexpected frame type "
                << frame_type_name(frame->type) << '\n';
      return 2;
    }

    Assignment assignment;
    std::string error;
    try {
      const Frame result = loop.run_one(frame->payload, assignment);
      write_frame(loop.fd, result.type, result.payload);
      continue;
    } catch (const PeerClosedError&) {
      return 0;  // coordinator gone; it will requeue the task elsewhere
    } catch (const std::exception& e) {
      error = e.what();
    }

    // A failed task (unknown policy, bad config, ...) is fatal for the
    // whole run — report it so the coordinator aborts with the real message
    // instead of requeueing a task that can never succeed.
    try {
      WorkerErrorMsg report;
      report.key = assignment.label;
      report.message = error;
      write_frame(loop.fd, MsgType::kWorkerError, encode_worker_error(report));
    } catch (const std::exception&) {
      // Coordinator already gone; the exit code still says "error".
    }
    return 1;
  }
}

int run_worker(const WorkerOptions& options) {
  ThreadPool pool(options.threads);
  exp::InstanceCache cache;  // reused across this worker's assignments

  WorkerLoop loop;
  loop.fd = options.fd;
  loop.threads = options.threads;
  loop.schema = static_cast<std::uint32_t>(exp::kSweepSchemaVersion);
  loop.who = "ncb_sweep worker";
  loop.assign_type = MsgType::kJobAssign;
  loop.run_one = [&](const std::string& payload, Assignment& assignment) {
    const JobAssignMsg assign = decode_job_assign(payload);
    assignment.begin(assign.job.key, assign.attempt, assign.rep_begin == 0);
    if (assign.rep_begin >= assign.rep_end ||
        assign.rep_end > assign.job.config.replications) {
      throw std::invalid_argument("replication range [" +
                                  std::to_string(assign.rep_begin) + ", " +
                                  std::to_string(assign.rep_end) +
                                  ") is not inside the job");
    }

    // One pool task per thread, equal replication counts.
    exp::ShardPlan plan;
    plan.first = static_cast<std::size_t>(assign.rep_begin);
    plan.replications =
        static_cast<std::size_t>(assign.rep_end - assign.rep_begin);
    plan.shard_size =
        (plan.replications + pool.num_threads() - 1) / pool.num_threads();
    exp::SweepRunOptions run_options;
    run_options.pool = &pool;
    run_options.instance_cache = &cache;
    JobResultMsg result;
    result.key = assign.job.key;
    result.rep_begin = assign.rep_begin;
    result.rep_end = assign.rep_end;
    result.samples.reserve(plan.replications);
    exp::run_job_replications(
        assign.job,
        exp::checkpoint_grid(assign.job.config.horizon,
                             static_cast<std::size_t>(assign.checkpoints)),
        plan, run_options, [&result](exp::RepSample&& sample) {
          result.samples.push_back(std::move(sample));
        });
    return Frame{MsgType::kJobResult, encode_job_result(result)};
  };
  return run_worker_loop(loop);
}

}  // namespace ncb::dist
