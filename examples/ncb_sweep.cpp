// ncb_sweep — the sweep engine's CLI.
//
// Loads a declarative sweep spec (see specs/*.sweep and README "Running
// sweeps"), expands the grid, runs every job, and writes schema-versioned
// JSON (and optionally CSV). Jobs run as fine-grained replication shards,
// either on an in-process thread pool or — with --workers N — across N
// worker processes coordinated over the src/dist/ protocol, every worker on
// the head job first. The JSON output is bit-identical
// for any --threads / --shard-size / --workers choice (even when a worker
// is killed mid-sweep), and --resume re-runs only the grid points missing
// from a partial output file. SIGINT/SIGTERM stop gracefully: completed
// job records are flushed so the file stays valid for --resume.
//
// Usage:
//   ncb_sweep --spec specs/fig3.sweep --out fig3.json [--csv fig3.csv]
//             [--threads N] [--shard-size N] [--max-jobs N] [--workers N]
//             [--listen host:port] [--port-file <file>]
//             [--resume] [--dry-run] [--list] [--list-policies]
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/policy_registry.hpp"
#include "dist/coordinator.hpp"
#include "dist/process.hpp"
#include "dist/worker.hpp"
#include "exp/emitters.hpp"
#include "exp/shard_scheduler.hpp"
#include "exp/sweep_runner.hpp"
#include "net/tcp.hpp"
#include "net/transport.hpp"
#include "obs/metrics.hpp"
#include "sim/thread_pool.hpp"
#include "util/arg_parse.hpp"
#include "util/timer.hpp"

namespace {

using namespace ncb;
using namespace ncb::exp;

int usage(const char* program) {
  std::cerr
      << "usage: " << program << " --spec <file> [options]\n"
         "  --spec <file>     sweep spec (key = value lines; see specs/)\n"
         "  --out <file>      JSON output (default: <spec name>.sweep.json)\n"
         "  --csv <file>      also emit a long-format CSV table\n"
         "  --metrics-out <f> write a final metrics-registry snapshot (JSON:\n"
         "                    dist.jobs.*, dist.workers.*, dist.bytes.*)\n"
         "  --threads N       worker threads: in-process pool size, or the\n"
         "                    per-worker pool size with --workers\n"
         "                    (0 = auto, default)\n"
         "  --shard-size N    fixed replications per shard (0 = auto)\n"
         "  --max-jobs N      run at most N pending jobs, then stop\n"
         "  --workers N       dispatch job shards to N worker processes (0 = run\n"
         "                    in-process, default); output is byte-identical\n"
         "                    either way\n"
         "  --listen H:P      coordinate over TCP instead of spawning: bind\n"
         "                    host:port (port 0 = kernel-assigned) and wait\n"
         "                    for workers started elsewhere with\n"
         "                    --worker-connect host:port; output is still\n"
         "                    byte-identical\n"
         "  --port-file F     with --listen: write the bound host:port to F\n"
         "                    once listening (for scripts using port 0)\n"
         "  --resume          keep finished jobs found in --out, run the rest\n"
         "  --dry-run         print the expanded jobs with slot/shard\n"
         "                    estimates (for sizing runs) and exit\n"
         "  --list            print the expanded job list and exit\n"
         "  --list-policies   print the policy registry and exit\n"
         "(--worker-fd and --worker-connect are internal: they turn this\n"
         " binary into a dispatch worker — on an inherited socket, or by\n"
         " dialing a --listen coordinator over TCP.)\n";
  return 2;
}

// SIGINT/SIGTERM request a graceful stop: the engine stops between jobs
// (and between shards), completed records are already flushed, and the
// final rewrite still runs — so the output is always resumable.
volatile std::sig_atomic_t g_stop = 0;

void handle_stop_signal(int) { g_stop = 1; }

void install_stop_handlers() {
  struct sigaction action {};
  action.sa_handler = handle_stop_signal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // no SA_RESTART: poll/read see EINTR promptly
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);
}

/// --dry-run: the expanded grid with per-job cost estimates, nothing runs.
int print_dry_run(const SweepSpec& spec, const std::vector<SweepJob>& jobs,
                  const std::map<std::string, std::string>& done,
                  std::size_t shard_size_override) {
  const std::size_t shard_size =
      shard_size_override != 0 ? shard_size_override : spec.shard_size;
  std::cout << "sweep '" << spec.name << "': " << jobs.size()
            << " jobs (dry run)\n";
  unsigned long long total_slots = 0;
  unsigned long long todo_slots = 0;
  std::size_t todo_jobs = 0;
  for (const SweepJob& job : jobs) {
    const unsigned long long slots =
        static_cast<unsigned long long>(job.config.replications) *
        static_cast<unsigned long long>(job.config.horizon);
    const ShardPlan plan =
        plan_shards(job.config.replications, job.config.horizon, shard_size);
    const bool finished = done.count(job.key) != 0;
    total_slots += slots;
    if (!finished) {
      todo_slots += slots;
      ++todo_jobs;
    }
    std::cout << "  [" << job.index << "] " << job.key << "\n        policy="
              << job.policy << " K=" << job.config.num_arms
              << " n=" << job.config.horizon
              << " reps=" << job.config.replications << " slots=" << slots
              << " shards=" << plan.num_shards() << "x" << plan.shard_size
              << (finished ? "  [done]" : "") << '\n';
  }
  std::cout << "total: " << jobs.size() << " jobs / " << total_slots
            << " slots; to run: " << todo_jobs << " jobs / " << todo_slots
            << " slots\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const ArgParse args(argc, argv);
    if (args.has("help")) return usage(args.program().c_str());

    // Internal worker mode: exec'd by a coordinator with an inherited
    // socket fd. Everything else in this file is coordinator/CLI-side.
    if (args.has("worker-fd")) {
      const auto fd = args.get_int("worker-fd", -1);
      if (fd < 0) {
        std::cerr << args.program() << ": error: bad --worker-fd\n";
        return 2;
      }
      dist::WorkerOptions worker;
      worker.fd = static_cast<int>(fd);
      worker.threads = static_cast<std::size_t>(args.get_int("threads", 0));
      return dist::run_worker(worker);
    }

    // TCP worker mode: dial a --listen coordinator. Refused connections are
    // retried briefly — workers routinely start before the coordinator.
    if (args.has("worker-connect")) {
      const net::HostPort address = net::parse_host_port(
          args.get_string("worker-connect", ""), "--worker-connect");
      dist::WorkerOptions worker;
      worker.fd = net::tcp_connect_retry(address, 5000, 10000);
      worker.threads = static_cast<std::size_t>(args.get_int("threads", 0));
      const int code = dist::run_worker(worker);
      ::close(worker.fd);
      return code;
    }

    if (args.has("list-policies")) {
      std::cout << PolicyRegistry::instance().render_listing();
      return 0;
    }
    const std::string spec_path = args.get_string("spec", "");
    if (spec_path.empty()) return usage(args.program().c_str());
    const SweepSpec spec = SweepSpec::parse_file(spec_path);
    const std::vector<SweepJob> jobs = spec.expand();

    if (args.has("list")) {
      std::cout << "sweep '" << spec.name << "': " << jobs.size()
                << " jobs\n";
      for (const SweepJob& job : jobs) {
        std::cout << "  [" << job.index << "] " << job.key << '\n';
      }
      return 0;
    }

    const std::string out_path =
        args.get_string("out", spec.name + ".sweep.json");
    const std::string csv_path = args.get_string("csv", "");
    const auto threads = args.get_int("threads", 0);
    const auto shard_size = args.get_int("shard-size", 0);
    const auto max_jobs = args.get_int("max-jobs", 0);
    const auto workers = args.get_int("workers", 0);
    // Field-named validation: each bad flag names itself, so a cluster
    // launch script's error message points at the one knob to fix.
    const auto reject = [&](const std::string& message) {
      std::cerr << args.program() << ": error: " << message << '\n';
      return 2;
    };
    if (threads < 0) return reject("--threads must be >= 0 (0 = auto)");
    if (shard_size < 0) return reject("--shard-size must be >= 0 (0 = auto)");
    if (max_jobs < 0) return reject("--max-jobs must be >= 0 (0 = all)");
    if (workers < 0) return reject("--workers must be >= 0 (0 = in-process)");
    const std::string listen_text = args.get_string("listen", "");
    const std::string port_file = args.get_string("port-file", "");
    if (!listen_text.empty() && workers > 0) {
      return reject(
          "--listen and --workers are mutually exclusive: a TCP fleet is "
          "whoever connects, not a spawned count");
    }
    if (!port_file.empty() && listen_text.empty()) {
      return reject("--port-file requires --listen");
    }
    // Parse (and so validate, with --listen-named errors) up front, before
    // any work happens.
    net::HostPort listen_address;
    if (!listen_text.empty()) {
      listen_address = net::parse_host_port(listen_text, "--listen");
    }

    // Resume: harvest finished job lines from a previous (partial) output.
    // A kept record must match the current spec exactly — the key encodes
    // the grid coordinates, and the record's seed/replications/checkpoints
    // are checked here so editing those spec fields invalidates old runs
    // instead of silently relabeling them.
    std::map<std::string, std::string> done;
    if (args.has("resume")) {
      std::map<std::string, const SweepJob*> by_key;
      for (const SweepJob& job : jobs) by_key.emplace(job.key, &job);
      for (auto& [key, line] : load_job_lines(out_path)) {
        const auto it = by_key.find(key);
        if (it == by_key.end()) {
          std::cout << "(resume: dropping stale job '" << key << "')\n";
          continue;
        }
        const ExperimentConfig& config = it->second->config;
        JobRecord record;
        try {
          record = parse_job_json(line);
        } catch (const std::invalid_argument&) {
          std::cout << "(resume: dropping unreadable record '" << key
                    << "')\n";
          continue;
        }
        if (record.seed != config.seed ||
            record.replications != config.replications ||
            record.checkpoints !=
                checkpoint_grid(config.horizon, spec.checkpoints)) {
          std::cout << "(resume: dropping outdated job '" << key
                    << "' — spec seed/replications/checkpoints changed)\n";
          continue;
        }
        done.emplace(key, line);
      }
      std::cout << "resume: " << done.size() << "/" << jobs.size()
                << " jobs already done in " << out_path << '\n';
    }

    if (args.has("dry-run")) {
      return print_dry_run(spec, jobs, done,
                           static_cast<std::size_t>(shard_size));
    }

    install_stop_handlers();

    std::set<std::string> skip;
    for (const auto& [key, line] : done) skip.insert(key);

    // Incremental checkpoint: header + already-done jobs up front, then one
    // appended line per finished job (O(total size) I/O). A crash or an
    // interrupt leaves a footer-less file load_job_lines can still scan;
    // the happy path ends with one atomic, expansion-ordered rewrite below.
    std::ofstream checkpoint(out_path, std::ios::binary | std::ios::trunc);
    if (!checkpoint) {
      throw std::runtime_error("cannot open '" + out_path + "' for write");
    }
    checkpoint << render_sweep_json_header(spec);
    for (const SweepJob& job : jobs) {
      const auto it = done.find(job.key);
      if (it != done.end()) checkpoint << it->second << ",\n";
    }
    checkpoint.flush();

    Timer timer;
    std::size_t launched = 0;
    std::size_t skipped = 0;
    std::size_t pending = 0;
    bool interrupted = false;
    std::map<std::string, RunningStat> policy_seconds;
    std::map<std::string, JobRecord> fresh;

    // The one place the checkpoint-file record discipline lives: one JSON
    // line + ",\n", flushed, so a crash/interrupt only ever truncates at a
    // record boundary — both execution paths feed through here.
    const auto record_done = [&](const std::string& key, std::string line,
                                 JobRecord record) {
      ++launched;
      checkpoint << line << ",\n" << std::flush;
      done[key] = std::move(line);
      fresh.emplace(key, std::move(record));
    };

    if (workers > 0 || !listen_text.empty()) {
      // Distributed path: fan jobs across workers — spawned processes of
      // this binary, or TCP peers dialing a --listen socket — and stream
      // their deterministic record lines into the same checkpoint file.
      dist::CoordinatorOptions dist_options;
      std::unique_ptr<net::TcpServerTransport> tcp;
      if (!listen_text.empty()) {
        tcp = std::make_unique<net::TcpServerTransport>(listen_address);
        dist_options.transport = tcp.get();
        const std::string bound = net::format_host_port(tcp->bound());
        std::cout << "sweep '" << spec.name << "': " << jobs.size()
                  << " jobs, listening on " << bound
                  << " (start workers with --worker-connect " << bound
                  << ")\n";
        if (!port_file.empty()) write_file(port_file, bound + "\n");
      } else {
        const std::size_t hardware =
            std::max(1u, std::thread::hardware_concurrency());
        const std::size_t per_worker =
            threads > 0
                ? static_cast<std::size_t>(threads)
                : std::max<std::size_t>(
                      1, hardware / static_cast<std::size_t>(workers));
        dist_options.workers = static_cast<std::size_t>(workers);
        dist_options.worker_threads = per_worker;
        dist_options.worker_command = {dist::self_exe_path(args.program()),
                                       "--threads",
                                       std::to_string(per_worker)};
        std::cout << "sweep '" << spec.name << "': " << jobs.size()
                  << " jobs, " << workers << " workers x " << per_worker
                  << " threads\n";
      }
      dist_options.checkpoints = spec.checkpoints;
      dist_options.shard_size = static_cast<std::size_t>(shard_size) != 0
                                    ? static_cast<std::size_t>(shard_size)
                                    : spec.shard_size;
      dist_options.max_jobs = static_cast<std::size_t>(max_jobs);
      dist_options.should_stop = [] { return g_stop != 0; };
      dist_options.on_result = [&](const dist::DistJobResult& result) {
        JobRecord record = parse_job_json(result.record_line);
        std::string ran_on;
        for (const std::size_t id : result.workers) {
          ran_on += (ran_on.empty() ? "" : ",") + std::to_string(id);
        }
        std::cout << "  [" << result.job->index + 1 << "/" << jobs.size()
                  << "] " << result.job->key << "  reps="
                  << record.replications << " shards=" << result.shards << "x"
                  << result.shard_size << "  final=" << record.final_mean
                  << "  " << result.seconds << "s  (worker " << ran_on
                  << (result.attempts > 1
                          ? ", attempt " + std::to_string(result.attempts)
                          : "")
                  << ")\n";
        record_done(result.job->key, result.record_line, std::move(record));
      };
      const dist::DistSweepSummary summary =
          dist::run_distributed_sweep(jobs, dist_options, skip);
      skipped = summary.skipped;
      pending = summary.pending;
      interrupted = summary.interrupted;
      policy_seconds = summary.policy_seconds;
      if (summary.requeues > 0) {
        std::cout << "(requeued " << summary.requeues
                  << " assignments after worker loss — output unaffected)\n";
      }
      for (const net::WorkerSummary& w : summary.workers) {
        std::cout << "  worker " << w.id << " (" << w.where;
        if (!w.host.empty()) std::cout << ", " << w.host << "/" << w.remote_pid;
        std::cout << "): " << w.tasks_done << " shards, " << std::fixed
                  << std::setprecision(1) << w.seconds << "s, "
                  << w.bytes_out << "B out / " << w.bytes_in << "B in"
                  << (w.lost_in_flight ? "  [lost mid-shard]"
                                       : (w.lost ? "  [lost]" : ""))
                  << "\n";
        std::cout.unsetf(std::ios::fixed);
        std::cout << std::setprecision(6);
      }
    } else {
      ThreadPool pool(static_cast<std::size_t>(threads));
      std::cout << "sweep '" << spec.name << "': " << jobs.size() << " jobs, "
                << pool.num_threads() << " threads\n";
      SweepRunOptions options;
      options.pool = &pool;
      options.shard_size = static_cast<std::size_t>(shard_size);
      options.max_jobs = static_cast<std::size_t>(max_jobs);
      options.should_stop = [] { return g_stop != 0; };
      options.on_job = [&](const JobOutcome& outcome) {
        std::cout << "  [" << outcome.job.index + 1 << "/" << jobs.size()
                  << "] " << outcome.job.key << "  reps="
                  << outcome.aggregate.replications() << " shards="
                  << outcome.shards << "x" << outcome.shard_size
                  << "  final=" << outcome.aggregate.final_cumulative().mean()
                  << "  " << outcome.seconds << "s\n";
        JobRecord record = JobRecord::from(outcome.job, outcome.aggregate);
        std::string line = render_job_json(record);
        record_done(outcome.job.key, std::move(line), std::move(record));
      };
      const SweepResult result = run_sweep(spec, options, skip);
      skipped = result.skipped;
      pending = result.pending;
      interrupted = result.interrupted;
      policy_seconds = result.policy_seconds;
    }
    checkpoint.close();

    // Final rewrite: jobs in expansion order regardless of which run (or
    // which worker) produced them, so partial + resume — and any worker
    // count — equals one full run byte-for-byte.
    std::vector<std::string> lines;
    for (const SweepJob& job : jobs) {
      const auto it = done.find(job.key);
      if (it != done.end()) lines.push_back(it->second);
    }
    write_file(out_path, render_sweep_json(spec, lines));
    const std::size_t emitted = lines.size();
    std::cout << "wrote " << out_path << " (" << emitted << "/" << jobs.size()
              << " jobs)\n";
    if (!csv_path.empty()) {
      // Only resumed jobs need re-parsing; fresh ones keep their records.
      std::vector<JobRecord> records;
      for (const SweepJob& job : jobs) {
        const auto it = done.find(job.key);
        if (it == done.end()) continue;
        const auto have = fresh.find(job.key);
        records.push_back(have != fresh.end() ? have->second
                                              : parse_job_json(it->second));
      }
      write_file(csv_path, render_sweep_csv(records));
      std::cout << "wrote " << csv_path << '\n';
    }

    if (!policy_seconds.empty()) {
      std::cout << "per-policy timing (this run):\n";
      for (const auto& [policy, stat] : policy_seconds) {
        std::cout << "  " << policy << ": " << stat.count() << " jobs, mean "
                  << stat.mean() << "s, total "
                  << stat.mean() * static_cast<double>(stat.count()) << "s\n";
      }
    }
    if (pending > 0) {
      std::cout << "partial: " << pending
                << " jobs still pending (rerun with --resume)\n";
    }
    std::cout << "ran " << launched << " jobs (skipped " << skipped << ") in "
              << timer.elapsed_seconds() << "s\n";
    const std::string metrics_path = args.get_string("metrics-out", "");
    if (!metrics_path.empty()) {
      write_file(metrics_path,
                 obs::MetricsRegistry::global().snapshot().render_json());
      std::cout << "wrote " << metrics_path << '\n';
    }
    if (interrupted) {
      std::cout << "interrupted: completed records were flushed; rerun with "
                   "--resume to finish\n";
      return 130;
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << (argc > 0 ? argv[0] : "ncb_sweep") << ": error: " << e.what()
              << '\n';
    return 2;
  }
}
