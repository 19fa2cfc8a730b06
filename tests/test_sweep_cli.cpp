// Process-level tests of the ncb_sweep CLI and the distributed dispatch
// layer, driving the real binary (path injected as NCB_SWEEP_BIN):
//   - --dry-run lists without running,
//   - --workers {1,2,4} output is byte-identical to the in-process run,
//   - a one-job grid still admits every worker: the fleet is capped by
//     replication shards, not jobs,
//   - a worker SIGKILLed mid-sweep is requeued and the bytes still match,
//   - SIGINT leaves a record-boundary-valid file that --resume completes to
//     the exact bytes of an uninterrupted run,
//   - --resume bridges the in-process and distributed paths.
// All tests GTEST_SKIP when the binary is not built (ASan config builds
// tests without examples).
#include <fcntl.h>
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#ifndef NCB_SWEEP_BIN
#define NCB_SWEEP_BIN ""
#endif
#ifndef NCB_SPECS_DIR
#define NCB_SPECS_DIR ""
#endif

namespace {

namespace fs = std::filesystem;

constexpr const char* kSweepBin = NCB_SWEEP_BIN;

bool binary_available() { return kSweepBin[0] != '\0'; }

#define REQUIRE_BINARY()                                           \
  do {                                                             \
    if (!binary_available())                                       \
      GTEST_SKIP() << "ncb_sweep not built in this configuration"; \
  } while (0)

struct TempDir {
  fs::path path;
  TempDir() {
    std::string tmpl = (fs::temp_directory_path() / "ncb_cli_XXXXXX").string();
    char* made = ::mkdtemp(tmpl.data());
    EXPECT_NE(made, nullptr);
    path = tmpl;
  }
  ~TempDir() {
    std::error_code ignored;
    fs::remove_all(path, ignored);
  }
  [[nodiscard]] std::string file(const std::string& name) const {
    return (path / name).string();
  }
};

void write_text(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out) << path;
  out << content;
}

std::string read_text(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

using EnvVars = std::vector<std::pair<std::string, std::string>>;

/// fork/exec of the real binary; stdout goes to `stdout_path` (or
/// /dev/null when empty — the progress stream is usually not under test),
/// stderr to `stderr_path` (or stays visible for debugging when empty).
pid_t spawn_sweep(const std::vector<std::string>& args, const EnvVars& env,
                  const std::string& stdout_path = "",
                  const std::string& stderr_path = "") {
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  for (const auto& [key, value] : env) {
    ::setenv(key.c_str(), value.c_str(), 1);
  }
  const int out = ::open(stdout_path.empty() ? "/dev/null"
                                             : stdout_path.c_str(),
                         O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (out >= 0) {
    ::dup2(out, STDOUT_FILENO);
    ::close(out);
  }
  if (!stderr_path.empty()) {
    const int err =
        ::open(stderr_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (err >= 0) {
      ::dup2(err, STDERR_FILENO);
      ::close(err);
    }
  }
  std::vector<std::string> full;
  full.push_back(kSweepBin);
  full.insert(full.end(), args.begin(), args.end());
  std::vector<char*> argv;
  argv.reserve(full.size() + 1);
  for (std::string& arg : full) argv.push_back(arg.data());
  argv.push_back(nullptr);
  ::execv(kSweepBin, argv.data());
  ::_exit(127);
}

int wait_exit(pid_t pid) {
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) return -1;
  }
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
  return -1;
}

int run_sweep(const std::vector<std::string>& args, const EnvVars& env = {},
              const std::string& stdout_path = "",
              const std::string& stderr_path = "") {
  return wait_exit(spawn_sweep(args, env, stdout_path, stderr_path));
}

/// The fast 4-job grid (2 policies × 2 horizons) used by most tests.
std::string tiny_spec() {
  return "name = cli\n"
         "scenario = sso\n"
         "policies = moss, dfl-sso\n"
         "graphs = er\n"
         "arms = 30\n"
         "p = 0.3\n"
         "horizons = 200, 300\n"
         "replications = 4\n"
         "checkpoints = 8\n"
         "seed = 11\n";
}

/// A slower 6-job grid so a SIGINT lands mid-sweep with high probability.
std::string slow_spec() {
  return "name = cli-slow\n"
         "scenario = sso\n"
         "policies = moss, dfl-sso, ucb1\n"
         "graphs = er\n"
         "arms = 40\n"
         "p = 0.3\n"
         "horizons = 2000, 3000\n"
         "replications = 6\n"
         "checkpoints = 10\n"
         "seed = 13\n";
}

TEST(SweepCli, DryRunListsWithoutRunning) {
  REQUIRE_BINARY();
  TempDir dir;
  const std::string spec = dir.file("tiny.spec");
  write_text(spec, tiny_spec());
  const std::string out = dir.file("out.json");
  EXPECT_EQ(run_sweep({"--spec", spec, "--out", out, "--dry-run"}), 0);
  EXPECT_FALSE(fs::exists(out)) << "--dry-run must not write output";
}

TEST(SweepCli, RejectsNegativeWorkerCount) {
  REQUIRE_BINARY();
  TempDir dir;
  const std::string spec = dir.file("tiny.spec");
  write_text(spec, tiny_spec());
  EXPECT_EQ(run_sweep({"--spec", spec, "--workers", "-2"}), 2);
}

TEST(SweepCli, DistributedFlagRejectionsAreFieldNamed) {
  REQUIRE_BINARY();
  TempDir dir;
  const std::string spec = dir.file("tiny.spec");
  write_text(spec, tiny_spec());

  struct Case {
    std::vector<std::string> extra;
    std::string expect;  ///< must appear in stderr
  };
  const std::vector<Case> cases = {
      {{"--threads", "-1"}, "--threads"},
      {{"--workers", "-2"}, "--workers"},
      {{"--listen", "no-colon"}, "--listen"},
      {{"--listen", ":9000"}, "--listen"},
      {{"--listen", "127.0.0.1:99999"}, "--listen"},
      {{"--listen", "127.0.0.1:0", "--workers", "2"}, "mutually exclusive"},
      {{"--port-file", dir.file("p.port")}, "--port-file requires --listen"},
  };
  for (const Case& c : cases) {
    std::vector<std::string> args = {"--spec", spec, "--out",
                                     dir.file("out.json")};
    args.insert(args.end(), c.extra.begin(), c.extra.end());
    const std::string err = dir.file("stderr.txt");
    EXPECT_EQ(run_sweep(args, {}, "", err), 2) << c.expect;
    EXPECT_NE(read_text(err).find(c.expect), std::string::npos)
        << "stderr for " << c.expect << " was: " << read_text(err);
  }
}

TEST(SweepCli, WorkersProduceByteIdenticalOutput) {
  REQUIRE_BINARY();
  TempDir dir;
  const std::string spec = dir.file("tiny.spec");
  write_text(spec, tiny_spec());
  const std::string reference = dir.file("ref.json");
  ASSERT_EQ(run_sweep({"--spec", spec, "--out", reference}), 0);
  const std::string expected = read_text(reference);
  ASSERT_FALSE(expected.empty());
  for (const char* workers : {"1", "2", "4"}) {
    const std::string out = dir.file(std::string("w") + workers + ".json");
    ASSERT_EQ(run_sweep({"--spec", spec, "--out", out, "--workers", workers}),
              0)
        << "--workers " << workers;
    EXPECT_EQ(read_text(out), expected) << "--workers " << workers;
  }
}

TEST(SweepCli, OneJobSpreadsItsShardsOverEveryWorker) {
  REQUIRE_BINARY();
  TempDir dir;
  const std::string spec = dir.file("one.spec");
  // One job, eight one-replication shards (16384 / 20000 slots → 1 per
  // shard on single-thread workers) of ~10 ms each, so one worker alone
  // could not drain them before the other is admitted.
  write_text(spec,
             "name = one-job\n"
             "scenario = sso\n"
             "policies = thompson\n"
             "graphs = er\n"
             "arms = 20\n"
             "p = 0.3\n"
             "horizons = 20000\n"
             "replications = 8\n"
             "checkpoints = 10\n"
             "seed = 3\n");
  const std::string reference = dir.file("ref.json");
  ASSERT_EQ(run_sweep({"--spec", spec, "--out", reference}), 0);
  const std::string out = dir.file("w2.json");
  const std::string log = dir.file("w2.log");
  ASSERT_EQ(run_sweep({"--spec", spec, "--out", out, "--workers", "2",
                       "--threads", "1"},
                      {}, log),
            0);
  EXPECT_EQ(read_text(out), read_text(reference));

  // Both workers were admitted and each ran at least one shard.
  std::istringstream lines(read_text(log));
  std::size_t summaries = 0;
  std::size_t shards = 0;
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("  worker ", 0) != 0) continue;
    ++summaries;
    const std::size_t colon = line.find("): ");
    ASSERT_NE(colon, std::string::npos) << line;
    ASSERT_NE(line.find(" shards, ", colon), std::string::npos) << line;
    const std::size_t ran = std::stoul(line.substr(colon + 3));
    EXPECT_GE(ran, 1u) << line;
    shards += ran;
  }
  EXPECT_EQ(summaries, 2u) << read_text(log);
  EXPECT_EQ(shards, 8u) << read_text(log);
}

TEST(SweepCli, SigkilledWorkerIsRequeuedWithIdenticalBytes) {
  REQUIRE_BINARY();
  TempDir dir;
  const std::string spec = dir.file("tiny.spec");
  write_text(spec, tiny_spec());
  const std::string reference = dir.file("ref.json");
  ASSERT_EQ(run_sweep({"--spec", spec, "--out", reference}), 0);
  // Crash injection (see dist/worker.hpp): the worker first assigned this
  // job SIGKILLs itself; the requeued attempt must reproduce the bytes.
  const std::string out = dir.file("killed.json");
  const std::string log = dir.file("killed.log");
  ASSERT_EQ(run_sweep({"--spec", spec, "--out", out, "--workers", "2"},
                      {{"NCB_DIST_KILL_KEY", "sso:dfl-sso@er,K=30,p=0.3,n=200"}},
                      log),
            0);
  // Guard against key-format drift silently defusing the injection: the
  // run must actually have requeued the killed assignment.
  EXPECT_NE(read_text(log).find("requeued 1 assignments"), std::string::npos)
      << "crash injection never fired — NCB_DIST_KILL_KEY no longer "
         "matches an expanded job key";
  EXPECT_EQ(read_text(out), read_text(reference));
}

TEST(SweepCli, ResumeBridgesInProcessAndDistributedRuns) {
  REQUIRE_BINARY();
  TempDir dir;
  const std::string spec = dir.file("tiny.spec");
  write_text(spec, tiny_spec());
  const std::string reference = dir.file("ref.json");
  ASSERT_EQ(run_sweep({"--spec", spec, "--out", reference}), 0);
  const std::string out = dir.file("mixed.json");
  // One job in-process, the rest distributed, then a no-op distributed
  // resume — every leg must land on the same bytes.
  ASSERT_EQ(run_sweep({"--spec", spec, "--out", out, "--max-jobs", "1"}), 0);
  ASSERT_EQ(
      run_sweep({"--spec", spec, "--out", out, "--resume", "--workers", "2"}),
      0);
  EXPECT_EQ(read_text(out), read_text(reference));
  ASSERT_EQ(
      run_sweep({"--spec", spec, "--out", out, "--resume", "--workers", "2"}),
      0);
  EXPECT_EQ(read_text(out), read_text(reference));
}

// The paper-grid acceptance check: the real fig3 spec across 4 workers —
// with one worker SIGKILLed mid-sweep — must reproduce the single-process
// bytes exactly. (~2s: two full fig3 runs.)
TEST(SweepCli, Fig3FourWorkersWithWorkerKillIsByteIdentical) {
  REQUIRE_BINARY();
  const std::string fig3 = std::string(NCB_SPECS_DIR) + "/fig3.sweep";
  if (!fs::exists(fig3)) GTEST_SKIP() << "fig3 spec not found: " << fig3;
  TempDir dir;
  const std::string reference = dir.file("fig3_ref.json");
  ASSERT_EQ(run_sweep({"--spec", fig3, "--out", reference}), 0);
  const std::string out = dir.file("fig3_w4.json");
  const std::string log = dir.file("fig3_w4.log");
  ASSERT_EQ(run_sweep({"--spec", fig3, "--out", out, "--workers", "4"},
                      {{"NCB_DIST_KILL_KEY", "sso:dfl-sso@er,K=100,p=0.3,n=10000"}},
                      log),
            0);
  EXPECT_NE(read_text(log).find("requeued 1 assignments"), std::string::npos)
      << "crash injection never fired for the fig3 key";
  EXPECT_EQ(read_text(out), read_text(reference));
}

/// Starts a --listen coordinator, waits for its --port-file, connects
/// `workers` --worker-connect processes (each with `worker_env`), and
/// waits for all of them. Returns the coordinator's exit code.
int run_tcp_sweep(const TempDir& dir, const std::string& spec,
                  const std::string& out, const std::string& stdout_path,
                  std::size_t workers, const EnvVars& worker_env) {
  const std::string port_file = out + ".port";
  const pid_t coordinator =
      spawn_sweep({"--spec", spec, "--out", out, "--listen", "127.0.0.1:0",
                   "--port-file", port_file},
                  {}, stdout_path);
  EXPECT_GT(coordinator, 0);

  std::string advertised;
  for (int i = 0; i < 2000 && advertised.empty(); ++i) {
    advertised = read_text(port_file);
    if (advertised.empty()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  EXPECT_FALSE(advertised.empty()) << "coordinator never wrote --port-file";
  while (!advertised.empty() && advertised.back() == '\n') {
    advertised.pop_back();
  }

  std::vector<pid_t> pids;
  for (std::size_t i = 0; i < workers; ++i) {
    pids.push_back(spawn_sweep({"--worker-connect", advertised}, worker_env));
  }
  const int code = wait_exit(coordinator);
  for (const pid_t pid : pids) (void)wait_exit(pid);  // 137 when SIGKILLed
  (void)dir;
  return code;
}

TEST(SweepCli, TcpWorkersProduceByteIdenticalOutput) {
  REQUIRE_BINARY();
  TempDir dir;
  const std::string spec = dir.file("tiny.spec");
  write_text(spec, tiny_spec());
  const std::string reference = dir.file("ref.json");
  ASSERT_EQ(run_sweep({"--spec", spec, "--out", reference}), 0);

  const std::string out = dir.file("tcp.json");
  ASSERT_EQ(run_tcp_sweep(dir, spec, out, dir.file("tcp.log"), 2, {}), 0);
  EXPECT_EQ(read_text(out), read_text(reference));
}

TEST(SweepCli, TcpWorkerKilledMidSweepRequeuesWithIdenticalBytes) {
  REQUIRE_BINARY();
  TempDir dir;
  const std::string spec = dir.file("tiny.spec");
  write_text(spec, tiny_spec());
  const std::string reference = dir.file("ref.json");
  ASSERT_EQ(run_sweep({"--spec", spec, "--out", reference}), 0);

  // Both TCP workers carry the kill key, but the injection fires only on
  // attempt 1 — exactly one dies, and the requeued attempt (attempt 2, on
  // whichever worker is left) must reproduce the reference bytes.
  const std::string out = dir.file("tcp_killed.json");
  const std::string log = dir.file("tcp_killed.log");
  ASSERT_EQ(run_tcp_sweep(
                dir, spec, out, log, 2,
                {{"NCB_DIST_KILL_KEY", "sso:dfl-sso@er,K=30,p=0.3,n=200"}}),
            0);
  EXPECT_NE(read_text(log).find("requeued 1 assignments"), std::string::npos)
      << "crash injection never fired over TCP";
  EXPECT_EQ(read_text(out), read_text(reference));
}

TEST(SweepCli, SigintFlushesCompletedRecordsAndResumeMatches) {
  REQUIRE_BINARY();
  TempDir dir;
  const std::string spec = dir.file("slow.spec");
  write_text(spec, slow_spec());
  const std::string reference = dir.file("ref.json");
  ASSERT_EQ(run_sweep({"--spec", spec, "--out", reference}), 0);
  const std::string expected = read_text(reference);

  const std::string out = dir.file("interrupted.json");
  const pid_t pid = spawn_sweep({"--spec", spec, "--out", out}, {});
  ASSERT_GT(pid, 0);
  // Interrupt as soon as the first record line lands in the checkpoint
  // file — mid-sweep, after the handler is installed.
  for (int i = 0; i < 2000; ++i) {
    if (read_text(out).find("{\"key\":\"") != std::string::npos) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ::kill(pid, SIGINT);
  const int code = wait_exit(pid);
  // 130 when the interrupt landed mid-sweep; 0 if the run won the race.
  EXPECT_TRUE(code == 130 || code == 0) << "exit code " << code;

  // The interrupted file must be valid for --resume (truncation only ever
  // at a record boundary), and completing it must reproduce the reference
  // bytes exactly.
  ASSERT_EQ(run_sweep({"--spec", spec, "--out", out, "--resume"}), 0);
  EXPECT_EQ(read_text(out), expected);
}

}  // namespace
