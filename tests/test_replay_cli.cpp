// Process-level tests of the ncb_replay CLI's distributed panel, driving
// the real binary (path injected as NCB_REPLAY_BIN):
//   - field-named validation of the distributed flags,
//   - --workers {2,3} panel JSON is byte-identical to the single-process
//     run, logging-identity line included,
//   - a worker SIGKILLed mid-candidate (NCB_DIST_KILL_KEY) is requeued
//     and the bytes still match,
//   - the same panel over real TCP workers (--listen / --worker-connect)
//     is byte-identical too,
//   - SIGINT mid-panel drains the in-flight candidates, writes no panel
//     and exits 130.
// The event log under replay is generated in-process with the serve
// engine, so the suite needs no prior CLI run. All tests GTEST_SKIP when
// the binary is not built (ASan config builds tests without examples).
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
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "serve/decision_engine.hpp"
#include "serve/event_log.hpp"
#include "sim/experiment.hpp"
#include "util/rng.hpp"

#ifndef NCB_REPLAY_BIN
#define NCB_REPLAY_BIN ""
#endif

namespace ncb {
namespace {

namespace fs = std::filesystem;

constexpr const char* kReplayBin = NCB_REPLAY_BIN;

bool binary_available() { return kReplayBin[0] != '\0'; }

#define REQUIRE_BINARY()                                            \
  do {                                                              \
    if (!binary_available())                                        \
      GTEST_SKIP() << "ncb_replay not built in this configuration"; \
  } while (0)

struct TempDir {
  fs::path path;
  TempDir() {
    std::string tmpl =
        (fs::temp_directory_path() / "ncb_rcli_XXXXXX").string();
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

std::string read_text(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

using EnvVars = std::vector<std::pair<std::string, std::string>>;

/// fork/exec of the real binary; stdout/stderr go to the given paths (or
/// /dev/null when empty).
pid_t spawn_replay(const std::vector<std::string>& args, const EnvVars& env,
                   const std::string& stdout_path = "",
                   const std::string& stderr_path = "") {
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  for (const auto& [key, value] : env) {
    ::setenv(key.c_str(), value.c_str(), 1);
  }
  const auto redirect = [](const std::string& path, int target) {
    const int fd = ::open(path.empty() ? "/dev/null" : path.c_str(),
                          O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      ::dup2(fd, target);
      ::close(fd);
    }
  };
  redirect(stdout_path, STDOUT_FILENO);
  redirect(stderr_path, STDERR_FILENO);
  std::vector<std::string> full;
  full.push_back(kReplayBin);
  full.insert(full.end(), args.begin(), args.end());
  std::vector<char*> argv;
  argv.reserve(full.size() + 1);
  for (std::string& arg : full) argv.push_back(arg.data());
  argv.push_back(nullptr);
  ::execv(kReplayBin, argv.data());
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

int run_replay(const std::vector<std::string>& args, const EnvVars& env = {},
               const std::string& stdout_path = "",
               const std::string& stderr_path = "") {
  return wait_exit(spawn_replay(args, env, stdout_path, stderr_path));
}

// The serving configuration every test replays against (the graph flags of
// the CLI runs below must match it).
constexpr std::size_t kArms = 30;
constexpr double kEdgeProb = 0.3;
constexpr std::uint64_t kSeed = 99;
constexpr double kEpsilon = 0.2;
constexpr const char* kLoggingSpec = "eps-greedy:eps=0";

/// Deterministic per-arm Bernoulli means spread over [0.15, 0.85].
double arm_mean(ArmId arm) {
  const std::uint64_t h =
      (static_cast<std::uint64_t>(arm) + 1) * 2654435761ULL;
  return 0.15 + 0.7 * static_cast<double>(h % 97) / 96.0;
}

/// Writes an event log by driving the real serve engine — the same
/// decide/report loop ncb_serve runs, minus the socket.
void write_event_log(const std::string& log_path, std::size_t horizon) {
  ExperimentConfig config;
  config.graph_family = GraphFamily::kErdosRenyi;
  config.num_arms = kArms;
  config.edge_probability = kEdgeProb;
  config.seed = kSeed;
  const Graph graph = build_graph(config);

  serve::EventLog log({log_path, 64 * 1024, 50});
  serve::EngineOptions options;
  options.policy_spec = kLoggingSpec;
  options.epsilon = kEpsilon;
  options.seed = kSeed;
  serve::DecisionEngine engine(graph, options, &log);
  for (std::size_t i = 0; i < horizon; ++i) {
    const std::string key = "user" + std::to_string(i % 16);
    const serve::Decision decision = engine.decide(key);
    Xoshiro256 reward_rng(derive_seed_at(4242, decision.decision_id));
    const double reward =
        reward_rng.bernoulli(arm_mean(decision.action)) ? 1.0 : 0.0;
    engine.report(decision.decision_id, reward);
  }
  log.close();
}

/// The flags every panel run shares (matched to write_event_log).
std::vector<std::string> panel_args(const std::string& log,
                                    const std::string& out) {
  return {"--log",          log,
          "--logging-policy", kLoggingSpec,
          "--policies",     "ucb1;dfl-sso;moss",
          "--arms",         std::to_string(kArms),
          "--graph",        "er",
          "--edge-prob",    "0.3",
          "--seed",         std::to_string(kSeed),
          "--epsilon",      "0.2",
          "--out",          out};
}

TEST(ReplayCli, DistributedFlagRejectionsAreFieldNamed) {
  REQUIRE_BINARY();
  TempDir dir;
  const std::string log = dir.file("events.ncbl");
  write_event_log(log, 50);

  struct Case {
    std::vector<std::string> extra;
    std::string expect;  ///< must appear in stderr
  };
  const std::vector<Case> cases = {
      {{"--workers", "-1"}, "--workers"},
      {{"--listen", "no-colon"}, "--listen"},
      {{"--listen", "127.0.0.1:banana"}, "--listen"},
      {{"--listen", "127.0.0.1:0", "--workers", "2"}, "mutually exclusive"},
      {{"--port-file", dir.file("p.port")}, "--port-file requires --listen"},
  };
  for (const Case& c : cases) {
    std::vector<std::string> args = panel_args(log, dir.file("out.json"));
    args.insert(args.end(), c.extra.begin(), c.extra.end());
    const std::string err = dir.file("stderr.txt");
    EXPECT_EQ(run_replay(args, {}, "", err), 2) << c.expect;
    EXPECT_NE(read_text(err).find(c.expect), std::string::npos)
        << "stderr for " << c.expect << " was: " << read_text(err);
  }
}

TEST(ReplayCli, WorkersProduceByteIdenticalPanel) {
  REQUIRE_BINARY();
  TempDir dir;
  const std::string log = dir.file("events.ncbl");
  write_event_log(log, 800);

  const std::string reference = dir.file("ref.json");
  const std::string ref_stdout = dir.file("ref.out");
  ASSERT_EQ(run_replay(panel_args(log, reference), {}, ref_stdout), 0);
  const std::string expected = read_text(reference);
  ASSERT_FALSE(expected.empty());
  ASSERT_NE(read_text(ref_stdout).find("logging identity OK"),
            std::string::npos);

  for (const char* workers : {"2", "3"}) {
    const std::string out = dir.file(std::string("w") + workers + ".json");
    const std::string log_out = dir.file(std::string("w") + workers + ".out");
    std::vector<std::string> args = panel_args(log, out);
    args.push_back("--workers");
    args.push_back(workers);
    ASSERT_EQ(run_replay(args, {}, log_out), 0) << "--workers " << workers;
    EXPECT_EQ(read_text(out), expected) << "--workers " << workers;
    EXPECT_NE(read_text(log_out).find("logging identity OK"),
              std::string::npos)
        << "--workers " << workers;
  }
}

TEST(ReplayCli, KilledWorkerIsRequeuedWithIdenticalBytes) {
  REQUIRE_BINARY();
  TempDir dir;
  const std::string log = dir.file("events.ncbl");
  write_event_log(log, 400);

  const std::string reference = dir.file("ref.json");
  ASSERT_EQ(run_replay(panel_args(log, reference), {}), 0);

  // Crash injection (see dist/worker.hpp): the worker first assigned
  // the dfl-sso candidate SIGKILLs itself; the requeued attempt must
  // reproduce the bytes.
  const std::string out = dir.file("killed.json");
  const std::string log_out = dir.file("killed.out");
  std::vector<std::string> args = panel_args(log, out);
  args.push_back("--workers");
  args.push_back("2");
  ASSERT_EQ(
      run_replay(args, {{"NCB_DIST_KILL_KEY", "dfl-sso"}}, log_out), 0);
  // Guard against spec drift silently defusing the injection.
  EXPECT_NE(read_text(log_out).find("requeued 1 candidates"),
            std::string::npos)
      << "crash injection never fired — NCB_DIST_KILL_KEY no longer "
         "matches a panel candidate";
  EXPECT_EQ(read_text(out), read_text(reference));
}

TEST(ReplayCli, TcpWorkersProduceByteIdenticalPanel) {
  REQUIRE_BINARY();
  TempDir dir;
  const std::string log = dir.file("events.ncbl");
  write_event_log(log, 400);

  const std::string reference = dir.file("ref.json");
  ASSERT_EQ(run_replay(panel_args(log, reference), {}), 0);

  const std::string out = dir.file("tcp.json");
  const std::string port_file = dir.file("tcp.port");
  std::vector<std::string> args = panel_args(log, out);
  for (const char* extra :
       {"--listen", "127.0.0.1:0", "--port-file", port_file.c_str()}) {
    args.push_back(extra);
  }
  const pid_t coordinator =
      spawn_replay(args, {}, dir.file("coordinator.out"));
  ASSERT_GT(coordinator, 0);

  // The port file appears once the socket is bound; workers then dial in.
  std::string advertised;
  for (int i = 0; i < 2000 && advertised.empty(); ++i) {
    advertised = read_text(port_file);
    if (advertised.empty()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  ASSERT_FALSE(advertised.empty()) << "coordinator never wrote --port-file";
  while (!advertised.empty() && advertised.back() == '\n') {
    advertised.pop_back();
  }

  const pid_t w1 = spawn_replay({"--worker-connect", advertised}, {});
  const pid_t w2 = spawn_replay({"--worker-connect", advertised}, {});
  EXPECT_EQ(wait_exit(coordinator), 0);
  EXPECT_EQ(wait_exit(w1), 0);
  EXPECT_EQ(wait_exit(w2), 0);
  EXPECT_EQ(read_text(out), read_text(reference));
  EXPECT_NE(read_text(dir.file("coordinator.out")).find("logging identity OK"),
            std::string::npos);
}

TEST(ReplayCli, SigintDrainsInFlightCandidatesAndWritesNoPanel) {
  REQUIRE_BINARY();
  TempDir dir;
  const std::string log = dir.file("events.ncbl");
  write_event_log(log, 20000);

  // Eight KL-UCB candidates over 20k records: ~0.8 s each on a 4-core
  // Xeon, ~3 s for two workers, so the signal lands mid-panel.
  const std::string out = dir.file("interrupted.json");
  const std::string log_out = dir.file("interrupted.out");
  std::vector<std::string> args = panel_args(log, out);
  args[5] =
      "kl-ucb;kl-ucb:c=0.5;kl-ucb:c=1;kl-ucb:c=1.5;kl-ucb:c=2;kl-ucb:c=2.5;"
      "kl-ucb:c=3;kl-ucb:c=3.5";
  args.push_back("--workers");
  args.push_back("2");
  const pid_t pid = spawn_replay(args, {}, log_out);
  ASSERT_GT(pid, 0);
  // The fleet line is flushed after the stop handlers are installed.
  for (int i = 0; i < 4000; ++i) {
    if (read_text(log_out).find("candidates across") != std::string::npos) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_NE(read_text(log_out).find("candidates across"), std::string::npos);
  // Give the fleet time to take its first candidates, so they are in
  // flight (and must drain) when the stop lands.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  ::kill(pid, SIGINT);
  EXPECT_EQ(wait_exit(pid), 130);
  EXPECT_NE(read_text(log_out).find("interrupted: in-flight candidates "
                                    "drained, no panel written"),
            std::string::npos)
      << read_text(log_out);
  EXPECT_FALSE(fs::exists(out)) << "a partial panel was written";
}

}  // namespace
}  // namespace ncb
