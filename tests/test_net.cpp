// Multi-machine transport layer (src/net/): host:port parsing with
// flag-named errors, TCP connect/listen plumbing over real localhost
// sockets (frame round-trips, TCP_NODELAY, named EADDRINUSE / refused
// errors), the frame decoder fed byte-at-a-time and in fuzzed partial
// chunks through an actual TCP stream, the versioned worker handshake
// rejected over TCP, and the WorkerPool task farm driven through a
// TcpServerTransport: handshake-gated admission and its budget, front
// requeue with the next attempt, the three-loss abort, stop-and-drain, and
// idle workers kept alive while a task is in flight.
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <functional>
#include <future>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "dist/protocol.hpp"
#include "dist/worker.hpp"
#include "exp/emitters.hpp"
#include "net/tcp.hpp"
#include "net/transport.hpp"
#include "net/worker_pool.hpp"
#include "obs/metrics.hpp"

namespace ncb::net {
namespace {

// ------------------------------------------------------ host:port parse ---

TEST(HostPort, ParsesHostColonPort) {
  const HostPort address = parse_host_port("127.0.0.1:9000", "--listen");
  EXPECT_EQ(address.host, "127.0.0.1");
  EXPECT_EQ(address.port, 9000);
  EXPECT_EQ(format_host_port(address), "127.0.0.1:9000");
}

TEST(HostPort, ParsesPortZeroAndMaxPort) {
  EXPECT_EQ(parse_host_port("0.0.0.0:0", "--listen").port, 0);
  EXPECT_EQ(parse_host_port("localhost:65535", "--listen").port, 65535);
}

TEST(HostPort, RejectionsAreFieldNamed) {
  // Every rejection must name the flag so cluster misconfiguration reads
  // as "--listen: ..." in the CLI error, never a bare parse failure.
  const std::vector<std::string> bad = {
      "no-colon", ":9000", "host:", "host:banana", "host:12x", "host:70000",
      "host:-1", "",
  };
  for (const std::string& text : bad) {
    try {
      (void)parse_host_port(text, "--worker-connect");
      FAIL() << "accepted '" << text << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("--worker-connect"),
                std::string::npos)
          << "error for '" << text << "' does not name the flag: "
          << e.what();
    }
  }
}

// ------------------------------------------------------------- TCP I/O ---

TEST(Tcp, LoopbackFrameRoundTripWithNodelay) {
  TcpListener listener(HostPort{"127.0.0.1", 0});
  ASSERT_GT(listener.bound().port, 0);

  const int client = tcp_connect(listener.bound(), 2000);
  ASSERT_GE(client, 0);

  // The connected socket advertises TCP_NODELAY (both ends).
  int nodelay = 0;
  socklen_t len = sizeof(nodelay);
  ASSERT_EQ(::getsockopt(client, IPPROTO_TCP, TCP_NODELAY, &nodelay, &len),
            0);
  EXPECT_NE(nodelay, 0);

  std::vector<std::pair<int, std::string>> accepted;
  for (int i = 0; i < 200 && accepted.empty(); ++i) {
    accepted = listener.accept_pending();
    if (accepted.empty()) ::usleep(5000);
  }
  ASSERT_EQ(accepted.size(), 1u);
  const int server = accepted[0].first;
  EXPECT_NE(accepted[0].second.find("127.0.0.1:"), std::string::npos);
  nodelay = 0;
  len = sizeof(nodelay);
  ASSERT_EQ(::getsockopt(server, IPPROTO_TCP, TCP_NODELAY, &nodelay, &len),
            0);
  EXPECT_NE(nodelay, 0);

  const std::string payload(100000, 'x');
  dist::write_frame(client, dist::MsgType::kJobResult, payload);
  const auto frame = dist::read_frame(server);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, dist::MsgType::kJobResult);
  EXPECT_EQ(frame->payload, payload);

  // And back the other way.
  dist::write_frame(server, dist::MsgType::kShutdown, "");
  const auto reply = dist::read_frame(client);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, dist::MsgType::kShutdown);

  ::close(client);
  ::close(server);
}

TEST(Tcp, ListenerRejectsAddressInUse) {
  TcpListener first(HostPort{"127.0.0.1", 0});
  try {
    TcpListener second(first.bound());
    FAIL() << "second bind of " << format_host_port(first.bound())
           << " succeeded";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("address already in use"), std::string::npos) << what;
    EXPECT_NE(what.find(format_host_port(first.bound())), std::string::npos)
        << what;
  }
}

TEST(Tcp, ConnectRefusedNamesEndpoint) {
  // Bind a port, then close it: nothing listens there, so connect is
  // refused (and the named port is provably ours to have been free).
  HostPort vacated;
  {
    TcpListener listener(HostPort{"127.0.0.1", 0});
    vacated = listener.bound();
  }
  try {
    (void)tcp_connect(vacated, 2000);
    FAIL() << "connect to a closed port succeeded";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("refused"), std::string::npos) << what;
    EXPECT_NE(what.find(format_host_port(vacated)), std::string::npos)
        << what;
  }
}

// ---------------------------------------- frame decoder over real TCP ---

/// Connects a client/server socket pair through a real localhost listener.
struct TcpPair {
  TcpListener listener{HostPort{"127.0.0.1", 0}};
  int client = -1;
  int server = -1;

  TcpPair() {
    client = tcp_connect(listener.bound(), 2000);
    for (int i = 0; i < 200 && server < 0; ++i) {
      auto accepted = listener.accept_pending();
      if (!accepted.empty()) {
        server = accepted[0].first;
        break;
      }
      ::usleep(5000);
    }
  }
  ~TcpPair() {
    if (client >= 0) ::close(client);
    if (server >= 0) ::close(server);
  }
};

std::string frame_bytes(dist::MsgType type, const std::string& payload) {
  std::string out;
  dist::append_frame(out, type, payload);
  return out;
}

TEST(Tcp, DecoderHandlesByteAtATimeDelivery) {
  TcpPair pair;
  ASSERT_GE(pair.server, 0);
  const std::string wire =
      frame_bytes(dist::MsgType::kHello, "a") +
      frame_bytes(dist::MsgType::kJobResult, std::string(300, 'b')) +
      frame_bytes(dist::MsgType::kShutdown, "");

  dist::FrameDecoder decoder;
  std::vector<dist::Frame> frames;
  char byte;
  for (const char c : wire) {
    // One byte through the real socket per turn — the worst segmentation
    // TCP can legally deliver.
    ASSERT_EQ(::send(pair.client, &c, 1, 0), 1);
    ASSERT_EQ(::recv(pair.server, &byte, 1, MSG_WAITALL), 1);
    decoder.feed(&byte, 1);
    while (auto frame = decoder.next()) frames.push_back(std::move(*frame));
  }
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[0].type, dist::MsgType::kHello);
  EXPECT_EQ(frames[1].payload, std::string(300, 'b'));
  EXPECT_EQ(frames[2].type, dist::MsgType::kShutdown);
}

TEST(Tcp, DecoderSurvivesFuzzedPartialChunksOverSocket) {
  // Seeded fuzz: random frame sizes cut into random chunk lengths, shipped
  // through a real TCP stream and re-assembled. Every frame must come out
  // intact and in order, regardless of segmentation.
  std::mt19937 rng(20170605);
  TcpPair pair;
  ASSERT_GE(pair.server, 0);

  std::vector<std::string> payloads;
  std::string wire;
  std::uniform_int_distribution<int> size_dist(0, 4000);
  for (int i = 0; i < 40; ++i) {
    std::string payload(static_cast<std::size_t>(size_dist(rng)), '\0');
    for (char& c : payload) c = static_cast<char>(rng() & 0xff);
    payloads.push_back(payload);
    wire += frame_bytes(dist::MsgType::kJobResult, payload);
  }

  std::thread sender([&] {
    std::mt19937 chunk_rng(7);
    std::uniform_int_distribution<std::size_t> chunk_dist(1, 977);
    std::size_t at = 0;
    while (at < wire.size()) {
      const std::size_t n = std::min(chunk_dist(chunk_rng), wire.size() - at);
      ASSERT_EQ(::send(pair.client, wire.data() + at, n, 0),
                static_cast<ssize_t>(n));
      at += n;
    }
    ::shutdown(pair.client, SHUT_WR);
  });

  dist::FrameDecoder decoder;
  std::vector<dist::Frame> frames;
  char buffer[1024];
  for (;;) {
    const ssize_t n = ::recv(pair.server, buffer, sizeof(buffer), 0);
    ASSERT_GE(n, 0);
    if (n == 0) break;
    decoder.feed(buffer, static_cast<std::size_t>(n));
    while (auto frame = decoder.next()) frames.push_back(std::move(*frame));
  }
  sender.join();

  ASSERT_EQ(frames.size(), payloads.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(frames[i].payload, payloads[i]) << "frame " << i;
  }
}

// -------------------------------------------- worker handshake over TCP ---

TEST(Tcp, WorkerHandshakeVersionMismatchOverTcp) {
  TcpPair pair;
  ASSERT_GE(pair.server, 0);

  int exit_code = -1;
  std::thread worker([&] {
    dist::WorkerOptions options;
    options.fd = pair.client;
    options.threads = 1;
    exit_code = dist::run_worker(options);
  });

  // Coordinator side: the Hello and WorkerInfo arrive over real TCP, then
  // the ack claims a future protocol version — the worker must refuse.
  const auto hello = dist::read_frame(pair.server);
  ASSERT_TRUE(hello.has_value());
  ASSERT_EQ(hello->type, dist::MsgType::kHello);
  const auto info = dist::read_frame(pair.server);
  ASSERT_TRUE(info.has_value());
  ASSERT_EQ(info->type, dist::MsgType::kWorkerInfo);
  const dist::WorkerInfoMsg identity =
      dist::decode_worker_info(info->payload);
  EXPECT_FALSE(identity.host.empty());
  dist::WireWriter bad_ack;
  bad_ack.put_u32(dist::kProtocolVersion + 1);
  dist::write_frame(pair.server, dist::MsgType::kHelloAck, bad_ack.take());

  worker.join();
  EXPECT_EQ(exit_code, 2);
}

// ------------------------------------------------- the task farm over TCP ---

/// Runs the real sweep worker loop against a TCP endpoint in a thread.
struct TcpWorkerThread {
  std::thread thread;
  int exit_code = -1;

  explicit TcpWorkerThread(const HostPort& address) {
    thread = std::thread([this, address] {
      const int fd = tcp_connect_retry(address, 2000, 5000);
      dist::WorkerOptions options;
      options.fd = fd;
      options.threads = 1;
      exit_code = dist::run_worker(options);
      ::close(fd);
    });
  }
  ~TcpWorkerThread() {
    if (thread.joinable()) thread.join();
  }
};

WorkerPool::Options tcp_pool_options(TcpServerTransport& transport,
                                     obs::MetricsRegistry& registry,
                                     std::uint32_t schema) {
  WorkerPool::Options options;
  options.transport = &transport;
  options.expected_schema = schema;
  options.metrics = &registry;
  return options;
}

/// One real (tiny) sweep job, assigned as one JobAssign shard and accepted
/// from the real worker's JobResult.
WorkerPool::Farm one_sweep_job_farm(exp::SweepJob& job) {
  job.key = "sso:ucb1@er,K=6,p=0.3,n=20";
  job.policy = "ucb1";
  job.scenario = Scenario::kSso;
  job.config.name = job.key;
  job.config.graph_family = GraphFamily::kErdosRenyi;
  job.config.num_arms = 6;
  job.config.edge_probability = 0.3;
  job.config.horizon = 20;
  job.config.replications = 1;
  WorkerPool::Farm farm;
  farm.labels = {job.key};
  farm.queue = {0};
  farm.metric_stem = "test.jobs";
  farm.encode = [&job](std::size_t, std::uint32_t attempt) {
    dist::JobAssignMsg assign;
    assign.attempt = attempt;
    assign.checkpoints = 4;
    assign.rep_end = 1;  // the job's one replication
    assign.job = job;
    return dist::Frame{dist::MsgType::kJobAssign,
                       dist::encode_job_assign(assign)};
  };
  farm.accept = [&job](const dist::Frame& frame, std::size_t,
                       std::uint32_t) -> std::size_t {
    return dist::decode_job_result(frame.payload).key == job.key ? 0 : 1;
  };
  return farm;
}

TEST(WorkerPool, AdmitsTcpWorkerAfterFullHandshake) {
  TcpServerTransport transport(HostPort{"127.0.0.1", 0});
  obs::MetricsRegistry registry;
  WorkerPool pool(tcp_pool_options(
      transport, registry,
      static_cast<std::uint32_t>(exp::kSweepSchemaVersion)));
  exp::SweepJob job;
  WorkerPool::Farm farm = one_sweep_job_farm(job);

  TcpWorkerThread worker(transport.bound());
  const WorkerPool::Outcome outcome = pool.run(std::move(farm));
  worker.thread.join();
  EXPECT_EQ(worker.exit_code, 0);  // drained by a Shutdown, not lost
  EXPECT_FALSE(outcome.interrupted);
  EXPECT_EQ(outcome.pending, 0u);

  ASSERT_EQ(outcome.workers.size(), 1u);
  const WorkerSummary& summary = outcome.workers[0];
  EXPECT_FALSE(summary.lost);
  EXPECT_EQ(summary.tasks_done, 1u);
  EXPECT_FALSE(summary.host.empty());
  EXPECT_GT(summary.remote_pid, 0u);
  EXPECT_GT(summary.bytes_in, 0u);
  EXPECT_GT(summary.bytes_out, 0u);
}

TEST(WorkerPool, WrongSchemaPeerIsRejectedNotAdmitted) {
  TcpServerTransport transport(HostPort{"127.0.0.1", 0});
  obs::MetricsRegistry registry;
  // Nothing legitimate presents this schema.
  WorkerPool pool(tcp_pool_options(transport, registry, 12345));
  exp::SweepJob job;
  WorkerPool::Farm farm = one_sweep_job_farm(job);
  // The real worker presents the sweep schema — a version-skewed build.
  // The pool drops it without a reply; the worker sees EOF while awaiting
  // its ack, treats it as a vanished coordinator (0), and the test stops
  // the farm once it has.
  std::atomic<bool> worker_done{false};
  farm.should_stop = [&] { return worker_done.load(); };
  int exit_code = -1;
  std::thread worker([&] {
    const int fd = tcp_connect_retry(transport.bound(), 2000, 5000);
    dist::WorkerOptions options;
    options.fd = fd;
    options.threads = 1;
    exit_code = dist::run_worker(options);
    ::close(fd);
    worker_done = true;
  });

  const WorkerPool::Outcome outcome = pool.run(std::move(farm));
  worker.join();
  EXPECT_EQ(exit_code, 0);
  EXPECT_TRUE(outcome.interrupted);
  EXPECT_EQ(outcome.pending, 1u);
  EXPECT_TRUE(outcome.workers.empty());
  EXPECT_EQ(registry.counter("dist.workers.admitted").value(), 0u);
}

TEST(WorkerPool, JunkConnectionsExhaustAdmissionBudget) {
  TcpServerTransport transport(HostPort{"127.0.0.1", 0});
  obs::MetricsRegistry registry;
  WorkerPool pool(tcp_pool_options(transport, registry, 77));
  exp::SweepJob job;

  // Peers that connect and hang up before the handshake: each one charges
  // the accept transport's budget (32) until the run gives up.
  std::atomic<bool> done{false};
  std::thread junk([&] {
    for (int i = 0; i < 200 && !done; ++i) {
      try {
        ::close(tcp_connect(transport.bound(), 2000));
      } catch (const std::runtime_error&) {
        break;  // listener backlog full after the pool gave up
      }
      ::usleep(1000);
    }
  });
  try {
    (void)pool.run(one_sweep_job_farm(job));
    ADD_FAILURE() << "the run outlived an exhausted admission budget";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("admission"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("budget 32"), std::string::npos)
        << e.what();
  }
  done = true;
  junk.join();
}

// Hand-rolled peers for the requeue cases: each completes the handshake
// (schema 77), then reads "<task> <attempt>" assignments and answers with
// the task index — or vanishes mid-task, the in-process SIGKILL stand-in.

/// `count` tasks labelled t0, t1, ...; accepted indices land in `accepted`.
WorkerPool::Farm echo_farm(std::size_t count,
                           std::vector<std::size_t>& accepted,
                           std::function<void(std::size_t)> on_accept = {}) {
  WorkerPool::Farm farm;
  for (std::size_t i = 0; i < count; ++i) {
    farm.labels.push_back("t" + std::to_string(i));
    farm.queue.push_back(i);
  }
  farm.metric_stem = "test.tasks";
  farm.encode = [](std::size_t task, std::uint32_t attempt) {
    return dist::Frame{dist::MsgType::kJobAssign,
                       std::to_string(task) + " " + std::to_string(attempt)};
  };
  farm.accept = [&accepted, on_accept](const dist::Frame& frame, std::size_t,
                                       std::uint32_t) {
    const std::size_t task = std::stoul(frame.payload);
    accepted.push_back(task);
    if (on_accept) on_accept(task);
    return task;
  };
  return farm;
}

struct EchoPeer {
  int fd = -1;

  explicit EchoPeer(const HostPort& address) {
    fd = tcp_connect_retry(address, 2000, 5000);
    dist::HelloMsg hello;
    hello.schema = 77;
    dist::write_frame(fd, dist::MsgType::kHello, dist::encode_hello(hello));
    dist::WorkerInfoMsg info;
    info.host = "testhost";
    info.pid = 1234;
    info.threads = 2;
    dist::write_frame(fd, dist::MsgType::kWorkerInfo,
                      dist::encode_worker_info(info));
    const auto ack = dist::read_frame(fd);
    EXPECT_TRUE(ack.has_value() && ack->type == dist::MsgType::kHelloAck);
  }
  ~EchoPeer() { vanish(); }

  /// The next assignment ("<task> <attempt>"), or "" on Shutdown/EOF.
  std::string next() {
    try {
      const auto frame = dist::read_frame(fd);
      if (frame && frame->type == dist::MsgType::kJobAssign) {
        return frame->payload;
      }
    } catch (const std::exception&) {
    }
    return "";
  }
  void reply(const std::string& assignment) {
    dist::write_frame(fd, dist::MsgType::kJobResult,
                      assignment.substr(0, assignment.find(' ')));
  }
  void vanish() {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
};

TEST(WorkerPool, LostWorkersTaskIsRequeuedAtFrontWithNextAttempt) {
  TcpServerTransport transport(HostPort{"127.0.0.1", 0});
  obs::MetricsRegistry registry;
  WorkerPool pool(tcp_pool_options(transport, registry, 77));
  std::vector<std::size_t> accepted;

  std::vector<std::string> seen;
  std::thread peers([&] {
    {
      EchoPeer first(transport.bound());
      EXPECT_EQ(first.next(), "0 1");
    }  // gone with task 0 in flight
    EchoPeer second(transport.bound());
    for (std::string task = second.next(); !task.empty();
         task = second.next()) {
      seen.push_back(task);
      second.reply(task);
    }
  });
  const WorkerPool::Outcome outcome = pool.run(echo_farm(3, accepted));
  peers.join();

  // The lost task went back to the FRONT, one attempt later.
  EXPECT_EQ(seen, (std::vector<std::string>{"0 2", "1 1", "2 1"}));
  EXPECT_EQ(accepted, (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(outcome.requeues, 1u);
  ASSERT_EQ(outcome.workers.size(), 2u);
  EXPECT_TRUE(outcome.workers[0].lost);
  EXPECT_TRUE(outcome.workers[0].lost_in_flight);
  EXPECT_EQ(outcome.workers[0].host, "testhost");
  EXPECT_EQ(outcome.workers[0].remote_pid, 1234u);
  EXPECT_FALSE(outcome.workers[1].lost);
  EXPECT_EQ(outcome.workers[1].tasks_done, 3u);
}

TEST(WorkerPool, ThirdLossOfOneTaskAbortsNamingIt) {
  TcpServerTransport transport(HostPort{"127.0.0.1", 0});
  obs::MetricsRegistry registry;
  WorkerPool pool(tcp_pool_options(transport, registry, 77));
  std::vector<std::size_t> accepted;

  std::thread peers([&] {
    for (int attempt = 1; attempt <= 3; ++attempt) {
      EchoPeer peer(transport.bound());
      EXPECT_EQ(peer.next(), "0 " + std::to_string(attempt));
    }
  });
  try {
    (void)pool.run(echo_farm(2, accepted));
    ADD_FAILURE() << "a task that lost three workers did not abort the run";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'t0'"), std::string::npos) << what;
    EXPECT_NE(what.find("3 times"), std::string::npos) << what;
  }
  peers.join();
  EXPECT_TRUE(accepted.empty());
}

TEST(WorkerPool, StopDrainsInFlightTaskAndReportsRestPending) {
  TcpServerTransport transport(HostPort{"127.0.0.1", 0});
  obs::MetricsRegistry registry;
  WorkerPool pool(tcp_pool_options(transport, registry, 77));
  std::vector<std::size_t> accepted;
  WorkerPool::Farm farm = echo_farm(3, accepted);
  std::atomic<bool> stop{false};
  farm.should_stop = [&] { return stop.load(); };

  std::string after_stop = "unset";
  std::thread peer_thread([&] {
    EchoPeer peer(transport.bound());
    const std::string task = peer.next();
    EXPECT_EQ(task, "0 1");
    stop = true;  // ^C while task 0 is in flight
    peer.reply(task);
    after_stop = peer.next();
  });
  const WorkerPool::Outcome outcome = pool.run(std::move(farm));
  peer_thread.join();

  EXPECT_EQ(after_stop, "");  // Shutdown, not another assignment
  EXPECT_EQ(accepted, std::vector<std::size_t>{0});
  EXPECT_TRUE(outcome.interrupted);
  EXPECT_EQ(outcome.pending, 2u);
  EXPECT_EQ(outcome.requeues, 0u);
  ASSERT_EQ(outcome.workers.size(), 1u);
  EXPECT_FALSE(outcome.workers[0].lost);
}

TEST(WorkerPool, IdleWorkerOutlivesTaskInFlightAndTakesItsRequeue) {
  TcpServerTransport transport(HostPort{"127.0.0.1", 0});
  obs::MetricsRegistry registry;
  WorkerPool pool(tcp_pool_options(transport, registry, 77));
  std::vector<std::size_t> accepted;
  std::promise<void> holder_assigned;
  std::promise<void> task1_accepted;
  // The pool accepts task 1 while task 0 is still in flight elsewhere: its
  // worker is now idle with nothing queued, and must not be shut down.
  WorkerPool::Farm farm = echo_farm(2, accepted, [&](std::size_t task) {
    if (task == 1) task1_accepted.set_value();
  });

  std::thread holder([&] {
    EchoPeer peer(transport.bound());
    EXPECT_EQ(peer.next(), "0 1");
    holder_assigned.set_value();
    task1_accepted.get_future().wait();
  });  // then vanishes with task 0
  std::vector<std::string> seen;
  std::thread idler([&] {
    holder_assigned.get_future().wait();
    EchoPeer peer(transport.bound());
    for (std::string task = peer.next(); !task.empty(); task = peer.next()) {
      seen.push_back(task);
      peer.reply(task);
    }
  });
  const WorkerPool::Outcome outcome = pool.run(std::move(farm));
  holder.join();
  idler.join();

  EXPECT_EQ(seen, (std::vector<std::string>{"1 1", "0 2"}));
  EXPECT_EQ(accepted, (std::vector<std::size_t>{1, 0}));
  EXPECT_EQ(outcome.requeues, 1u);
  EXPECT_EQ(outcome.pending, 0u);
}

}  // namespace
}  // namespace ncb::net
