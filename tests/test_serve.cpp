// The online decision service: serve frame codecs + frame_type_name,
// Hello validation with the serve schema, DecisionEngine propensity math
// and determinism, and the end-to-end reactor contract — the same request
// stream served over 1 vs 4 connections yields identical (action,
// propensity) per decision_id and a byte-identical event log (pinned by a
// golden FNV-1a hash).
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "dist/protocol.hpp"
#include "graph/graph.hpp"
#include "obs/metrics.hpp"
#include "serve/decision_engine.hpp"
#include "serve/event_log.hpp"
#include "serve/server.hpp"

namespace fs = std::filesystem;

namespace ncb::serve {
namespace {

using dist::MsgType;

struct TempDir {
  fs::path path;
  TempDir() {
    std::string tmpl =
        (fs::temp_directory_path() / "ncb_serve_XXXXXX").string();
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

Graph ring_graph(std::size_t k) {
  std::vector<Edge> edges;
  for (std::size_t i = 0; i < k; ++i) {
    edges.emplace_back(static_cast<ArmId>(i), static_cast<ArmId>((i + 1) % k));
  }
  return Graph(k, edges);
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// ------------------------------------------------------------- codecs ---

TEST(ServeCodec, DecideRequestRoundTrips) {
  dist::DecideRequestMsg msg;
  msg.request_id = 0xfeedfacecafef00dULL;
  msg.slot = 42;
  msg.user_key = "user-key with spaces \x01";
  const dist::DecideRequestMsg back =
      dist::decode_decide_request(dist::encode_decide_request(msg));
  EXPECT_EQ(back.request_id, msg.request_id);
  EXPECT_EQ(back.slot, msg.slot);
  EXPECT_EQ(back.user_key, msg.user_key);

  dist::DecideRequestMsg empty_key;
  EXPECT_EQ(dist::decode_decide_request(dist::encode_decide_request(empty_key))
                .user_key,
            "");
}

TEST(ServeCodec, DecideReplyRoundTripsExactDouble) {
  dist::DecideReplyMsg msg;
  msg.request_id = 7;
  msg.slot = 9;
  msg.decision_id = 1234567;
  msg.action = 4095;
  msg.propensity = 0.1 + 0.2;  // a value with an inexact decimal expansion
  const dist::DecideReplyMsg back =
      dist::decode_decide_reply(dist::encode_decide_reply(msg));
  EXPECT_EQ(back.request_id, msg.request_id);
  EXPECT_EQ(back.slot, msg.slot);
  EXPECT_EQ(back.decision_id, msg.decision_id);
  EXPECT_EQ(back.action, msg.action);
  EXPECT_EQ(back.propensity, msg.propensity);  // bit-exact, not approximate
}

TEST(ServeCodec, FeedbackRoundTrips) {
  dist::FeedbackMsg msg;
  msg.decision_id = 99;
  msg.reward = -1.5;
  const dist::FeedbackMsg back =
      dist::decode_feedback(dist::encode_feedback(msg));
  EXPECT_EQ(back.decision_id, msg.decision_id);
  EXPECT_EQ(back.reward, msg.reward);
}

TEST(ServeCodec, TruncatedAndOversizedPayloadsThrow) {
  dist::DecideRequestMsg msg;
  msg.user_key = "k";
  std::string bytes = dist::encode_decide_request(msg);
  bytes.pop_back();
  EXPECT_THROW((void)dist::decode_decide_request(bytes),
               std::invalid_argument);
  bytes = dist::encode_decide_reply({});
  bytes.push_back('\0');  // trailing byte: finish() must reject
  EXPECT_THROW((void)dist::decode_decide_reply(bytes), std::invalid_argument);
}

TEST(ServeProtocol, FrameTypeNames) {
  EXPECT_STREQ(dist::frame_type_name(MsgType::kHello), "Hello");
  EXPECT_STREQ(dist::frame_type_name(MsgType::kDecideRequest),
               "DecideRequest");
  EXPECT_STREQ(dist::frame_type_name(MsgType::kDecideReply), "DecideReply");
  EXPECT_STREQ(dist::frame_type_name(MsgType::kFeedback), "Feedback");
  EXPECT_STREQ(dist::frame_type_name(static_cast<MsgType>(42)), "unknown");
  EXPECT_EQ(dist::frame_type_label(8), "DecideReply (8)");
  EXPECT_EQ(dist::frame_type_label(42), "unknown (42)");
}

TEST(ServeProtocol, ValidateHelloChecksServeSchema) {
  dist::HelloMsg hello;
  hello.schema = dist::kServeWireSchema;
  EXPECT_FALSE(dist::validate_hello(hello, dist::kServeWireSchema));

  dist::HelloMsg wrong_schema = hello;
  wrong_schema.schema = dist::kServeWireSchema + 7;
  EXPECT_TRUE(dist::validate_hello(wrong_schema, dist::kServeWireSchema));

  dist::HelloMsg wrong_magic = hello;
  wrong_magic.magic = 0x12345678;
  EXPECT_TRUE(dist::validate_hello(wrong_magic, dist::kServeWireSchema));

  dist::HelloMsg wrong_version = hello;
  wrong_version.protocol_version = dist::kProtocolVersion + 1;
  EXPECT_TRUE(dist::validate_hello(wrong_version, dist::kServeWireSchema));
}

// ------------------------------------------------------------- engine ---

TEST(DecisionEngine, RejectsBadConfiguration) {
  EngineOptions options;
  EXPECT_THROW(DecisionEngine(Graph(0), options), std::invalid_argument);
  options.epsilon = 1.5;
  EXPECT_THROW(DecisionEngine(ring_graph(4), options), std::invalid_argument);
  options.epsilon = 0.1;
  options.policy_spec = "no-such-policy";
  EXPECT_THROW(DecisionEngine(ring_graph(4), options), std::invalid_argument);
}

TEST(DecisionEngine, DecisionIdsCountUpAndSlotIsEchoed) {
  obs::MetricsRegistry registry;
  EngineOptions options;
  options.policy_spec = "eps-greedy:eps=0";
  options.epsilon = 0.0;
  options.metrics = &registry;
  DecisionEngine engine(ring_graph(4), options);
  EXPECT_EQ(engine.num_arms(), 4u);
  for (std::uint64_t i = 1; i <= 5; ++i) {
    const Decision d = engine.decide("k", /*slot=*/100 + i);
    EXPECT_EQ(d.decision_id, i);
    EXPECT_EQ(d.slot, 100 + i);
    EXPECT_TRUE(engine.report(d.decision_id, 0.5));
  }
  EXPECT_EQ(engine.decisions(), 5u);
  EXPECT_EQ(registry.counter("serve.engine.decisions").value(), 5u);
  EXPECT_EQ(registry.counter("serve.engine.feedbacks").value(), 5u);
  EXPECT_EQ(engine.pending(), 0u);
}

TEST(DecisionEngine, PropensityIsEpsOverKPlusGreedyMass) {
  // With exploration probability e over K arms the logged propensity must
  // be exactly e/K (explored off-greedy) or 1-e+e/K (served the greedy
  // arm); anything else breaks inverse-propensity evaluation of the log.
  // The realized action frequencies over 10^4 seeded keys must match those
  // propensities (MWT's Epsilon_Greedy_Random contract): the inner policy
  // gets no feedback, so it keeps choosing its first unvisited arm, 0, and
  // the greedy arm is fixed.
  const double eps = 0.5;
  const std::size_t K = 8;
  const int n = 10000;
  EngineOptions options;
  options.policy_spec = "eps-greedy:eps=0";
  options.epsilon = eps;
  options.seed = 12345;
  DecisionEngine engine(ring_graph(K), options);
  const double explore_p = eps / static_cast<double>(K);
  const double greedy_p = 1.0 - eps + explore_p;
  std::vector<int> served(K, 0);
  double min_propensity = 1.0;
  for (int i = 0; i < n; ++i) {
    const Decision d = engine.decide("user-" + std::to_string(i));
    ASSERT_LT(d.action, static_cast<ArmId>(K));
    const double expected = d.action == 0 ? greedy_p : explore_p;
    ASSERT_EQ(d.propensity, expected)
        << "decision " << i << " served arm " << d.action;
    ++served[static_cast<std::size_t>(d.action)];
    min_propensity = std::min(min_propensity, d.propensity);
  }
  // Each arm's share is binomial: within 4 sigma of its propensity.
  for (std::size_t arm = 0; arm < K; ++arm) {
    const double p = arm == 0 ? greedy_p : explore_p;
    const double sigma = std::sqrt(p * (1.0 - p) / n);
    EXPECT_NEAR(served[arm] / static_cast<double>(n), p, 4.0 * sigma)
        << "arm " << arm;
  }
  EXPECT_GE(min_propensity, explore_p);
}

TEST(DecisionEngine, EpsilonZeroIsPureGreedyWithPropensityOne) {
  EngineOptions options;
  options.policy_spec = "eps-greedy:eps=0";
  options.epsilon = 0.0;
  DecisionEngine engine(ring_graph(4), options);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(engine.decide("k").propensity, 1.0);
  }
}

TEST(DecisionEngine, EpsilonOneIsUniformWithPropensityOneOverK) {
  EngineOptions options;
  options.policy_spec = "eps-greedy:eps=0";
  options.epsilon = 1.0;
  const std::size_t K = 16;
  DecisionEngine engine(ring_graph(K), options);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(engine.decide("k").propensity, 1.0 / static_cast<double>(K));
  }
}

TEST(DecisionEngine, UnknownAndDuplicateFeedbackAreRejected) {
  obs::MetricsRegistry registry;
  EngineOptions options;
  options.policy_spec = "eps-greedy:eps=0";
  options.epsilon = 0.0;
  options.metrics = &registry;
  DecisionEngine engine(ring_graph(4), options);
  EXPECT_FALSE(engine.report(7, 1.0));  // never decided
  const Decision d = engine.decide("k");
  EXPECT_TRUE(engine.report(d.decision_id, 1.0));
  EXPECT_FALSE(engine.report(d.decision_id, 1.0));  // already joined
  // The never-issued id, then the re-reported one.
  EXPECT_EQ(registry.counter("serve.engine.unknown_feedbacks").value(), 1u);
  EXPECT_EQ(registry.counter("serve.engine.duplicate_feedbacks").value(), 1u);
  EXPECT_EQ(registry.counter("serve.engine.feedbacks").value(), 1u);
}

TEST(DecisionEngine, IdenticalCallSequencesAreBitIdentical) {
  // The determinism contract: decisions depend only on the seed and the
  // global decide/report order — two engines fed the same sequence agree
  // on every (action, propensity) pair.
  EngineOptions options;
  options.policy_spec = "eps-greedy:eps=0";
  options.epsilon = 0.3;
  options.seed = 777;
  DecisionEngine a(ring_graph(12), options);
  DecisionEngine b(ring_graph(12), options);
  for (int i = 0; i < 300; ++i) {
    const std::string key = "user-" + std::to_string(i % 9);
    const Decision da = a.decide(key, static_cast<std::uint64_t>(i));
    const Decision db = b.decide(key, static_cast<std::uint64_t>(i));
    ASSERT_EQ(da.decision_id, db.decision_id) << i;
    ASSERT_EQ(da.action, db.action) << i;
    ASSERT_EQ(da.propensity, db.propensity) << i;
    const double reward = static_cast<double>((i * 13) % 10) / 10.0;
    a.report(da.decision_id, reward);
    b.report(db.decision_id, reward);
  }
}

TEST(DecisionEngine, ExplorationDependsOnlyOnSeedKeyAndDecisionId) {
  // The draw for decision t on key k is a pure function of (seed, k, t):
  // what the key asked before must not matter. At epsilon = 1 every served
  // action is the draw, so two engines reaching decision 5 on key "x" with
  // different key histories must serve the same action.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    EngineOptions options;
    options.policy_spec = "random";
    options.epsilon = 1.0;
    options.seed = seed;
    DecisionEngine a(ring_graph(64), options);
    DecisionEngine b(ring_graph(64), options);
    Decision da;
    for (int i = 0; i < 5; ++i) da = a.decide("x");
    for (const char* key : {"a", "b", "c", "d"}) (void)b.decide(key);
    const Decision db = b.decide("x");
    ASSERT_EQ(da.decision_id, 5u);
    ASSERT_EQ(db.decision_id, 5u);
    EXPECT_EQ(da.action, db.action) << "seed " << seed;
    EXPECT_EQ(da.propensity, db.propensity) << "seed " << seed;
  }
}

TEST(DecisionEngine, LogRecordsDecisionsAndFeedbackInCallOrder) {
  TempDir dir;
  const std::string path = dir.file("engine.ncbl");
  {
    EventLog log({path});
    EngineOptions options;
    options.policy_spec = "eps-greedy:eps=0";
    options.epsilon = 0.0;
    DecisionEngine engine(ring_graph(4), options, &log);
    const Decision d1 = engine.decide("alice");
    const Decision d2 = engine.decide("bob");
    engine.report(d1.decision_id, 1.0);
    engine.report(d2.decision_id, 0.0);
    engine.report(999, 1.0);  // unknown: must NOT be logged
    log.close();
  }
  const EventLogScan scan = read_event_log(path);
  ASSERT_EQ(scan.records.size(), 4u);
  EXPECT_EQ(scan.records[0].type, EventType::kDecision);
  EXPECT_EQ(scan.records[0].key, "alice");
  EXPECT_EQ(scan.records[1].key, "bob");
  EXPECT_EQ(scan.records[2].type, EventType::kFeedback);
  EXPECT_EQ(scan.records[2].decision_id, scan.records[0].decision_id);
  EXPECT_EQ(scan.joined, 2u);
}

// ------------------------------------------------------------- server ---

ssize_t send_all(int fd, const std::string& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    sent += static_cast<std::size_t>(n);
  }
  return static_cast<ssize_t>(sent);
}

int connect_retry(const std::string& path) {
  for (int attempt = 0; attempt < 1000; ++attempt) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return -1;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s", path.c_str());
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      return fd;
    }
    ::close(fd);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return -1;
}

/// Connects and completes the Hello/HelloAck handshake; returns the fd.
int handshake_client(const std::string& socket_path) {
  const int fd = connect_retry(socket_path);
  EXPECT_GE(fd, 0) << "server never started listening";
  if (fd < 0) return -1;
  dist::HelloMsg hello;
  hello.schema = dist::kServeWireSchema;
  dist::write_frame(fd, MsgType::kHello, dist::encode_hello(hello));
  const auto ack = dist::read_frame(fd);
  EXPECT_TRUE(ack.has_value());
  EXPECT_EQ(ack->type, MsgType::kHelloAck);
  dist::decode_hello_ack(ack->payload);
  return fd;
}

struct ServedDecision {
  std::uint64_t decision_id = 0;
  std::uint32_t action = 0;
  double propensity = 0.0;
};

/// One StatsRequest/StatsReply exchange on an already-handshaken fd.
dist::StatsReplyMsg poll_stats_once(int fd) {
  dist::write_frame(fd, MsgType::kStatsRequest, "");
  const auto frame = dist::read_frame(fd);
  EXPECT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, MsgType::kStatsReply);
  return dist::decode_stats_reply(frame->payload);
}

/// Value of the named entry in a StatsReply; -1 when absent.
std::int64_t stat_value(const dist::StatsReplyMsg& reply,
                        const std::string& name) {
  for (const dist::StatsEntry& entry : reply.entries) {
    if (entry.name == name) return static_cast<std::int64_t>(entry.value);
  }
  return -1;
}

struct ScenarioResult {
  std::vector<ServedDecision> decisions;
  std::string log_bytes;
  dist::StatsReplyMsg final_stats;  ///< Only filled when polling.
  std::uint64_t background_polls = 0;
};

/// Serves `n` lockstep requests over `connections` round-robin client
/// sockets against a fresh engine + event log. The feedback for decision i
/// travels in the same send() as request i+1 (on whatever connection
/// carries i+1), so the server's processing order is globally sequential —
/// the engine sees an identical call sequence for ANY connection count.
/// Server, engine and log all count into `metrics`, a caller-owned registry.
ScenarioResult run_scenario(int connections, int n,
                            obs::MetricsRegistry* metrics, bool poll = false) {
  TempDir dir;
  const std::string socket_path = dir.file("serve.sock");
  const std::string log_path = dir.file("serve.ncbl");

  ScenarioResult result;
  {
    EventLog::Options log_options;
    log_options.path = log_path;
    log_options.metrics = metrics;
    EventLog log(log_options);
    EngineOptions engine_options;
    engine_options.policy_spec = "eps-greedy:eps=0";
    engine_options.epsilon = 0.25;
    engine_options.seed = 20170605;
    engine_options.metrics = metrics;
    DecisionEngine engine(ring_graph(16), engine_options, &log);
    // Relative to the starting value: a caller may hand in a registry that
    // already holds counts.
    const obs::Counter& feedbacks = metrics->counter("serve.engine.feedbacks");
    const std::uint64_t feedbacks_before = feedbacks.value();

    std::atomic<bool> stop{false};
    ServerOptions server_options;
    server_options.socket_path = socket_path;
    server_options.should_stop = [&stop] { return stop.load(); };
    server_options.metrics = metrics;
    std::thread server([&] { run_server(engine, server_options); });

    // Concurrent poller: hammers StatsRequest on its own connection while
    // decide/feedback traffic flows — the "telemetry observes, never
    // perturbs" invariant under actual interleaving.
    std::atomic<bool> poller_stop{false};
    std::atomic<bool> poller_replied{false};
    std::thread poller;
    if (poll) {
      poller = std::thread([&] {
        const int fd = handshake_client(socket_path);
        if (fd < 0) return;
        while (!poller_stop.load()) {
          dist::write_frame(fd, MsgType::kStatsRequest, "");
          const auto frame = dist::read_frame(fd);
          if (!frame || frame->type != MsgType::kStatsReply) break;
          ++result.background_polls;
          poller_replied.store(true);
        }
        ::close(fd);
      });
    }

    std::vector<int> fds;
    try {
      // The lockstep clients start only once the poller holds its first
      // StatsReply, so polls and traffic overlap by construction rather
      // than by the scheduler's luck.
      if (poll) {
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (!poller_replied.load()) {
          if (std::chrono::steady_clock::now() >= deadline) {
            throw std::runtime_error("poller got no StatsReply within 10 s");
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      }
      for (int c = 0; c < connections; ++c) {
        const int fd = handshake_client(socket_path);
        if (fd < 0) throw std::runtime_error("handshake failed");
        fds.push_back(fd);
      }

      std::string pending_feedback;
      for (int i = 0; i < n; ++i) {
        const int fd = fds[static_cast<std::size_t>(i % connections)];
        dist::DecideRequestMsg request;
        request.request_id = static_cast<std::uint64_t>(i);
        request.slot = static_cast<std::uint64_t>(i);
        request.user_key = "user-" + std::to_string(i % 5);
        std::string out = std::move(pending_feedback);
        pending_feedback.clear();
        dist::append_frame(out, MsgType::kDecideRequest,
                           dist::encode_decide_request(request));
        if (send_all(fd, out) < 0) {
          throw std::runtime_error("send failed at request " +
                                   std::to_string(i));
        }

        const auto frame = dist::read_frame(fd);
        if (!frame || frame->type != MsgType::kDecideReply) {
          throw std::runtime_error("no DecideReply for request " +
                                   std::to_string(i));
        }
        const dist::DecideReplyMsg reply =
            dist::decode_decide_reply(frame->payload);
        EXPECT_EQ(reply.request_id, request.request_id) << i;
        EXPECT_EQ(reply.slot, request.slot) << i;
        result.decisions.push_back(
            {reply.decision_id, reply.action, reply.propensity});

        dist::FeedbackMsg feedback;
        feedback.decision_id = reply.decision_id;
        feedback.reward = static_cast<double>((i * 7) % 11) / 10.0;
        dist::append_frame(pending_feedback, MsgType::kFeedback,
                           dist::encode_feedback(feedback));
      }
      if (!pending_feedback.empty() &&
          send_all(fds.back(), pending_feedback) < 0) {
        throw std::runtime_error("final feedback send failed");
      }
      // Let the trailing feedback reach the engine before shutting down.
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(5);
      while (feedbacks.value() - feedbacks_before <
                 static_cast<std::uint64_t>(n) &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      EXPECT_EQ(feedbacks.value() - feedbacks_before,
                static_cast<std::uint64_t>(n));
      // Quiesce the poller first so background_polls is final, then take
      // one synchronous poll: every feedback has landed, counters exact.
      poller_stop.store(true);
      if (poller.joinable()) poller.join();
      if (poll) result.final_stats = poll_stats_once(fds[0]);
    } catch (...) {
      poller_stop.store(true);
      if (poller.joinable()) poller.join();
      for (const int fd : fds) ::close(fd);
      stop.store(true);
      server.join();
      throw;
    }
    poller_stop.store(true);
    if (poller.joinable()) poller.join();
    for (const int fd : fds) ::close(fd);
    stop.store(true);
    server.join();
    log.close();
  }
  result.log_bytes = read_bytes(log_path);
  return result;
}

/// FNV-1a of the event-log bytes from run_scenario(·, 96). Pins the full
/// stack — engine seed derivation, the (key, decision_id) exploration
/// draws, policy tie-breaks, and the record encodings. Regenerate (the
/// failure message prints the actual value) only for a deliberate change
/// to the draw contract or the wire/log format.
constexpr std::uint64_t kGoldenLogHash = 0xf0e9b155039c97b0ULL;

TEST(ServeServer, ConnectionCountDoesNotChangeDecisionsOrLog) {
  const int kRequests = 96;
  obs::MetricsRegistry one_metrics;
  obs::MetricsRegistry four_metrics;
  ScenarioResult one = run_scenario(1, kRequests, &one_metrics);
  ScenarioResult four = run_scenario(4, kRequests, &four_metrics);

  ASSERT_EQ(one.decisions.size(), static_cast<std::size_t>(kRequests));
  ASSERT_EQ(four.decisions.size(), static_cast<std::size_t>(kRequests));
  for (int i = 0; i < kRequests; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    ASSERT_EQ(one.decisions[idx].decision_id, four.decisions[idx].decision_id)
        << i;
    ASSERT_EQ(one.decisions[idx].action, four.decisions[idx].action) << i;
    ASSERT_EQ(one.decisions[idx].propensity, four.decisions[idx].propensity)
        << i;
  }
  EXPECT_EQ(one.log_bytes, four.log_bytes);
  EXPECT_EQ(fnv1a(one.log_bytes), kGoldenLogHash)
      << "actual hash 0x" << std::hex << fnv1a(one.log_bytes);

  EXPECT_EQ(one_metrics.counter("serve.connections.accepted").value(), 1u);
  EXPECT_EQ(four_metrics.counter("serve.connections.accepted").value(), 4u);
  EXPECT_EQ(one_metrics.counter("serve.decide.requests").value(),
            static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(one_metrics.counter("serve.feedback.frames").value(),
            static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(one_metrics.counter("serve.protocol.errors").value(), 0u);

  // The log is the canonical D1 F1 D2 F2 ... interleaving.
  TempDir dir;
  const std::string copy = dir.file("copy.ncbl");
  std::ofstream(copy, std::ios::binary) << one.log_bytes;
  const EventLogScan scan = read_event_log(copy);
  ASSERT_EQ(scan.records.size(), static_cast<std::size_t>(2 * kRequests));
  EXPECT_EQ(scan.joined, static_cast<std::uint64_t>(kRequests));
  EXPECT_FALSE(scan.truncated_tail);
  for (int i = 0; i < kRequests; ++i) {
    const auto idx = static_cast<std::size_t>(2 * i);
    EXPECT_EQ(scan.records[idx].type, EventType::kDecision) << i;
    EXPECT_EQ(scan.records[idx + 1].type, EventType::kFeedback) << i;
    EXPECT_EQ(scan.records[idx].decision_id,
              scan.records[idx + 1].decision_id)
        << i;
  }
}

TEST(ServeServer, PreloadedMetricsCannotSteerDecisions) {
  // The registry is write-only from serving's point of view: a registry
  // whose every counter and gauge already holds a large value must yield
  // the same decisions and log bytes as a fresh one, and each counter must
  // rise by exactly this scenario's event count.
  const int kRequests = 96;
  const auto n = static_cast<std::uint64_t>(kRequests);
  obs::MetricsRegistry fresh_metrics;
  const ScenarioResult fresh = run_scenario(1, kRequests, &fresh_metrics);

  // Pre-load every instrument the scenario registers (all serve.*).
  constexpr std::uint64_t kPreload = 1ULL << 40;
  const obs::MetricsSnapshot registered = fresh_metrics.snapshot();
  obs::MetricsRegistry preloaded;
  for (const auto& [name, value] : registered.counters) {
    ASSERT_EQ(name.rfind("serve.", 0), 0u) << name;
    preloaded.counter(name).inc(kPreload);
  }
  for (const auto& [name, value] : registered.gauges) {
    ASSERT_EQ(name.rfind("serve.", 0), 0u) << name;
    preloaded.gauge(name).set(-1);
  }
  const ScenarioResult steered = run_scenario(1, kRequests, &preloaded);

  ASSERT_EQ(steered.decisions.size(), fresh.decisions.size());
  for (std::size_t i = 0; i < fresh.decisions.size(); ++i) {
    ASSERT_EQ(steered.decisions[i].decision_id, fresh.decisions[i].decision_id)
        << i;
    ASSERT_EQ(steered.decisions[i].action, fresh.decisions[i].action) << i;
    ASSERT_EQ(steered.decisions[i].propensity, fresh.decisions[i].propensity)
        << i;
  }
  EXPECT_EQ(steered.log_bytes, fresh.log_bytes);
  EXPECT_EQ(fnv1a(steered.log_bytes), kGoldenLogHash)
      << "actual hash 0x" << std::hex << fnv1a(steered.log_bytes);

  // Every event count of one lockstep connection: n decide/feedback pairs,
  // 2n log records, the log bytes past its 8-byte header.
  const std::map<std::string, std::uint64_t> expected = {
      {"serve.connections.accepted", 1},
      {"serve.decide.requests", n},
      {"serve.engine.decisions", n},
      {"serve.engine.duplicate_feedbacks", 0},
      {"serve.engine.feedbacks", n},
      {"serve.engine.unknown_feedbacks", 0},
      {"serve.feedback.frames", n},
      {"serve.log.flush_stalls", 0},
      {"serve.log.flushed_bytes", fresh.log_bytes.size() - 8},
      {"serve.log.records", 2 * n},
      {"serve.log.write_failures", 0},
      {"serve.protocol.errors", 0},
      {"serve.stats.requests", 0},
  };
  for (const auto& [name, value] : registered.counters) {
    const std::uint64_t rose = preloaded.counter(name).value() - kPreload;
    if (name == "serve.log.flushes") {
      // Batching follows the flusher's clock; at least the final drain.
      EXPECT_GE(value, 1u);
      EXPECT_GE(rose, 1u);
      continue;
    }
    ASSERT_EQ(expected.count(name), 1u) << "unexpected counter " << name;
    EXPECT_EQ(value, expected.at(name)) << name;
    EXPECT_EQ(rose, expected.at(name)) << name;
  }
  EXPECT_EQ(registered.counters.size(), expected.size() + 1);
}

TEST(ServeServer, RejectsBadHandshakeAndUnexpectedFrames) {
  obs::MetricsRegistry registry;
  TempDir dir;
  const std::string socket_path = dir.file("serve.sock");
  EngineOptions engine_options;
  engine_options.policy_spec = "eps-greedy:eps=0";
  engine_options.epsilon = 0.0;
  engine_options.metrics = &registry;
  DecisionEngine engine(ring_graph(4), engine_options);

  std::atomic<bool> stop{false};
  ServerOptions server_options;
  server_options.socket_path = socket_path;
  server_options.should_stop = [&stop] { return stop.load(); };
  server_options.metrics = &registry;
  std::thread server([&] { run_server(engine, server_options); });

  {  // Wrong schema word in the Hello: dropped before any ack.
    const int fd = connect_retry(socket_path);
    ASSERT_GE(fd, 0);
    dist::HelloMsg hello;
    hello.schema = dist::kServeWireSchema + 9;
    dist::write_frame(fd, MsgType::kHello, dist::encode_hello(hello));
    EXPECT_FALSE(dist::read_frame(fd).has_value());  // clean EOF, no ack
    ::close(fd);
  }
  {  // Valid handshake, then a sweep frame type the serve reactor never
     // accepts: the connection is dropped, the error counted by name.
    const int fd = handshake_client(socket_path);
    ASSERT_GE(fd, 0);
    dist::write_frame(fd, MsgType::kShutdown, "");
    EXPECT_FALSE(dist::read_frame(fd).has_value());
    ::close(fd);
  }
  {  // A healthy client is undisturbed by the two drops above.
    const int fd = handshake_client(socket_path);
    ASSERT_GE(fd, 0);
    dist::DecideRequestMsg request;
    request.request_id = 1;
    request.user_key = "ok";
    dist::write_frame(fd, MsgType::kDecideRequest,
                      dist::encode_decide_request(request));
    const auto frame = dist::read_frame(fd);
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->type, MsgType::kDecideReply);
    ::close(fd);
  }

  stop.store(true);
  server.join();
  EXPECT_EQ(registry.counter("serve.protocol.errors").value(), 2u);
  EXPECT_EQ(registry.counter("serve.decide.requests").value(), 1u);
  EXPECT_EQ(registry.counter("serve.connections.accepted").value(), 3u);
}

TEST(ServeServer, StatsPollingObservesExactCountersWithoutPerturbing) {
  obs::MetricsRegistry registry;
  const int kRequests = 96;
  ScenarioResult polled =
      run_scenario(2, kRequests, &registry, /*poll=*/true);

  // The golden hash from the unpolled scenario must survive a concurrent
  // StatsRequest hammer on a third connection: telemetry observes serving,
  // it never steers it.
  EXPECT_EQ(fnv1a(polled.log_bytes), kGoldenLogHash)
      << "actual hash 0x" << std::hex << fnv1a(polled.log_bytes);
  EXPECT_GT(polled.background_polls, 0u);

  const dist::StatsReplyMsg& live = polled.final_stats;
  EXPECT_EQ(stat_value(live, "serve.decide.requests"), kRequests);
  EXPECT_EQ(stat_value(live, "serve.feedback.frames"), kRequests);
  EXPECT_EQ(stat_value(live, "serve.engine.decisions"), kRequests);
  EXPECT_EQ(stat_value(live, "serve.engine.feedbacks"), kRequests);
  EXPECT_EQ(stat_value(live, "serve.log.records"), 2 * kRequests);
  EXPECT_EQ(stat_value(live, "serve.protocol.errors"), 0);
  // 2 lockstep clients + the poller connection.
  EXPECT_EQ(stat_value(live, "serve.connections.accepted"), 3);
  // The final poll counts itself before snapshotting.
  EXPECT_GE(stat_value(live, "serve.stats.requests"),
            static_cast<std::int64_t>(polled.background_polls) + 1);
  EXPECT_EQ(stat_value(live, "serve.decide.latency_us.count"), kRequests);
  EXPECT_EQ(stat_value(live, "serve.feedback.latency_us.count"), kRequests);
}

TEST(ServeServer, StatsRequestReportsProtocolAndDuplicateErrors) {
  obs::MetricsRegistry registry;
  TempDir dir;
  const std::string socket_path = dir.file("serve.sock");
  EngineOptions engine_options;
  engine_options.policy_spec = "eps-greedy:eps=0";
  engine_options.epsilon = 0.0;
  engine_options.metrics = &registry;
  DecisionEngine engine(ring_graph(4), engine_options);

  std::atomic<bool> stop{false};
  ServerOptions server_options;
  server_options.socket_path = socket_path;
  server_options.should_stop = [&stop] { return stop.load(); };
  server_options.metrics = &registry;
  std::thread server([&] { run_server(engine, server_options); });

  {  // Sweep-only frame type: dropped, counted by name.
    const int fd = handshake_client(socket_path);
    ASSERT_GE(fd, 0);
    dist::write_frame(fd, MsgType::kShutdown, "");
    EXPECT_FALSE(dist::read_frame(fd).has_value());
    ::close(fd);
  }
  {  // A StatsRequest must carry an empty payload.
    const int fd = handshake_client(socket_path);
    ASSERT_GE(fd, 0);
    dist::write_frame(fd, MsgType::kStatsRequest, "boom");
    EXPECT_FALSE(dist::read_frame(fd).has_value());
    ::close(fd);
  }

  const int fd = handshake_client(socket_path);
  ASSERT_GE(fd, 0);
  dist::DecideRequestMsg request;
  request.request_id = 1;
  request.user_key = "dup";
  dist::write_frame(fd, MsgType::kDecideRequest,
                    dist::encode_decide_request(request));
  const auto frame = dist::read_frame(fd);
  ASSERT_TRUE(frame.has_value());
  ASSERT_EQ(frame->type, MsgType::kDecideReply);
  const dist::DecideReplyMsg reply =
      dist::decode_decide_reply(frame->payload);

  // Same decision acknowledged twice: first lands, second is a duplicate.
  dist::FeedbackMsg feedback;
  feedback.decision_id = reply.decision_id;
  feedback.reward = 0.5;
  dist::write_frame(fd, MsgType::kFeedback, dist::encode_feedback(feedback));
  dist::write_frame(fd, MsgType::kFeedback, dist::encode_feedback(feedback));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (registry.counter("serve.engine.duplicate_feedbacks").value() < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  const dist::StatsReplyMsg live = poll_stats_once(fd);
  EXPECT_EQ(stat_value(live, "serve.protocol.errors"), 2);
  EXPECT_EQ(stat_value(live, "serve.engine.duplicate_feedbacks"), 1);
  EXPECT_EQ(stat_value(live, "serve.engine.unknown_feedbacks"), 0);
  EXPECT_EQ(stat_value(live, "serve.engine.feedbacks"), 1);
  EXPECT_EQ(stat_value(live, "serve.decide.requests"), 1);
  EXPECT_EQ(stat_value(live, "serve.connections.accepted"), 3);
  ::close(fd);

  stop.store(true);
  server.join();
  EXPECT_EQ(registry.counter("serve.protocol.errors").value(), 2u);
}

}  // namespace
}  // namespace ncb::serve
