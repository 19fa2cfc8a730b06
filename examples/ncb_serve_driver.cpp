// ncb_serve_driver — closed-loop load driver for ncb_serve.
//
// Opens M connections to a running server and pushes N decide requests
// through them, each followed by a Bernoulli reward drawn from the same
// §VII instance the server's graph flags describe — so the server's policy
// actually learns while being driven. Each connection keeps kPipeline
// requests in flight. Per-request round-trip latency lands in a log-scale
// histogram; the exit line reports QPS and p50/p99/p999. The benchmark's
// load generator is perfbench/pb_loadgen; this driver is the smokes' and
// the determinism harness's.
//
// --lockstep serializes the whole run to one request in flight globally,
// with each request's frame carrying the previous decision's feedback on
// the same connection (so the server processes report(i-1) immediately
// before decide(i)). That makes the server's processing order — and
// therefore its decisions, its policy state, and its event log bytes —
// identical for ANY --connections value: the determinism harness behind
// the serve smoke and tests/test_serve.cpp.
//
// Usage:
//   ncb_serve_driver --socket <path> --requests N [--connections M]
//                    [--keys U] [--arms K] [--graph er] [--edge-prob P]
//                    [--family-param N] [--seed N]
//                    [--lockstep] [--dump <file>]
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <deque>
#include <iostream>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "dist/protocol.hpp"
#include "exp/emitters.hpp"
#include "exp/sweep_spec.hpp"
#include "sim/experiment.hpp"
#include "util/arg_parse.hpp"
#include "util/histogram.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using namespace ncb;

int usage(const char* program) {
  std::cerr
      << "usage: " << program << " --socket <path> --requests N [options]\n"
         "  --connections M   parallel closed-loop connections (default: 2)\n"
         "  --keys U          distinct user keys cycled through (default: 64)\n"
         "  --arms K          arms of the server's instance (default: 100)\n"
         "  --graph <family>  server's graph family (default: er)\n"
         "  --edge-prob P     server's edge probability (default: 0.3)\n"
         "  --family-param N  server's family param (default: 4)\n"
         "  --seed N          instance + reward seed (default: 20170605)\n"
         "  --lockstep        one request in flight globally (determinism\n"
         "                    harness; QPS is meaningless in this mode)\n"
         "  --dump <file>     write 'decision_id action propensity' lines\n"
         "                    sorted by decision_id (for run comparison)\n";
  return 2;
}

int connect_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) {
    throw std::runtime_error("socket path too long for AF_UNIX");
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    throw std::runtime_error(std::string("socket: ") + std::strerror(errno));
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) <
      0) {
    const int saved = errno;
    ::close(fd);
    throw std::runtime_error("connect '" + path +
                             "': " + std::strerror(saved));
  }
  return fd;
}

/// Hello/HelloAck exchange with the serve schema word.
void handshake(int fd) {
  dist::HelloMsg hello;
  hello.schema = dist::kServeWireSchema;
  dist::write_frame(fd, dist::MsgType::kHello, dist::encode_hello(hello));
  const auto ack = dist::read_frame(fd);
  if (!ack || ack->type != dist::MsgType::kHelloAck) {
    throw std::runtime_error("server rejected the handshake");
  }
  dist::decode_hello_ack(ack->payload);
}

struct DumpedDecision {
  std::uint64_t decision_id = 0;
  std::uint32_t action = 0;
  double propensity = 0.0;
};

void send_all(int fd, const std::string& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("send: ") + std::strerror(errno));
    }
    sent += static_cast<std::size_t>(n);
  }
}

/// Requests in flight per connection outside --lockstep (reported latency
/// includes queueing).
constexpr std::uint64_t kPipeline = 8;

/// Click model: reward ∈ {0, 1} with P(1) = μ_action.
double click(double mean, Xoshiro256& rng) {
  return rng.bernoulli(mean) ? 1.0 : 0.0;
}

/// One decide round trip on `fd`; returns the reply. `prefix_feedback`
/// (possibly empty) is the previous decision's deferred Feedback frame,
/// written in the same send so the server reports it before this decide.
dist::DecideReplyMsg decide_round_trip(int fd, std::uint64_t request_id,
                                       const std::string& user_key,
                                       const std::string& prefix_feedback) {
  std::string out = prefix_feedback;
  dist::DecideRequestMsg request;
  request.request_id = request_id;
  request.slot = request_id;
  request.user_key = user_key;
  dist::append_frame(out, dist::MsgType::kDecideRequest,
                     dist::encode_decide_request(request));
  send_all(fd, out);
  const auto frame = dist::read_frame(fd);
  if (!frame || frame->type != dist::MsgType::kDecideReply) {
    throw std::runtime_error("expected a DecideReply");
  }
  dist::DecideReplyMsg reply = dist::decode_decide_reply(frame->payload);
  if (reply.request_id != request_id) {
    throw std::runtime_error("DecideReply for the wrong request");
  }
  return reply;
}

std::string encode_feedback_frame(std::uint64_t decision_id, double reward) {
  dist::FeedbackMsg feedback;
  feedback.decision_id = decision_id;
  feedback.reward = reward;
  std::string out;
  dist::append_frame(out, dist::MsgType::kFeedback,
                     dist::encode_feedback(feedback));
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const ArgParse args(argc, argv);
    if (args.has("help")) return usage(args.program().c_str());
    const std::string socket_path = args.get_string("socket", "");
    const auto requests = args.get_int("requests", 0);
    if (socket_path.empty() || requests <= 0) {
      return usage(args.program().c_str());
    }
    const auto connections = std::max<std::int64_t>(
        1, std::min<std::int64_t>(args.get_int("connections", 2), requests));
    const auto keys = std::max<std::int64_t>(1, args.get_int("keys", 64));
    const bool lockstep = args.get_bool("lockstep", false);
    const std::string dump_path = args.get_string("dump", "");

    // The same instance the server built from matching flags: arm means for
    // the Bernoulli reward simulation.
    ExperimentConfig config;
    config.graph_family = exp::parse_family(args.get_string("graph", "er"));
    config.num_arms = static_cast<std::size_t>(args.get_int("arms", 100));
    config.edge_probability = args.get_double("edge-prob", 0.3);
    config.family_param =
        static_cast<std::size_t>(args.get_int("family-param", 4));
    config.seed = static_cast<std::uint64_t>(args.get_int("seed", 20170605));
    const std::vector<double> means = build_instance(config).means();

    std::vector<int> fds;
    for (std::int64_t i = 0; i < connections; ++i) {
      const int fd = connect_unix(socket_path);
      handshake(fd);
      fds.push_back(fd);
    }

    const std::uint64_t total = static_cast<std::uint64_t>(requests);
    std::vector<LatencyHistogram> histograms(fds.size());
    std::vector<DumpedDecision> dumped;
    if (!dump_path.empty()) dumped.resize(total);

    // Lockstep shared state (all guarded by lockstep_mutex): the global
    // request counter, the shared reward stream, and the previous
    // decision's not-yet-sent feedback frame.
    std::mutex lockstep_mutex;
    std::uint64_t lockstep_next = 0;
    Xoshiro256 lockstep_rewards(derive_seed_at(config.seed, 1));
    std::string lockstep_pending_feedback;
    int lockstep_last_fd = -1;

    std::atomic<std::uint64_t> next{0};
    std::atomic<bool> failed{false};
    std::string first_error;
    std::mutex error_mutex;

    Timer timer;
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < fds.size(); ++c) {
      threads.emplace_back([&, c] {
        const int fd = fds[c];
        Xoshiro256 rewards(derive_seed_at(config.seed + 1, c));
        const auto dump_reply = [&](const dist::DecideReplyMsg& reply) {
          if (dump_path.empty()) return;
          dumped[reply.request_id] = {reply.decision_id, reply.action,
                                      reply.propensity};
        };
        const auto mean_of = [&](const dist::DecideReplyMsg& reply) {
          return means[std::min<std::size_t>(reply.action, means.size() - 1)];
        };
        try {
          if (lockstep) {
            while (!failed.load(std::memory_order_relaxed)) {
              std::unique_lock<std::mutex> lock(lockstep_mutex);
              const std::uint64_t i = lockstep_next;
              if (i >= total) break;
              ++lockstep_next;
              const std::string prefix =
                  std::move(lockstep_pending_feedback);
              lockstep_pending_feedback.clear();
              const std::string key = "user-" + std::to_string(i % keys);
              Timer rtt;
              const dist::DecideReplyMsg reply =
                  decide_round_trip(fd, i, key, prefix);
              histograms[c].record(
                  static_cast<std::uint64_t>(rtt.elapsed_seconds() * 1e9));
              dump_reply(reply);
              // Defer the feedback: it rides in front of the NEXT decide
              // (any connection), keeping the server's processing order
              // globally sequential.
              lockstep_pending_feedback = encode_feedback_frame(
                  reply.decision_id,
                  click(mean_of(reply), lockstep_rewards));
              lockstep_last_fd = fd;
            }
            return;
          }
          // Windowed closed loop: keep up to kPipeline requests in flight
          // on this connection, each send carrying the deferred feedback of
          // already-answered decisions — so syscalls and reactor rounds
          // amortize over the window. The server answers a connection's
          // requests in order, so replies match pending_starts FIFO.
          std::deque<std::pair<std::uint64_t, Timer>> pending_starts;
          std::string outbox;  ///< Deferred feedback awaiting the next send.
          std::uint64_t in_flight = 0;
          bool drained = false;
          while (!failed.load(std::memory_order_relaxed)) {
            while (!drained && in_flight < kPipeline) {
              const std::uint64_t i =
                  next.fetch_add(1, std::memory_order_relaxed);
              if (i >= total) {
                drained = true;
                break;
              }
              dist::DecideRequestMsg request;
              request.request_id = i;
              request.slot = i;
              request.user_key = "user-" + std::to_string(i % keys);
              dist::append_frame(outbox, dist::MsgType::kDecideRequest,
                                 dist::encode_decide_request(request));
              pending_starts.emplace_back(i, Timer());
              ++in_flight;
            }
            if (!outbox.empty()) {
              send_all(fd, outbox);
              outbox.clear();
            }
            if (in_flight == 0) break;
            const auto frame = dist::read_frame(fd);
            if (!frame || frame->type != dist::MsgType::kDecideReply) {
              throw std::runtime_error("expected a DecideReply");
            }
            const dist::DecideReplyMsg reply =
                dist::decode_decide_reply(frame->payload);
            if (pending_starts.empty() ||
                reply.request_id != pending_starts.front().first) {
              throw std::runtime_error("DecideReply out of order");
            }
            histograms[c].record(static_cast<std::uint64_t>(
                pending_starts.front().second.elapsed_seconds() * 1e9));
            pending_starts.pop_front();
            --in_flight;
            dump_reply(reply);
            outbox += encode_feedback_frame(
                reply.decision_id,
                click(mean_of(reply), rewards));
          }
          // Feedback for the window's final replies has no request to ride
          // on — flush it standalone.
          if (!outbox.empty()) send_all(fd, outbox);
        } catch (const std::exception& e) {
          failed.store(true, std::memory_order_relaxed);
          std::lock_guard<std::mutex> guard(error_mutex);
          if (first_error.empty()) first_error = e.what();
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    if (failed.load()) {
      throw std::runtime_error("driver connection failed: " + first_error);
    }
    // Lockstep leaves the last decision's feedback unsent — flush it on the
    // connection that received the decision.
    if (lockstep && !lockstep_pending_feedback.empty()) {
      send_all(lockstep_last_fd, lockstep_pending_feedback);
    }
    const double seconds = timer.elapsed_seconds();
    for (const int fd : fds) ::close(fd);

    LatencyHistogram merged;
    for (const LatencyHistogram& histogram : histograms) {
      merged.merge(histogram);
    }
    const double qps =
        seconds > 0 ? static_cast<double>(total) / seconds : 0.0;
    std::cout << "ncb_serve_driver: " << total << " requests over "
              << fds.size() << " connections in " << seconds << "s = "
              << static_cast<std::uint64_t>(qps) << " qps"
              << (lockstep ? " (lockstep)" : "") << "\n  latency p50="
              << merged.p50() / 1000 << "us p99=" << merged.p99() / 1000
              << "us p999=" << merged.p999() / 1000
              << "us max=" << merged.max() / 1000 << "us\n";

    if (!dump_path.empty()) {
      std::sort(dumped.begin(), dumped.end(),
                [](const DumpedDecision& a, const DumpedDecision& b) {
                  return a.decision_id < b.decision_id;
                });
      std::string text;
      for (const DumpedDecision& d : dumped) {
        text += std::to_string(d.decision_id) + " " +
                std::to_string(d.action) + " " +
                exp::json_number(d.propensity) + "\n";
      }
      exp::write_file(dump_path, text);
      std::cout << "wrote " << dump_path << '\n';
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << (argc > 0 ? argv[0] : "ncb_serve_driver")
              << ": error: " << e.what() << '\n';
    return 2;
  }
}
