// pb_loadgen — the benchmark's serve load generator.
//
// Drives a running ncb_serve over 2 connections (one thread each) through
// three phases, every request answered and every decision given a noisy
// reward (mean of the chosen arm ± 0.1) so the server's policy learns:
//
//   warm-up   closed loop, untimed, for a fixed number of decisions — past
//             the first K, so the O(1) unvisited-arm phase is excluded;
//   closed    closed loop for --closed-seconds with 32 requests in flight
//             per connection: sustained throughput, counted in 100 ms
//             windows, plus the server's utime+stime from /proc;
//   open      open loop at a fixed offered --rate (Poisson arrivals drawn
//             from the seed) for --open-seconds: each latency is timed from
//             the request's scheduled send time (overall and per 1 s
//             window of send times), and the generator's own lateness is
//             recorded separately.
//
// The final step sends a StatsRequest and reports the server's flattened
// metrics registry. --probe instead only waits for a
// just-launched server and reports when its HelloAck arrived (the set-up
// time probe). Prints one JSON object on stdout; exits 2 on any protocol
// or validation failure.
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <deque>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "dist/protocol.hpp"
#include "exp/emitters.hpp"
#include "sim/experiment.hpp"
#include "util/arg_parse.hpp"
#include "util/histogram.hpp"
#include "util/rng.hpp"

namespace {

using namespace ncb;
using Clock = std::chrono::steady_clock;

// The load shape of every run: 2 connections (one thread each, so with the
// server's reactor and flusher threads the host's 4 CPUs are busy), 32
// requests in flight per connection in the closed loop (so the server, not
// the generator, is the bottleneck) and 1024 user keys. The arm means come
// from the serving instance: an ER relation graph with p = 0.001, as
// run.py launches ncb_serve with.
constexpr std::size_t kConnections = 2;
constexpr std::uint64_t kPipeline = 32;
constexpr std::size_t kKeys = 1024;
constexpr double kEdgeProbability = 0.001;
constexpr double kWindowSeconds = 0.1;         ///< Closed-loop throughput window.
constexpr double kLatencyWindowSeconds = 1.0;  ///< Open-loop latency window.

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
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
    throw std::runtime_error("connect '" + path + "': " + std::strerror(saved));
  }
  return fd;
}

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

/// Server CPU (utime + stime, all threads) in seconds, from /proc/<pid>/stat.
double process_cpu_seconds(long pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name; utime/stime are fields
  // 14 and 15 overall, i.e. the 12th and 13th after the state field.
  const std::size_t close = text.rfind(')');
  if (close == std::string::npos) {
    throw std::runtime_error("cannot read /proc/" + std::to_string(pid) +
                             "/stat");
  }
  std::istringstream fields(text.substr(close + 2));
  std::string field;
  double ticks = 0.0;
  for (int i = 1; i <= 13 && fields >> field; ++i) {
    if (i == 12 || i == 13) ticks += std::stod(field);
  }
  return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

/// One connection: its socket, frame assembler, deferred feedback, and the
/// scheduled send time of every request in flight (the server answers a
/// connection's requests in order, so replies match FIFO).
struct Connection {
  int fd = -1;
  std::size_t index = 0;
  dist::FrameDecoder decoder;
  std::string outbox;
  std::deque<std::pair<std::uint64_t, std::int64_t>> in_flight;
  std::uint64_t next_request = 0;
  Xoshiro256 rng;
  std::uint64_t sent = 0;
};

struct PhaseResult {
  std::uint64_t replies = 0;
  std::vector<std::uint64_t> window_counts;
  LatencyHistogram latency;
  /// Open-loop latency per window of scheduled send time.
  std::vector<LatencyHistogram> latency_windows;
  LatencyHistogram lag;
};

class Generator {
 public:
  Generator(std::vector<double> means, std::vector<std::string> keys)
      : means_(std::move(means)), keys_(std::move(keys)) {}

  /// Queues one DecideRequest scheduled at `scheduled_ns` on `conn`.
  void queue_request(Connection& conn, std::int64_t scheduled_ns) {
    dist::DecideRequestMsg request;
    request.request_id =
        (static_cast<std::uint64_t>(conn.index) << 40) | conn.next_request++;
    request.slot = request.request_id;
    request.user_key = keys_[conn.rng.uniform_int(keys_.size())];
    dist::append_frame(conn.outbox, dist::MsgType::kDecideRequest,
                       dist::encode_decide_request(request));
    conn.in_flight.emplace_back(request.request_id, scheduled_ns);
    ++conn.sent;
  }

  /// Reads whatever the socket holds (waiting at most `timeout_ns`, -1 =
  /// until readable), validates each reply, and queues its feedback.
  /// Returns the scheduled send times of the answered requests.
  void receive(Connection& conn, std::int64_t timeout_ns,
               std::vector<std::int64_t>& answered) {
    answered.clear();
    pollfd pfd{conn.fd, POLLIN, 0};
    timespec ts{};
    timespec* tsp = nullptr;
    if (timeout_ns >= 0) {
      ts.tv_sec = static_cast<time_t>(timeout_ns / 1000000000);
      ts.tv_nsec = static_cast<long>(timeout_ns % 1000000000);
      tsp = &ts;
    }
    const int ready = ::ppoll(&pfd, 1, tsp, nullptr);
    if (ready < 0) {
      if (errno == EINTR) return;
      throw std::runtime_error(std::string("ppoll: ") + std::strerror(errno));
    }
    if (ready == 0) return;
    char buf[64 * 1024];
    for (;;) {
      const ssize_t n = ::recv(conn.fd, buf, sizeof buf, MSG_DONTWAIT);
      if (n > 0) {
        conn.decoder.feed(buf, static_cast<std::size_t>(n));
        if (static_cast<std::size_t>(n) < sizeof buf) break;
        continue;
      }
      if (n == 0) throw std::runtime_error("server closed the connection");
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      throw std::runtime_error(std::string("recv: ") + std::strerror(errno));
    }
    while (auto frame = conn.decoder.next()) {
      if (frame->type != dist::MsgType::kDecideReply) {
        throw std::runtime_error("expected a DecideReply, got " +
                                 std::string(dist::frame_type_name(frame->type)));
      }
      const dist::DecideReplyMsg reply =
          dist::decode_decide_reply(frame->payload);
      if (conn.in_flight.empty() ||
          reply.request_id != conn.in_flight.front().first) {
        throw std::runtime_error("DecideReply out of order");
      }
      if (reply.action >= means_.size() || !(reply.propensity > 0.0) ||
          reply.propensity > 1.0) {
        throw std::runtime_error("DecideReply with an invalid action or "
                                 "propensity");
      }
      answered.push_back(conn.in_flight.front().second);
      conn.in_flight.pop_front();
      dist::FeedbackMsg feedback;
      feedback.decision_id = reply.decision_id;
      const double mean = means_[reply.action];
      feedback.reward =
          std::min(1.0, std::max(0.0, mean + (conn.rng.uniform() - 0.5) * 0.2));
      dist::append_frame(conn.outbox, dist::MsgType::kFeedback,
                         dist::encode_feedback(feedback));
    }
  }

  /// Closed loop on one connection: keeps `pipeline` requests in flight
  /// until the deadline passes or the shared `budget` (when non-null) runs
  /// out, then drains. Replies are counted per window from `start_ns`.
  void closed_loop(Connection& conn, std::int64_t start_ns,
                   std::int64_t deadline_ns, std::atomic<std::int64_t>* budget,
                   std::uint64_t pipeline, PhaseResult& result) {
    std::vector<std::int64_t> answered;
    bool sending = true;
    const auto window_ns = static_cast<std::int64_t>(kWindowSeconds * 1e9);
    for (;;) {
      if (sending) {
        const std::int64_t now = now_ns();
        while (conn.in_flight.size() < pipeline) {
          if (budget != nullptr ? budget->fetch_sub(1) <= 0
                                : now >= deadline_ns) {
            sending = false;
            break;
          }
          queue_request(conn, now);
        }
      }
      if (!conn.outbox.empty()) {
        send_all(conn.fd, conn.outbox);
        conn.outbox.clear();
      }
      if (!sending && conn.in_flight.empty()) break;
      receive(conn, -1, answered);
      if (answered.empty()) continue;
      const std::int64_t now = now_ns();
      result.replies += answered.size();
      if (budget == nullptr && now < deadline_ns) {
        const auto window = static_cast<std::size_t>((now - start_ns) / window_ns);
        if (result.window_counts.size() <= window) {
          result.window_counts.resize(window + 1, 0);
        }
        result.window_counts[window] += answered.size();
      }
    }
    if (!conn.outbox.empty()) {
      send_all(conn.fd, conn.outbox);
      conn.outbox.clear();
    }
  }

  /// Open loop on one connection: Poisson arrivals at `rate` per second
  /// from `start_ns` until the deadline, then drains the replies.
  void open_loop(Connection& conn, double rate, std::int64_t start_ns,
                 std::int64_t deadline_ns, PhaseResult& result) {
    std::vector<std::int64_t> answered;
    const double mean_gap_ns = 1e9 / rate;
    const auto window_ns =
        static_cast<std::int64_t>(kLatencyWindowSeconds * 1e9);
    auto next_gap = [&] {
      return static_cast<std::int64_t>(-std::log(1.0 - conn.rng.uniform()) *
                                        mean_gap_ns);
    };
    std::int64_t scheduled = start_ns + next_gap();
    for (;;) {
      std::int64_t now = now_ns();
      while (scheduled <= now && scheduled < deadline_ns) {
        queue_request(conn, scheduled);
        result.lag.record(static_cast<std::uint64_t>(now - scheduled));
        scheduled += next_gap();
      }
      if (!conn.outbox.empty()) {
        send_all(conn.fd, conn.outbox);
        conn.outbox.clear();
      }
      const bool sending = scheduled < deadline_ns;
      if (!sending && conn.in_flight.empty()) break;
      now = now_ns();
      const std::int64_t timeout =
          sending ? std::max<std::int64_t>(0, scheduled - now) : -1;
      receive(conn, timeout, answered);
      if (answered.empty()) continue;
      now = now_ns();
      for (const std::int64_t sent_at : answered) {
        const auto latency = static_cast<std::uint64_t>(now - sent_at);
        result.latency.record(latency);
        const auto window =
            static_cast<std::size_t>((sent_at - start_ns) / window_ns);
        if (result.latency_windows.size() <= window) {
          result.latency_windows.resize(window + 1);
        }
        result.latency_windows[window].record(latency);
      }
      result.replies += answered.size();
    }
    if (!conn.outbox.empty()) {
      send_all(conn.fd, conn.outbox);
      conn.outbox.clear();
    }
  }

 private:
  std::vector<double> means_;
  std::vector<std::string> keys_;
};

/// Runs `body(conn, result)` on one thread per connection and merges the
/// per-connection results; rethrows the first failure.
template <typename Body>
PhaseResult run_phase(std::vector<Connection>& conns, Body body) {
  std::vector<PhaseResult> results(conns.size());
  std::vector<std::thread> threads;
  std::mutex error_mutex;
  std::string first_error;
  for (std::size_t c = 0; c < conns.size(); ++c) {
    threads.emplace_back([&, c] {
      // 1 ns timer slack: ppoll wakes at the scheduled send time instead of
      // up to the default 50 us later, which would count as generator lag.
      ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
      try {
        body(conns[c], results[c]);
      } catch (const std::exception& e) {
        const std::lock_guard<std::mutex> guard(error_mutex);
        if (first_error.empty()) first_error = e.what();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  if (!first_error.empty()) throw std::runtime_error(first_error);
  PhaseResult merged;
  for (const PhaseResult& r : results) {
    merged.replies += r.replies;
    merged.latency.merge(r.latency);
    merged.lag.merge(r.lag);
    if (merged.latency_windows.size() < r.latency_windows.size()) {
      merged.latency_windows.resize(r.latency_windows.size());
    }
    for (std::size_t w = 0; w < r.latency_windows.size(); ++w) {
      merged.latency_windows[w].merge(r.latency_windows[w]);
    }
    if (merged.window_counts.size() < r.window_counts.size()) {
      merged.window_counts.resize(r.window_counts.size(), 0);
    }
    for (std::size_t w = 0; w < r.window_counts.size(); ++w) {
      merged.window_counts[w] += r.window_counts[w];
    }
  }
  return merged;
}

std::string scrape_stats(int fd) {
  std::string out;
  dist::append_frame(out, dist::MsgType::kStatsRequest, "");
  send_all(fd, out);
  const auto frame = dist::read_frame(fd);
  if (!frame || frame->type != dist::MsgType::kStatsReply) {
    throw std::runtime_error("expected a StatsReply");
  }
  const dist::StatsReplyMsg reply = dist::decode_stats_reply(frame->payload);
  std::string json = "{";
  for (std::size_t i = 0; i < reply.entries.size(); ++i) {
    const dist::StatsEntry& entry = reply.entries[i];
    const std::string value =
        entry.kind == dist::StatsEntry::kGauge
            ? std::to_string(static_cast<std::int64_t>(entry.value))
            : std::to_string(entry.value);
    json += (i ? ", \"" : "\"") + exp::json_escape(entry.name) + "\": " + value;
  }
  return json + "}";
}

std::string histogram_json(const LatencyHistogram& h) {
  const auto us = [](std::uint64_t ns) {
    return exp::json_number(static_cast<double>(ns) / 1e3);
  };
  return "{\"count\": " + std::to_string(h.count()) + ", \"p50_us\": " +
         us(h.p50()) + ", \"p99_us\": " + us(h.p99()) + ", \"p999_us\": " +
         us(h.p999()) + ", \"max_us\": " + us(h.max()) + "}";
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const ArgParse args(argc, argv);
    const std::string socket_path = args.get_string("socket", "");
    const long server_pid = static_cast<long>(args.get_int("server-pid", 0));
    if (socket_path.empty() ||
        (server_pid <= 0 && !args.get_bool("probe", false))) {
      std::cerr << "usage: " << args.program()
                << " --socket P (--probe | --server-pid N --arms K --seed S"
                   " [--warmup N] [--closed-seconds X]"
                   " [--open-seconds Y --rate R])\n";
      return 2;
    }
    if (args.get_bool("probe", false)) {
      // Set-up probe: retry until the freshly launched server listens, then
      // report the steady_clock (CLOCK_MONOTONIC) time of its HelloAck.
      const std::int64_t give_up = now_ns() + 60'000'000'000;
      int fd = -1;
      while (fd < 0) {
        try {
          fd = connect_unix(socket_path);
        } catch (const std::runtime_error&) {
          if (now_ns() > give_up) throw;
          ::usleep(100);
        }
      }
      dist::HelloMsg hello;
      hello.schema = dist::kServeWireSchema;
      dist::write_frame(fd, dist::MsgType::kHello, dist::encode_hello(hello));
      const auto ack = dist::read_frame(fd);
      const std::int64_t acked = now_ns();
      ::close(fd);
      if (!ack || ack->type != dist::MsgType::kHelloAck) {
        throw std::runtime_error("server rejected the handshake");
      }
      dist::decode_hello_ack(ack->payload);
      std::cout << "{\"hello_ack_ns\": " << acked << "}" << std::endl;
      return 0;
    }

    ExperimentConfig config;
    config.num_arms = static_cast<std::size_t>(args.get_int("arms", 100));
    config.edge_probability = kEdgeProbability;
    config.seed = static_cast<std::uint64_t>(args.get_int("seed", 20170605));
    const std::uint64_t seed = config.seed;
    const std::int64_t warmup = args.get_int("warmup", 0);
    const double closed_seconds = args.get_double("closed-seconds", 0.0);
    const double open_seconds = args.get_double("open-seconds", 0.0);
    const double rate = args.get_double("rate", 0.0);
    if (open_seconds > 0.0 && !(rate > 0.0)) {
      throw std::invalid_argument("--open-seconds needs a positive --rate");
    }

    std::vector<std::string> keys;
    for (std::size_t k = 0; k < kKeys; ++k) {
      keys.push_back("user-" + std::to_string(k));
    }
    Generator generator(build_instance(config).means(), std::move(keys));

    std::vector<Connection> conns(kConnections);
    for (std::size_t c = 0; c < kConnections; ++c) {
      Connection& conn = conns[c];
      conn.index = c;
      conn.rng = Xoshiro256(derive_seed_at(seed ^ 0x6c6f616467656eULL, c));
      conn.fd = connect_unix(socket_path);
      dist::HelloMsg hello;
      hello.schema = dist::kServeWireSchema;
      dist::write_frame(conn.fd, dist::MsgType::kHello,
                        dist::encode_hello(hello));
      const auto ack = dist::read_frame(conn.fd);
      if (!ack || ack->type != dist::MsgType::kHelloAck) {
        throw std::runtime_error("server rejected the handshake");
      }
      dist::decode_hello_ack(ack->payload);
    }

    std::string json = "{";
    if (warmup > 0) {
      // One request in flight, so each unvisited arm is chosen once and
      // observed before the next decision: the warm-up ends past the O(1)
      // unvisited-arm phase instead of stretching it by the pipeline depth.
      std::atomic<std::int64_t> budget{warmup};
      PhaseResult warm;
      generator.closed_loop(conns.front(), now_ns(), 0, &budget, 1, warm);
      json += "\"warmup\": " + std::to_string(warm.replies) + ", ";
    }
    if (closed_seconds > 0.0) {
      const double cpu_before = process_cpu_seconds(server_pid);
      const std::int64_t start = now_ns();
      const auto deadline = start + static_cast<std::int64_t>(closed_seconds * 1e9);
      const PhaseResult closed =
          run_phase(conns, [&](Connection& conn, PhaseResult& result) {
            generator.closed_loop(conn, start, deadline, nullptr, kPipeline,
                                  result);
          });
      const double seconds = static_cast<double>(now_ns() - start) / 1e9;
      const double cpu = process_cpu_seconds(server_pid) - cpu_before;
      // Only whole windows inside the deadline count toward window rates.
      const auto whole = static_cast<std::size_t>(closed_seconds / kWindowSeconds);
      std::string windows;
      for (std::size_t w = 0; w < std::min(whole, closed.window_counts.size()); ++w) {
        windows += (w ? ", " : "") + std::to_string(closed.window_counts[w]);
      }
      json += "\"closed\": {\"decisions\": " + std::to_string(closed.replies) +
              ", \"seconds\": " + exp::json_number(seconds) +
              ", \"server_cpu_s\": " + exp::json_number(cpu) +
              ", \"window_s\": " + exp::json_number(kWindowSeconds) +
              ", \"window_counts\": [" + windows + "]}, ";
    }
    if (open_seconds > 0.0) {
      const std::int64_t start = now_ns();
      const auto deadline = start + static_cast<std::int64_t>(open_seconds * 1e9);
      const double per_connection = rate / static_cast<double>(kConnections);
      const PhaseResult open =
          run_phase(conns, [&](Connection& conn, PhaseResult& result) {
            generator.open_loop(conn, per_connection, start, deadline, result);
          });
      std::string windows;
      for (std::size_t w = 0; w < open.latency_windows.size(); ++w) {
        windows += (w ? ", " : "") + histogram_json(open.latency_windows[w]);
      }
      json += "\"open\": {\"requests\": " + std::to_string(open.replies) +
              ", \"rate\": " + exp::json_number(rate) +
              ", \"seconds\": " + exp::json_number(open_seconds) +
              ", \"latency\": " + histogram_json(open.latency) +
              ", \"latency_windows\": [" + windows + "]" +
              ", \"lag\": " + histogram_json(open.lag) + "}, ";
    }
    json += "\"stats\": " + scrape_stats(conns.front().fd) + ", ";
    std::uint64_t total = 0;
    for (const Connection& conn : conns) {
      total += conn.sent;
      ::close(conn.fd);
    }
    json += "\"requests\": " + std::to_string(total) + "}";
    std::cout << json << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << (argc > 0 ? argv[0] : "pb_loadgen") << ": error: " << e.what()
              << '\n';
    return 2;
  }
}
