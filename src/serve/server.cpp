#include "serve/server.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "dist/protocol.hpp"
#include "exp/emitters.hpp"
#include "obs/scoped_timer.hpp"

namespace ncb::serve {

namespace {

using Clock = std::chrono::steady_clock;

struct Conn {
  int fd = -1;
  dist::FrameDecoder decoder;
  std::string outbuf;      ///< Framed replies awaiting the socket.
  std::size_t sent = 0;    ///< Prefix of outbuf already written.
  bool handshaken = false;
};

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    throw std::runtime_error(std::string("serve: fcntl(O_NONBLOCK): ") +
                             std::strerror(errno));
  }
}

int listen_unix(const std::string& path, int backlog) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) {
    throw std::runtime_error("serve: socket path too long for AF_UNIX (" +
                             std::to_string(path.size()) + " bytes, max " +
                             std::to_string(sizeof addr.sun_path - 1) + ")");
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    throw std::runtime_error(std::string("serve: socket: ") +
                             std::strerror(errno));
  }
  ::unlink(path.c_str());  // a stale socket file from a dead server
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0) {
    const int saved = errno;
    ::close(fd);
    throw std::runtime_error("serve: bind '" + path +
                             "': " + std::strerror(saved));
  }
  if (::listen(fd, backlog) < 0) {
    const int saved = errno;
    ::close(fd);
    ::unlink(path.c_str());
    throw std::runtime_error(std::string("serve: listen: ") +
                             std::strerror(saved));
  }
  set_nonblocking(fd);
  return fd;
}

class Reactor {
 public:
  Reactor(DecisionEngine& engine, const ServerOptions& options)
      : engine_(engine),
        options_(options),
        registry_(options.metrics != nullptr ? *options.metrics
                                             : obs::MetricsRegistry::global()),
        m_connections_(registry_.counter("serve.connections.accepted")),
        m_active_conns_(registry_.gauge("serve.connections.active")),
        m_decides_(registry_.counter("serve.decide.requests")),
        m_feedbacks_(registry_.counter("serve.feedback.frames")),
        m_protocol_errors_(registry_.counter("serve.protocol.errors")),
        m_stats_requests_(registry_.counter("serve.stats.requests")),
        m_decide_latency_(registry_.histogram("serve.decide.latency_us")),
        m_feedback_latency_(registry_.histogram("serve.feedback.latency_us")) {
    listen_fd_ = listen_unix(options_.socket_path, options_.backlog);
  }

  ~Reactor() {
    for (Conn& conn : conns_) {
      if (conn.fd >= 0) {
        ::close(conn.fd);
        m_active_conns_.add(-1);  // drained-away clients: keep the gauge true
      }
    }
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      ::unlink(options_.socket_path.c_str());
    }
  }

  void run() {
    bool draining = false;
    Clock::time_point drain_deadline{};
    const bool periodic_metrics =
        !options_.metrics_out.empty() && options_.metrics_interval_ms > 0;
    Clock::time_point next_metrics =
        Clock::now() + std::chrono::milliseconds(options_.metrics_interval_ms);
    while (true) {
      if (!draining && options_.should_stop && options_.should_stop()) {
        draining = true;
        drain_deadline =
            Clock::now() + std::chrono::milliseconds(options_.drain_ms);
        ::close(listen_fd_);
        ::unlink(options_.socket_path.c_str());
        listen_fd_ = -1;
      }
      if (draining &&
          (conns_.empty() || Clock::now() >= drain_deadline)) {
        break;
      }
      int timeout_ms = draining ? remaining_ms(drain_deadline) : 200;
      if (periodic_metrics) {
        if (Clock::now() >= next_metrics) {
          write_metrics_snapshot();
          next_metrics =
              Clock::now() +
              std::chrono::milliseconds(options_.metrics_interval_ms);
        }
        timeout_ms = std::min(timeout_ms, remaining_ms(next_metrics));
      }
      poll_once(timeout_ms);
    }
    // Final snapshot: the post-drain totals a dashboard scrapes after the
    // server is gone.
    if (!options_.metrics_out.empty()) write_metrics_snapshot();
  }

 private:
  static int remaining_ms(Clock::time_point deadline) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    return static_cast<int>(std::max<std::int64_t>(0, left.count()));
  }

  void poll_once(int timeout_ms) {
    fds_.clear();
    owners_.clear();
    if (listen_fd_ >= 0) {
      fds_.push_back(pollfd{listen_fd_, POLLIN, 0});
      owners_.push_back(SIZE_MAX);
    }
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      short events = POLLIN;
      if (conns_[i].sent < conns_[i].outbuf.size()) events |= POLLOUT;
      fds_.push_back(pollfd{conns_[i].fd, events, 0});
      owners_.push_back(i);
    }
    if (fds_.empty()) return;

    const int ready = ::poll(fds_.data(), fds_.size(), timeout_ms);
    if (ready < 0) {
      if (errno == EINTR) return;  // signal → should_stop check next round
      throw std::runtime_error(std::string("serve: poll: ") +
                               std::strerror(errno));
    }
    for (std::size_t i = 0; i < fds_.size(); ++i) {
      if (fds_[i].revents == 0) continue;
      if (owners_[i] == SIZE_MAX) {
        accept_ready();
        continue;
      }
      Conn& conn = conns_[owners_[i]];
      if (conn.fd < 0) continue;
      if ((fds_[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        read_ready(conn);
      }
      if (conn.fd >= 0 && (fds_[i].revents & POLLOUT) != 0) {
        write_ready(conn);
      }
    }
    reap_closed();
  }

  void accept_ready() {
    while (true) {
      const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                               SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
        if (errno == ECONNABORTED) continue;  // client gave up mid-accept
        throw std::runtime_error(std::string("serve: accept: ") +
                                 std::strerror(errno));
      }
      Conn conn;
      conn.fd = fd;
      conns_.push_back(std::move(conn));
      m_connections_.inc();
      m_active_conns_.add(1);
    }
  }

  void read_ready(Conn& conn) {
    while (conn.fd >= 0) {
      char buf[65536];
      const ssize_t n = ::recv(conn.fd, buf, sizeof buf, 0);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        if (errno == EINTR) continue;
        drop(conn, nullptr);  // reset by peer: a departure, not a violation
        return;
      }
      if (n == 0) {
        drop(conn, nullptr);  // clean EOF
        return;
      }
      try {
        conn.decoder.feed(buf, static_cast<std::size_t>(n));
        while (conn.fd >= 0) {
          const auto frame = conn.decoder.next();
          if (!frame) break;
          handle_frame(conn, *frame);
        }
      } catch (const std::invalid_argument& e) {
        drop(conn, e.what());  // oversized/unknown frame: stream is garbage
        return;
      }
      if (static_cast<std::size_t>(n) < sizeof buf) break;  // drained
    }
    // Push replies out eagerly instead of waiting one poll round for
    // POLLOUT — with closed-loop clients this halves per-request latency.
    if (conn.fd >= 0) write_ready(conn);
  }

  void handle_frame(Conn& conn, const dist::Frame& frame) {
    if (!conn.handshaken) {
      if (frame.type != dist::MsgType::kHello) {
        drop(conn, ("expected Hello, got " +
                    std::string(dist::frame_type_name(frame.type)))
                       .c_str());
        return;
      }
      const dist::HelloMsg hello = dist::decode_hello(frame.payload);
      const auto mismatch = dist::validate_hello(hello, dist::kServeWireSchema);
      if (mismatch) {
        drop(conn, mismatch->c_str());
        return;
      }
      conn.handshaken = true;
      dist::append_frame(conn.outbuf, dist::MsgType::kHelloAck,
                         dist::encode_hello_ack());
      return;
    }
    switch (frame.type) {
      case dist::MsgType::kDecideRequest: {
        const obs::ScopedTimer timer(m_decide_latency_);
        const dist::DecideRequestMsg request =
            dist::decode_decide_request(frame.payload);
        const Decision decision = engine_.decide(request.user_key, request.slot);
        dist::DecideReplyMsg reply;
        reply.request_id = request.request_id;
        reply.slot = request.slot;
        reply.decision_id = decision.decision_id;
        reply.action = static_cast<std::uint32_t>(decision.action);
        reply.propensity = decision.propensity;
        dist::append_frame(conn.outbuf, dist::MsgType::kDecideReply,
                           dist::encode_decide_reply(reply));
        m_decides_.inc();
        return;
      }
      case dist::MsgType::kFeedback: {
        const obs::ScopedTimer timer(m_feedback_latency_);
        const dist::FeedbackMsg feedback =
            dist::decode_feedback(frame.payload);
        engine_.report(feedback.decision_id, feedback.reward);
        m_feedbacks_.inc();
        return;
      }
      case dist::MsgType::kStatsRequest: {
        // Metrics poll: reply from the registry alone — no engine call, no
        // log write, so polling mid-run cannot perturb serving.
        if (!frame.payload.empty()) {
          drop(conn, "StatsRequest with a payload");
          return;
        }
        m_stats_requests_.inc();
        dist::StatsReplyMsg reply;
        for (const obs::StatEntry& entry : registry_.snapshot().flatten()) {
          reply.entries.push_back({entry.kind, entry.name, entry.value});
        }
        dist::append_frame(conn.outbuf, dist::MsgType::kStatsReply,
                           dist::encode_stats_reply(reply));
        return;
      }
      default:
        drop(conn, ("unexpected " +
                    std::string(dist::frame_type_name(frame.type)) +
                    " frame from a serve client")
                       .c_str());
    }
  }

  void write_ready(Conn& conn) {
    while (conn.sent < conn.outbuf.size()) {
      const ssize_t n =
          ::send(conn.fd, conn.outbuf.data() + conn.sent,
                 conn.outbuf.size() - conn.sent, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        if (errno == EINTR) continue;
        drop(conn, nullptr);  // EPIPE/ECONNRESET: the client vanished
        return;
      }
      conn.sent += static_cast<std::size_t>(n);
    }
    conn.outbuf.clear();
    conn.sent = 0;
  }

  /// Closes the connection; a non-null reason is a protocol violation
  /// (counted and logged), null is a normal departure.
  void drop(Conn& conn, const char* reason) {
    if (reason != nullptr) {
      m_protocol_errors_.inc();
      std::fprintf(stderr, "serve: dropping client: %s\n", reason);
    }
    ::close(conn.fd);
    conn.fd = -1;
    m_active_conns_.add(-1);
    need_reap_ = true;
  }

  void write_metrics_snapshot() noexcept {
    try {
      exp::write_file(options_.metrics_out,
                      registry_.snapshot().render_json());
    } catch (const std::exception& e) {
      // A bad snapshot path must not take down serving; say so once.
      if (!metrics_write_warned_) {
        metrics_write_warned_ = true;
        std::fprintf(stderr, "serve: metrics snapshot failed: %s\n", e.what());
      }
    }
  }

  void reap_closed() {
    if (!need_reap_) return;
    need_reap_ = false;
    std::size_t kept = 0;
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      if (conns_[i].fd < 0) continue;
      if (kept != i) conns_[kept] = std::move(conns_[i]);
      ++kept;
    }
    conns_.resize(kept);
  }

  DecisionEngine& engine_;
  const ServerOptions& options_;
  obs::MetricsRegistry& registry_;
  obs::Counter& m_connections_;
  obs::Gauge& m_active_conns_;
  obs::Counter& m_decides_;
  obs::Counter& m_feedbacks_;
  obs::Counter& m_protocol_errors_;
  obs::Counter& m_stats_requests_;
  obs::Histogram& m_decide_latency_;
  obs::Histogram& m_feedback_latency_;
  int listen_fd_ = -1;
  std::vector<Conn> conns_;
  std::vector<pollfd> fds_;        ///< Reused across rounds (no allocation).
  std::vector<std::size_t> owners_;
  bool need_reap_ = false;
  bool metrics_write_warned_ = false;
};

}  // namespace

void run_server(DecisionEngine& engine, const ServerOptions& options) {
  if (options.socket_path.empty()) {
    throw std::invalid_argument("serve: empty socket path");
  }
  Reactor reactor(engine, options);
  reactor.run();
}

}  // namespace ncb::serve
