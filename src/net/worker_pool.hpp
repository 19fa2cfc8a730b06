// The one crash-requeue task farm. Sweep dispatch (dist/coordinator) and
// distributed replay (replay/dispatch) both hand it a list of tasks and
// three callbacks; everything between "tasks in" and "every task accepted
// once" lives here:
//
//   - the fleet: peers spawned or accepted via a StreamTransport, kept at
//     min(workers, queued + in flight) on a spawning transport;
//   - handshake-gated admission (Hello → WorkerInfo → HelloAck), then the
//     caller's optional preamble frames, sent verbatim to each new worker;
//   - demand-driven dispatch: an idle worker gets the queue front, encoded
//     by the caller for that task and attempt;
//   - crash requeue: a worker lost mid-task puts the task back at the queue
//     FRONT with attempt + 1; a task that loses kMaxAttempts workers aborts
//     the run, since the crash is then the task's fault;
//   - an idle worker stays alive while any task is in flight (a crash would
//     requeue onto it) and is shut down once nothing is queued or running;
//   - the optional stop predicate: no new assignments, in-flight tasks
//     drain, the rest are reported pending;
//   - WorkerError frames and unexpected frame types abort the run.
//
// Admission is gated on a complete handshake: a connecting peer is not a
// worker until its Hello validates (magic, protocol version, application
// schema) AND it has identified itself with a WorkerInfo frame. Anything
// that dies, hangs up, or speaks the wrong schema before that point is
// dropped and counted against a bounded admission budget (a respawn round,
// workers + 2, on a spawning transport; 32 on an accept transport) — a
// port-scanner or a stale worker build cannot take down the run, but an
// endless stream of them cannot spin it forever either.
//
// Retried tasks must be pure functions of their encoding (sweep shards carry
// their seed coordinates, replay candidates the shipped stream), so which
// worker ran a task, and how often it was retried, never shows in output.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "dist/protocol.hpp"
#include "net/transport.hpp"
#include "obs/metrics.hpp"
#include "util/timer.hpp"

namespace ncb::net {

/// End-of-run per-worker accounting for the coordinator summary lines.
struct WorkerSummary {
  std::size_t id = 0;
  std::string where;
  std::string host;
  std::uint64_t remote_pid = 0;
  std::size_t tasks_done = 0;  ///< Sweep shards or replay candidates.
  bool lost = false;
  bool lost_in_flight = false;
  double seconds = 0.0;  ///< Admission → release (or → now if live).
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
};

class WorkerPool {
 public:
  /// A task that loses this many workers aborts the run.
  static constexpr std::uint32_t kMaxAttempts = 3;

  struct Options {
    StreamTransport* transport = nullptr;
    /// Application schema word workers must present in their Hello.
    std::uint32_t expected_schema = 0;
    /// Fleet size on a spawning transport (capped at the task count);
    /// ignored on an accept transport, where the fleet is whoever connects.
    std::size_t workers = 2;
    /// Registry mirroring fleet health (dist.workers.*, dist.bytes.*,
    /// dist.worker.<id>.*); nullptr → obs::MetricsRegistry::global().
    obs::MetricsRegistry* metrics = nullptr;
  };

  /// One run's tasks and the caller's three callbacks.
  struct Farm {
    /// One label per task index (job key, candidate spec): names the task
    /// in errors and is what a worker's crash injection matches.
    std::vector<std::string> labels;
    /// Task indices to run, in dispatch order.
    std::deque<std::size_t> queue;
    /// Registry stem: `<stem>.queued` gauge and `<stem>.requeued` counter.
    std::string metric_stem;
    /// The frame type a worker answers an assignment with.
    dist::MsgType result_type = dist::MsgType::kJobResult;
    /// Frames sent to every worker on admission, before its first task.
    std::vector<dist::Frame> preamble;
    /// Encodes task `task` at 1-based attempt `attempt`.
    std::function<dist::Frame(std::size_t task, std::uint32_t attempt)>
        encode;
    /// Consumes a result frame from worker `worker_id` holding a task at
    /// `attempt`; returns the task index it completes. Anything but the
    /// worker's own assignment aborts the run.
    std::function<std::size_t(const dist::Frame& frame, std::size_t worker_id,
                              std::uint32_t attempt)>
        accept;
    /// Cooperative stop (e.g. a SIGINT flag); may be empty.
    std::function<bool()> should_stop;
  };

  struct Outcome {
    std::size_t requeues = 0;   ///< Crash requeues before any stop.
    std::size_t pending = 0;    ///< Tasks left unrun by a stop.
    bool interrupted = false;   ///< should_stop fired.
    /// Per-worker accounting in admission order (admitted workers only).
    std::vector<WorkerSummary> workers;
  };

  explicit WorkerPool(const Options& options);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Runs every queued task to an accepted result (or until should_stop
  /// drains the fleet) and returns once every worker is released; a pool
  /// runs one farm. Throws
  /// std::runtime_error on a WorkerError, a protocol violation, a task
  /// exhausting kMaxAttempts, or an exhausted admission budget; every peer
  /// is released (spawned ones killed and reaped) when the pool dies.
  [[nodiscard]] Outcome run(Farm farm);

 private:
  struct Worker {
    Peer peer;
    dist::FrameDecoder decoder;
    std::size_t id = 0;       ///< Stable admission-order id (display).
    std::string host;         ///< Self-reported hostname (WorkerInfo).
    std::uint64_t remote_pid = 0;
    bool hello_seen = false;
    bool admitted = false;
    bool shutdown_sent = false;
    std::ptrdiff_t task = -1;  ///< Task held, or -1 when idle.
    std::size_t tasks_done = 0;
    std::uint64_t bytes_in = 0;
    std::uint64_t bytes_out = 0;
    double admitted_seconds = 0.0;  ///< Pool clock at admission.
    double released_seconds = 0.0;  ///< Pool clock at release (0 = live).
    bool lost = false;              ///< Released uncleanly.
    bool lost_in_flight = false;    ///< Lost while holding a task.
    // Per-worker registry gauges (dist.worker.<id>.*), resolved at
    // admission and refreshed every poll turn; null until admitted.
    obs::Gauge* g_tasks_done = nullptr;
    obs::Gauge* g_bytes_in = nullptr;
    obs::Gauge* g_bytes_out = nullptr;
    obs::Gauge* g_uptime_ms = nullptr;
  };

  void track(Peer peer);
  void spawn(std::size_t count);
  void poll_once(int timeout_ms);
  void read_ready(Worker& worker);
  void handle_handshake_frame(Worker& worker, const dist::Frame& frame);
  void handle_result_frame(Worker& worker, const dist::Frame& frame);
  void send(Worker& worker, dist::MsgType type, const std::string& payload);
  void send_shutdown(Worker& worker);
  void dispatch(Worker& worker);
  void requeue(std::size_t task);
  void reject_peer(Worker& worker, const std::string& why);
  void worker_released(Worker& worker);
  void charge_rejection(const std::string& why);
  void update_worker_gauges(Worker& worker);
  [[nodiscard]] bool stopping();
  [[nodiscard]] std::size_t in_flight() const;
  [[nodiscard]] std::vector<WorkerSummary> summaries() const;

  StreamTransport* transport_;
  Options options_;
  std::size_t max_rejections_;
  std::deque<Worker> workers_;  ///< Deque: references stay valid.
  Timer clock_;
  std::size_t live_ = 0;
  std::size_t next_id_ = 0;
  std::size_t rejections_ = 0;

  // The run in progress.
  Farm farm_;
  std::vector<std::uint32_t> attempts_;  ///< Lost attempts per task.
  Outcome outcome_;
  bool stopping_ = false;

  // Registry mirrors (fleet ones resolved in the constructor, the task
  // queue's once per run).
  obs::MetricsRegistry& registry_;
  obs::Counter& m_admitted_;
  obs::Counter& m_lost_;
  obs::Counter& m_rejected_;
  obs::Gauge& m_active_;
  obs::Counter& m_bytes_in_;
  obs::Counter& m_bytes_out_;
  obs::Gauge* m_queued_ = nullptr;
  obs::Counter* m_requeued_ = nullptr;
};

}  // namespace ncb::net
