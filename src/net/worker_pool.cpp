#include "net/worker_pool.hpp"

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace ncb::net {

namespace {

/// Frame header bytes (u32 length + u8 type) for byte accounting.
constexpr std::uint64_t kFrameOverhead = 5;

/// Admission failures tolerated on an accept transport, where peers are out
/// of our control (a spawning transport tolerates one respawn round).
constexpr std::size_t kAcceptAdmissionBudget = 32;

obs::MetricsRegistry& pool_registry(const WorkerPool::Options& options) {
  return options.metrics != nullptr ? *options.metrics
                                    : obs::MetricsRegistry::global();
}

}  // namespace

WorkerPool::WorkerPool(const Options& options)
    : transport_(options.transport), options_(options),
      registry_(pool_registry(options)),
      m_admitted_(registry_.counter("dist.workers.admitted")),
      m_lost_(registry_.counter("dist.workers.lost")),
      m_rejected_(registry_.counter("dist.workers.rejected")),
      m_active_(registry_.gauge("dist.workers.active")),
      m_bytes_in_(registry_.counter("dist.bytes.in")),
      m_bytes_out_(registry_.counter("dist.bytes.out")) {
  if (transport_ == nullptr) {
    throw std::invalid_argument("WorkerPool: null transport");
  }
  max_rejections_ = transport_->can_spawn() ? options_.workers + 2
                                            : kAcceptAdmissionBudget;
}

WorkerPool::~WorkerPool() {
  for (Worker& worker : workers_) {
    if (worker.peer.fd >= 0) {
      transport_->release_peer(worker.peer);
      --live_;
      if (worker.admitted) m_active_.add(-1);  // keep the gauge true
    }
  }
}

WorkerPool::Outcome WorkerPool::run(Farm farm) {
  farm_ = std::move(farm);
  attempts_.assign(farm_.labels.size(), 0);
  m_queued_ = &registry_.gauge(farm_.metric_stem + ".queued");
  m_requeued_ = &registry_.counter(farm_.metric_stem + ".requeued");
  m_queued_->set(static_cast<std::int64_t>(farm_.queue.size()));

  if (!farm_.queue.empty()) {
    if (transport_->can_spawn()) {
      spawn(std::max<std::size_t>(
          1, std::min(options_.workers, farm_.queue.size())));
    }
    // Run until the fleet drains: on a spawning transport workers exist
    // from the start; on an accept transport the queue holds the loop open
    // while the first worker is still dialing in.
    while (live_ > 0 ||
           (!stopping() && (!farm_.queue.empty() || in_flight() > 0))) {
      poll_once(200);
      if (!stopping() && transport_->can_spawn()) {
        const std::size_t wanted =
            std::min(options_.workers, farm_.queue.size() + in_flight());
        if (live_ < wanted) spawn(wanted - live_);
      }
      // A requeue or a late admission may leave queued work next to idle
      // workers — hand it out every turn, and drain the fleet once nothing
      // is queued or in flight (or a stop fired).
      for (Worker& worker : workers_) dispatch(worker);
    }
  }

  outcome_.pending = farm_.queue.size();
  outcome_.interrupted = stopping_;
  outcome_.workers = summaries();
  return std::move(outcome_);
}

bool WorkerPool::stopping() {
  if (!stopping_ && farm_.should_stop && farm_.should_stop()) stopping_ = true;
  return stopping_;
}

std::size_t WorkerPool::in_flight() const {
  return static_cast<std::size_t>(
      std::count_if(workers_.begin(), workers_.end(), [](const Worker& w) {
        return w.peer.fd >= 0 && w.task >= 0;
      }));
}

void WorkerPool::dispatch(Worker& worker) {
  if (worker.peer.fd < 0 || !worker.admitted || worker.task >= 0 ||
      worker.shutdown_sent) {
    return;
  }
  if (stopping() || (farm_.queue.empty() && in_flight() == 0)) {
    send_shutdown(worker);
    return;
  }
  // Queue momentarily empty but tasks are in flight: stay idle — a crash
  // could requeue one of them, and this worker is where it would land.
  if (farm_.queue.empty()) return;
  const std::size_t task = farm_.queue.front();
  farm_.queue.pop_front();
  m_queued_->set(static_cast<std::int64_t>(farm_.queue.size()));
  worker.task = static_cast<std::ptrdiff_t>(task);
  const dist::Frame frame = farm_.encode(task, attempts_[task] + 1);
  // A failed send releases the worker, which requeues the task.
  send(worker, frame.type, frame.payload);
}

void WorkerPool::requeue(std::size_t task) {
  ++attempts_[task];
  if (!stopping() && attempts_[task] >= kMaxAttempts) {
    throw std::runtime_error("task '" + farm_.labels[task] +
                             "' crashed its worker " +
                             std::to_string(attempts_[task]) +
                             " times — aborting");
  }
  // Front of the queue, same task: the retry recomputes the same bytes, so
  // the output does not depend on the crash at all.
  farm_.queue.push_front(task);
  m_queued_->set(static_cast<std::int64_t>(farm_.queue.size()));
  if (!stopping()) {
    ++outcome_.requeues;
    m_requeued_->inc();
  }
}

void WorkerPool::track(Peer peer) {
  workers_.emplace_back().peer = std::move(peer);
  ++live_;
}

void WorkerPool::spawn(std::size_t count) {
  while (count-- > 0) track(transport_->spawn_peer());
}

void WorkerPool::update_worker_gauges(Worker& worker) {
  if (worker.g_tasks_done == nullptr) return;
  worker.g_tasks_done->set(static_cast<std::int64_t>(worker.tasks_done));
  worker.g_bytes_in->set(static_cast<std::int64_t>(worker.bytes_in));
  worker.g_bytes_out->set(static_cast<std::int64_t>(worker.bytes_out));
  const double end = worker.peer.fd >= 0 ? clock_.elapsed_seconds()
                                         : worker.released_seconds;
  worker.g_uptime_ms->set(
      static_cast<std::int64_t>((end - worker.admitted_seconds) * 1000.0));
}

void WorkerPool::charge_rejection(const std::string& why) {
  m_rejected_.inc();
  if (++rejections_ > max_rejections_) {
    throw std::runtime_error(
        "worker admission failed " + std::to_string(rejections_) +
        " times (budget " + std::to_string(max_rejections_) +
        ") — last: " + why);
  }
}

void WorkerPool::worker_released(Worker& worker) {
  if (worker.peer.fd < 0) return;
  const std::string where = worker.peer.where;
  transport_->release_peer(worker.peer);
  --live_;
  worker.released_seconds = clock_.elapsed_seconds();
  if (worker.admitted) {
    m_active_.add(-1);
    update_worker_gauges(worker);  // freeze the final per-worker figures
  }

  if (worker.shutdown_sent && worker.task < 0) return;  // clean exit
  worker.lost = true;
  if (!worker.admitted) {
    charge_rejection("peer " + where +
                     " disconnected before completing the handshake");
    return;
  }
  m_lost_.inc();
  if (worker.task < 0) return;
  worker.lost_in_flight = true;
  const auto task = static_cast<std::size_t>(worker.task);
  worker.task = -1;
  requeue(task);
}

/// Drops a peer that failed admission on an accept transport, without the
/// loss path (it never held a task).
void WorkerPool::reject_peer(Worker& worker, const std::string& why) {
  const std::string where = worker.peer.where;
  worker.lost = true;
  transport_->release_peer(worker.peer);
  --live_;
  worker.released_seconds = clock_.elapsed_seconds();
  charge_rejection("peer " + where + " " + why);
}

void WorkerPool::send(Worker& worker, dist::MsgType type,
                      const std::string& payload) {
  if (worker.peer.fd < 0) return;
  try {
    dist::write_frame(worker.peer.fd, type, payload);
    worker.bytes_out += kFrameOverhead + payload.size();
    m_bytes_out_.inc(kFrameOverhead + payload.size());
  } catch (const std::exception&) {
    worker_released(worker);
  }
}

void WorkerPool::send_shutdown(Worker& worker) {
  if (worker.shutdown_sent || worker.peer.fd < 0) return;
  worker.shutdown_sent = true;
  send(worker, dist::MsgType::kShutdown, "");
}

void WorkerPool::handle_handshake_frame(Worker& worker,
                                        const dist::Frame& frame) {
  // Pre-admission misbehavior is fatal on a spawn transport (our own
  // binary speaking the wrong schema means a build mismatch — say so) but
  // merely disqualifying on an accept transport (anything can dial a TCP
  // port; drop it and charge the budget).
  std::string reject;
  if (!worker.hello_seen) {
    if (frame.type == dist::MsgType::kHello) {
      const dist::HelloMsg hello = dist::decode_hello(frame.payload);
      const auto mismatch =
          dist::validate_hello(hello, options_.expected_schema);
      if (!mismatch) {
        worker.hello_seen = true;
        return;
      }
      reject = *mismatch;
    } else {
      reject = "expected Hello, got " +
               std::string(dist::frame_type_name(frame.type));
    }
  } else if (frame.type == dist::MsgType::kWorkerInfo) {
    const dist::WorkerInfoMsg info = dist::decode_worker_info(frame.payload);
    worker.host = info.host;
    worker.remote_pid = info.pid;
    send(worker, dist::MsgType::kHelloAck, dist::encode_hello_ack());
    if (worker.peer.fd < 0) return;  // ack write failed → released
    worker.id = next_id_++;
    worker.admitted = true;
    worker.admitted_seconds = clock_.elapsed_seconds();
    m_admitted_.inc();
    m_active_.add(1);
    const std::string prefix = "dist.worker." + std::to_string(worker.id) + ".";
    worker.g_tasks_done = &registry_.gauge(prefix + "jobs_done");
    worker.g_bytes_in = &registry_.gauge(prefix + "bytes_in");
    worker.g_bytes_out = &registry_.gauge(prefix + "bytes_out");
    worker.g_uptime_ms = &registry_.gauge(prefix + "uptime_ms");
    update_worker_gauges(worker);
    for (const dist::Frame& setup : farm_.preamble) {
      send(worker, setup.type, setup.payload);
    }
    dispatch(worker);
    return;
  } else {
    reject = "expected WorkerInfo, got " +
             std::string(dist::frame_type_name(frame.type));
  }

  if (transport_->listen_fd() < 0) throw std::runtime_error(reject);
  reject_peer(worker, "rejected: " + reject);
}

void WorkerPool::handle_result_frame(Worker& worker,
                                     const dist::Frame& frame) {
  if (frame.type == dist::MsgType::kWorkerError) {
    const dist::WorkerErrorMsg error = dist::decode_worker_error(frame.payload);
    throw std::runtime_error("worker failed on '" + error.key +
                             "': " + error.message);
  }
  if (frame.type != farm_.result_type) {
    throw std::runtime_error(
        "protocol violation: unexpected frame type " +
        dist::frame_type_label(static_cast<std::uint8_t>(frame.type)) +
        " from a worker");
  }
  const auto held = static_cast<std::size_t>(worker.task);
  if (worker.task < 0 ||
      farm_.accept(frame, worker.id, attempts_[held] + 1) != held) {
    throw std::runtime_error("protocol violation: worker " +
                             std::to_string(worker.id) +
                             " returned a result that does not match its "
                             "assignment");
  }
  worker.task = -1;
  ++worker.tasks_done;
  dispatch(worker);
}

void WorkerPool::read_ready(Worker& worker) {
  char buf[65536];
  const ssize_t n = ::read(worker.peer.fd, buf, sizeof buf);
  if (n < 0) {
    if (errno == EINTR || errno == EAGAIN) return;
    worker_released(worker);
    return;
  }
  if (n == 0) {
    worker_released(worker);
    return;
  }
  worker.bytes_in += static_cast<std::uint64_t>(n);
  m_bytes_in_.inc(static_cast<std::uint64_t>(n));
  try {
    worker.decoder.feed(buf, static_cast<std::size_t>(n));
    while (true) {
      const auto frame = worker.decoder.next();
      if (!frame) break;
      if (!worker.admitted) {
        handle_handshake_frame(worker, *frame);
      } else {
        handle_result_frame(worker, *frame);
      }
      if (worker.peer.fd < 0) break;  // released while handling
    }
  } catch (const std::invalid_argument& e) {
    if (!worker.admitted && transport_->listen_fd() >= 0) {
      reject_peer(worker, std::string("sent a malformed frame: ") + e.what());
      return;
    }
    throw std::runtime_error(std::string("malformed frame from worker ") +
                             worker.peer.where + ": " + e.what());
  }
}

void WorkerPool::poll_once(int timeout_ms) {
  std::vector<pollfd> fds;
  std::vector<std::ptrdiff_t> owners;  ///< -1 = the listener.
  const int listen_fd = transport_->listen_fd();
  if (listen_fd >= 0) {
    fds.push_back(pollfd{listen_fd, POLLIN, 0});
    owners.push_back(-1);
  }
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    if (workers_[i].peer.fd < 0) continue;
    fds.push_back(pollfd{workers_[i].peer.fd, POLLIN, 0});
    owners.push_back(static_cast<std::ptrdiff_t>(i));
  }
  if (fds.empty()) return;
  const int ready = ::poll(fds.data(), fds.size(), timeout_ms);
  if (ready < 0) {
    if (errno == EINTR) return;  // the run loop re-checks its stop flag
    throw std::runtime_error(std::string("poll failed: ") +
                             std::strerror(errno));
  }
  for (std::size_t i = 0; i < fds.size(); ++i) {
    if (fds[i].revents == 0) continue;
    if (owners[i] < 0) {
      for (Peer& peer : transport_->accept_ready()) track(std::move(peer));
      continue;
    }
    Worker& worker = workers_[static_cast<std::size_t>(owners[i])];
    if (worker.peer.fd < 0) continue;  // released while handling a sibling
    read_ready(worker);
  }
  // Refresh the live per-worker gauges once per turn so a mid-run stats
  // poll sees current jobs/bytes/uptime, not admission-time zeros.
  for (Worker& worker : workers_) {
    if (worker.peer.fd >= 0 && worker.admitted) update_worker_gauges(worker);
  }
}

std::vector<WorkerSummary> WorkerPool::summaries() const {
  std::vector<WorkerSummary> out;
  for (const Worker& worker : workers_) {
    if (!worker.admitted) continue;
    WorkerSummary summary;
    summary.id = worker.id;
    summary.where = worker.peer.where;
    summary.host = worker.host;
    summary.remote_pid = worker.remote_pid;
    summary.tasks_done = worker.tasks_done;
    summary.lost = worker.lost;
    summary.lost_in_flight = worker.lost_in_flight;
    const double end = worker.peer.fd >= 0 ? clock_.elapsed_seconds()
                                           : worker.released_seconds;
    summary.seconds = end - worker.admitted_seconds;
    summary.bytes_in = worker.bytes_in;
    summary.bytes_out = worker.bytes_out;
    out.push_back(std::move(summary));
  }
  // Admission order == id order by construction (ids are assigned from a
  // counter at admission), but workers_ is in connection order; sort so
  // the summary lines are stable.
  std::sort(out.begin(), out.end(),
            [](const WorkerSummary& a, const WorkerSummary& b) {
              return a.id < b.id;
            });
  return out;
}

}  // namespace ncb::net
