#include "serve/event_log.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "dist/protocol.hpp"

namespace ncb::serve {

namespace {

constexpr std::size_t kHeaderBytes = 8;        // u32 magic + u32 version.
constexpr std::size_t kRecordHeaderBytes = 5;  // u32 length + u8 type.

/// Caps one record's payload; a corrupted length fails fast instead of
/// swallowing the rest of the file as "one record".
constexpr std::uint32_t kMaxRecordPayload = 1u << 20;

std::uint32_t read_u32_le(const char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(p[i]))
         << (8 * i);
  }
  return v;
}

obs::MetricsRegistry& log_registry(const EventLog::Options& options) {
  return options.metrics != nullptr ? *options.metrics
                                    : obs::MetricsRegistry::global();
}

}  // namespace

EventLog::EventLog(Options options)
    : options_(std::move(options)),
      m_records_(log_registry(options_).counter("serve.log.records")),
      m_flushes_(log_registry(options_).counter("serve.log.flushes")),
      m_flushed_bytes_(
          log_registry(options_).counter("serve.log.flushed_bytes")),
      m_flush_stalls_(
          log_registry(options_).counter("serve.log.flush_stalls")),
      m_write_failures_(
          log_registry(options_).counter("serve.log.write_failures")),
      m_buffered_bytes_(
          log_registry(options_).gauge("serve.log.buffered_bytes")) {
  if (options_.path.empty()) {
    throw std::runtime_error("event log: empty path");
  }
  fd_ = ::open(options_.path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
               0644);
  if (fd_ < 0) {
    throw std::runtime_error("event log: cannot open '" + options_.path +
                             "': " + std::strerror(errno));
  }
  dist::WireWriter header;
  header.put_u32(kEventLogMagic);
  header.put_u32(kEventLogVersion);
  const std::string bytes = header.take();
  write_all(bytes);  // single-threaded here: the flusher starts below
  bytes_written_ = bytes.size();
  flusher_ = std::thread([this] { flusher_main(); });
}

EventLog::~EventLog() {
  try {
    close();
  } catch (const std::exception&) {
    // Destructor: the file keeps whatever prefix made it to disk; the
    // reader tolerates exactly that.
  }
}

void EventLog::append_decision(std::uint64_t decision_id,
                               const std::string& key, ArmId action,
                               double propensity) {
  dist::WireWriter payload;
  payload.put_u64(decision_id);
  payload.put_string(key);
  payload.put_u32(static_cast<std::uint32_t>(action));
  payload.put_double(propensity);
  append_record(EventType::kDecision, payload.take());
}

void EventLog::append_feedback(std::uint64_t decision_id, double reward) {
  dist::WireWriter payload;
  payload.put_u64(decision_id);
  payload.put_double(reward);
  append_record(EventType::kFeedback, payload.take());
}

void EventLog::append_record(EventType type, const std::string& payload) {
  if (payload.size() > kMaxRecordPayload) {
    throw std::invalid_argument("event log: record payload too large");
  }
  bool signal = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_) throw std::logic_error("event log: append after close");
    const std::uint32_t length = static_cast<std::uint32_t>(payload.size());
    for (int i = 0; i < 4; ++i) {
      active_.push_back(static_cast<char>((length >> (8 * i)) & 0xff));
    }
    active_.push_back(static_cast<char>(type));
    active_.append(payload);
    signal = active_.size() >= options_.flush_bytes;
    // A full buffer while the previous batch is still being written means
    // appends are outpacing the disk — the stall signal a saturated log
    // shows before it starts growing without bound.
    if (signal && write_in_progress_) m_flush_stalls_.inc();
    m_buffered_bytes_.set(static_cast<std::int64_t>(active_.size()));
  }
  m_records_.inc();
  if (signal) wake_flusher_.notify_one();
}

void EventLog::flush() {
  std::unique_lock<std::mutex> lock(mutex_);
  if (closed_) throw std::logic_error("event log: flush after close");
  force_flush_ = true;
  wake_flusher_.notify_one();
  flush_done_.wait(lock,
                   [this] { return active_.empty() && !write_in_progress_; });
}

void EventLog::close() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_flusher_.notify_one();
  if (flusher_.joinable()) flusher_.join();
  std::lock_guard<std::mutex> lock(mutex_);
  if (closed_) return;
  // The flusher drains active_ before exiting, so everything appended
  // before close() is on disk here.
  closed_ = true;
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

std::uint64_t EventLog::bytes_written() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return bytes_written_;
}

bool EventLog::write_failed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return write_failed_;
}

void EventLog::flusher_main() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    // Wake early for a full buffer, a forced flush, or shutdown; a timeout
    // with a small non-empty buffer is the age threshold firing (worst
    // case one extra wait of flush_ms for a just-appended record).
    wake_flusher_.wait_for(
        lock, std::chrono::milliseconds(options_.flush_ms), [this] {
          return stop_ || force_flush_ ||
                 active_.size() >= options_.flush_bytes;
        });
    if (active_.empty()) {
      force_flush_ = false;
      flush_done_.notify_all();
      if (stop_) break;
      continue;
    }
    writing_.clear();
    writing_.swap(active_);
    write_in_progress_ = true;
    m_buffered_bytes_.set(0);
    const bool already_failed = write_failed_;
    lock.unlock();
    bool wrote = true;
    try {
      write_all(writing_);
    } catch (const std::exception& e) {
      // An I/O failure (disk full, revoked mount) must not terminate the
      // process from a detached-ish thread: drop the batch, warn once, and
      // keep serving. The log simply ends at the last good record.
      wrote = false;
      if (!already_failed) {
        std::fprintf(stderr, "event log: %s — further records dropped\n",
                     e.what());
      }
    }
    lock.lock();
    write_in_progress_ = false;
    if (wrote) {
      bytes_written_ += writing_.size();
      m_flushes_.inc();
      m_flushed_bytes_.inc(writing_.size());
    } else {
      write_failed_ = true;
      m_write_failures_.inc();
    }
    if (active_.empty()) force_flush_ = false;
    flush_done_.notify_all();
  }
}

void EventLog::write_all(const std::string& batch) {
  std::size_t written = 0;
  while (written < batch.size()) {
    const ssize_t n =
        ::write(fd_, batch.data() + written, batch.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("event log: write failed: " +
                               std::string(std::strerror(errno)));
    }
    written += static_cast<std::size_t>(n);
  }
}

EventLogScan read_event_log(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("event log: cannot read '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string data = buffer.str();

  EventLogScan scan;
  if (data.size() < kHeaderBytes) {
    scan.truncated_tail = true;  // not even a complete header
    return scan;
  }
  const std::uint32_t magic = read_u32_le(data.data());
  if (magic != kEventLogMagic) {
    throw std::invalid_argument("event log: bad magic in '" + path +
                                "' (not an ncb event log)");
  }
  scan.version = read_u32_le(data.data() + 4);
  if (scan.version != kEventLogVersion) {
    throw std::invalid_argument(
        "event log: unsupported version " + std::to_string(scan.version) +
        " (reader supports " + std::to_string(kEventLogVersion) + ")");
  }
  scan.valid_bytes = kHeaderBytes;

  JoinWalker walker;
  std::size_t at = kHeaderBytes;
  while (true) {
    if (data.size() - at < kRecordHeaderBytes) {
      scan.truncated_tail = at != data.size();
      break;
    }
    const std::uint32_t length = read_u32_le(data.data() + at);
    const std::uint8_t raw_type =
        static_cast<unsigned char>(data[at + kRecordHeaderBytes - 1]);
    if (length > kMaxRecordPayload) {
      throw std::invalid_argument("event log: oversized record (" +
                                  std::to_string(length) + " bytes) at offset " +
                                  std::to_string(at));
    }
    if (raw_type != static_cast<std::uint8_t>(EventType::kDecision) &&
        raw_type != static_cast<std::uint8_t>(EventType::kFeedback)) {
      throw std::invalid_argument("event log: unknown record type " +
                                  std::to_string(raw_type) + " at offset " +
                                  std::to_string(at));
    }
    if (data.size() - at - kRecordHeaderBytes < length) {
      scan.truncated_tail = true;  // complete header, incomplete payload
      break;
    }
    const std::string payload = data.substr(at + kRecordHeaderBytes, length);
    dist::WireReader reader(payload);
    EventRecord record;
    record.type = static_cast<EventType>(raw_type);
    // A complete record that fails to decode is corruption, not truncation:
    // WireReader's invalid_argument propagates.
    if (record.type == EventType::kDecision) {
      record.decision_id = reader.get_u64();
      record.key = reader.get_string();
      record.action = static_cast<ArmId>(reader.get_u32());
      record.propensity = reader.get_double();
      reader.finish();
      ++scan.decisions;
    } else {
      record.decision_id = reader.get_u64();
      record.reward = reader.get_double();
      reader.finish();
      ++scan.feedbacks;
    }
    walker.next(record);
    scan.records.push_back(std::move(record));
    at += kRecordHeaderBytes + length;
    scan.valid_bytes = at;
  }
  scan.joined = walker.joined() + walker.duplicates();
  return scan;
}

std::size_t JoinWalker::next(const EventRecord& record) {
  if (record.type == EventType::kDecision) {
    const std::size_t ordinal = joined_.size();
    joined_.push_back(false);
    const auto [it, fresh] = holder_.try_emplace(record.decision_id, ordinal);
    if (!fresh && joined_[it->second]) it->second = ordinal;
    return ordinal;
  }
  const auto it = holder_.find(record.decision_id);
  if (it == holder_.end()) {
    ++orphans_;
    return kUnjoined;
  }
  if (joined_[it->second]) {
    ++duplicates_;
    return kUnjoined;
  }
  joined_[it->second] = true;
  ++joins_;
  return it->second;
}

EventLogJoin join_event_log(
    const EventLogScan& scan,
    const std::function<void(const JoinedEvent&)>& on_join) {
  EventLogJoin join;
  join.min_propensity = std::numeric_limits<double>::infinity();
  join.events.reserve(scan.decisions);
  JoinWalker walker(scan.decisions);
  for (const EventRecord& record : scan.records) {
    const std::size_t ordinal = walker.next(record);
    if (record.type == EventType::kDecision) {
      if (!(record.propensity > 0.0)) {
        throw std::invalid_argument(
            "event log: decision " + std::to_string(record.decision_id) +
            " has non-positive propensity " +
            std::to_string(record.propensity) +
            " — cannot importance-weight this log");
      }
      JoinedEvent event;
      event.decision_id = record.decision_id;
      event.key = record.key;
      event.action = record.action;
      event.propensity = record.propensity;
      join.events.push_back(std::move(event));
      if (record.propensity < join.min_propensity) {
        join.min_propensity = record.propensity;
      }
    } else if (ordinal != JoinWalker::kUnjoined) {
      JoinedEvent& event = join.events[ordinal];
      event.reward = record.reward;
      event.has_reward = true;
      if (on_join) on_join(event);
    }
  }
  join.decisions = walker.decisions();
  join.joined = walker.joined();
  join.orphan_feedbacks = walker.orphans();
  join.duplicate_feedbacks = walker.duplicates();
  return join;
}

}  // namespace ncb::serve
