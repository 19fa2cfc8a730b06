// Append-only, schema-versioned binary event log for the decision service.
//
// The log is the durable source of truth for counterfactual evaluation
// (the MWT Decision Service model): every decision lands as a
// (decision_id, key, action, propensity) record, every reward join as a
// (decision_id, reward) record. Records reuse the dist/protocol wire
// codecs and the frame layout:
//
//     file   := header record*
//     header := u32 magic "NCBL" | u32 version
//     record := u32 payload-length (LE) | u8 record-type | payload
//
// Writer: a double-buffered batcher. Appends go into an in-memory buffer
// under a mutex and never wait on disk; a background flusher thread swaps
// the buffers and writes the full batch when the buffer reaches
// flush_bytes or has aged flush_ms. Each append is a complete record, and
// batches are written front-to-back, so the file's only possible damage
// mode — from SIGKILL or power loss mid-write — is an incomplete record at
// the tail. close() (and the destructor, and therefore a handled SIGTERM)
// drains everything appended so far, so a clean shutdown never loses or
// tears a record.
//
// Reader: scans the file and returns every complete record, tolerating a
// truncated tail exactly like the sweep --resume scanner tolerates a
// truncated checkpoint file: the complete prefix is recovered, the torn
// bytes are reported, and only structural corruption (bad magic, unknown
// record type, oversized length) throws.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"
#include "util/types.hpp"

namespace ncb::serve {

inline constexpr std::uint32_t kEventLogMagic = 0x4e43424c;  // "NCBL"
/// Bump on any header or record layout change.
inline constexpr std::uint32_t kEventLogVersion = 1;

enum class EventType : std::uint8_t {
  kDecision = 1,  ///< decision_id, user key, action, propensity.
  kFeedback = 2,  ///< decision_id, reward.
};

/// One decoded log record; decision-only fields are defaulted on feedback
/// records and vice versa.
struct EventRecord {
  EventType type = EventType::kDecision;
  std::uint64_t decision_id = 0;
  std::string key;
  ArmId action = kNoArm;
  double propensity = 0.0;
  double reward = 0.0;
};

class EventLog {
 public:
  struct Options {
    std::string path;
    /// Flush when the active buffer reaches this size...
    std::size_t flush_bytes = 256 * 1024;
    /// ...or when appended data has been buffered this long.
    int flush_ms = 50;
    /// Registry holding the record count and flush-pipeline health metrics
    /// (serve.log.*); nullptr → obs::MetricsRegistry::global().
    obs::MetricsRegistry* metrics = nullptr;
  };

  /// Opens (truncating) `path`, writes the header, starts the flusher.
  /// Throws std::runtime_error when the file cannot be opened.
  explicit EventLog(Options options);
  ~EventLog();

  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

  void append_decision(std::uint64_t decision_id, const std::string& key,
                       ArmId action, double propensity);
  void append_feedback(std::uint64_t decision_id, double reward);

  /// Blocks until every record appended before the call is on disk (in the
  /// file-content sense: written, not fsynced).
  void flush();

  /// flush() + stop the flusher + close the fd. Idempotent; called by the
  /// destructor. Append/flush after close() throw std::logic_error.
  void close();

  [[nodiscard]] const std::string& path() const noexcept {
    return options_.path;
  }
  /// Bytes written to the file so far (including the header).
  [[nodiscard]] std::uint64_t bytes_written() const;
  /// True after any flusher write failed (those records were dropped).
  [[nodiscard]] bool write_failed() const;

 private:
  void append_record(EventType type, const std::string& payload);
  void flusher_main();
  /// Writes `batch` fully to fd_ (restarting across EINTR/short writes).
  void write_all(const std::string& batch);

  Options options_;
  int fd_ = -1;

  mutable std::mutex mutex_;
  std::condition_variable wake_flusher_;
  std::condition_variable flush_done_;
  std::string active_;   ///< Append side of the double buffer.
  std::string writing_;  ///< Flusher side; only the flusher touches it.
  bool closed_ = false;
  bool stop_ = false;
  bool force_flush_ = false;
  bool write_in_progress_ = false;
  bool write_failed_ = false;
  std::uint64_t bytes_written_ = 0;

  // Event counts (resolved once in the constructor): records appended
  // (buffered or written), completed flusher batches, and their bytes live
  // only here. bytes_written_ above is this instance's own file size, kept
  // separately because a registry may be shared across logs.
  obs::Counter& m_records_;
  obs::Counter& m_flushes_;
  obs::Counter& m_flushed_bytes_;
  obs::Counter& m_flush_stalls_;
  obs::Counter& m_write_failures_;
  obs::Gauge& m_buffered_bytes_;

  std::thread flusher_;
};

/// Result of scanning a log file.
struct EventLogScan {
  std::uint32_t version = 0;
  std::vector<EventRecord> records;
  std::uint64_t decisions = 0;
  std::uint64_t feedbacks = 0;
  /// Feedback records whose decision_id matched an earlier decision record
  /// (JoinWalker's joins plus its duplicates: everything but orphans).
  std::uint64_t joined = 0;
  /// Byte length of the valid prefix (header + complete records).
  std::uint64_t valid_bytes = 0;
  /// True when the file ends in an incomplete header or record (the
  /// crash-tolerance case); the complete prefix is still returned.
  bool truncated_tail = false;
};

/// Scans `path`. Tolerates a truncated tail (see EventLogScan); throws
/// std::runtime_error when the file cannot be read and
/// std::invalid_argument on structural corruption (bad magic, wrong
/// version, unknown record type, oversized record, undecodable payload).
[[nodiscard]] EventLogScan read_event_log(const std::string& path);

/// The one decision-to-reward join rule every log consumer applies. Feed
/// it records in log order: decisions are numbered 0, 1, ... (their
/// ordinal) and stay open until a feedback joins them; a feedback joins the
/// open decision holding its decision_id. A decision_id issued again while
/// its first decision is still open stays with the first (the repeat can
/// never join); once the holder has joined, a later decision may reuse the
/// id. The engine never reissues an id, so on a served log this is simply
/// "feedback joins its decision, first feedback wins".
class JoinWalker {
 public:
  static constexpr std::size_t kUnjoined = static_cast<std::size_t>(-1);

  JoinWalker() = default;
  /// Reserves room for `decisions` decision records up front, so a walk
  /// whose decision count is known never rehashes.
  explicit JoinWalker(std::size_t decisions) {
    holder_.reserve(decisions);
    joined_.reserve(decisions);
  }

  /// A decision record returns its own ordinal. A feedback record returns
  /// the ordinal of the decision it joins, or kUnjoined for an orphan (id
  /// never issued) or a duplicate (the id's holder already joined).
  std::size_t next(const EventRecord& record);

  [[nodiscard]] std::uint64_t decisions() const noexcept {
    return joined_.size();
  }
  [[nodiscard]] std::uint64_t joined() const noexcept { return joins_; }
  [[nodiscard]] std::uint64_t orphans() const noexcept { return orphans_; }
  [[nodiscard]] std::uint64_t duplicates() const noexcept {
    return duplicates_;
  }

 private:
  /// decision_id → ordinal of the decision holding it.
  std::unordered_map<std::uint64_t, std::size_t> holder_;
  std::vector<bool> joined_;  ///< Per decision ordinal.
  std::uint64_t joins_ = 0;
  std::uint64_t orphans_ = 0;
  std::uint64_t duplicates_ = 0;
};

/// One decision joined to its reward (when one arrived).
struct JoinedEvent {
  std::uint64_t decision_id = 0;
  std::string key;
  ArmId action = kNoArm;
  double propensity = 0.0;
  double reward = 0.0;
  bool has_reward = false;
};

/// A scanned log joined decision-to-reward by JoinWalker, the input shape
/// counterfactual evaluation needs. `events` preserves decision order; the
/// join stats separate the engine-guaranteed cases (every feedback matches
/// exactly one earlier decision) from anything a torn or hand-edited log
/// could hold.
struct EventLogJoin {
  std::vector<JoinedEvent> events;  ///< One entry per decision record.
  std::uint64_t decisions = 0;
  std::uint64_t joined = 0;
  /// Feedback records whose decision_id matched no earlier decision.
  std::uint64_t orphan_feedbacks = 0;
  /// Feedback records whose decision_id's holder already had a reward.
  std::uint64_t duplicate_feedbacks = 0;
  /// Smallest logged propensity (the epsilon/K exploration floor);
  /// +infinity when the log holds no decisions.
  double min_propensity = 0.0;
};

/// Joins a scan's feedback records to their decisions. When set, `on_join`
/// sees each decision as its feedback joins it, in stream order (the order
/// a replay consumes rewards in). Throws std::invalid_argument when a
/// decision record carries a non-positive propensity (such a log cannot
/// support importance weighting).
[[nodiscard]] EventLogJoin join_event_log(
    const EventLogScan& scan,
    const std::function<void(const JoinedEvent&)>& on_join = {});

}  // namespace ncb::serve
