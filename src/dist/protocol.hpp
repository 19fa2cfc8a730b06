// Wire protocol shared by the distributed sweep dispatch layer and the
// online decision service (src/serve/).
//
// Everything between two peers travels as length-prefixed frames over a
// byte stream (a socketpair or AF_UNIX connection today; the framing never
// assumes more than an ordered stream, so any future transport — TCP, ssh
// pipes — reuses it unchanged):
//
//     u32 payload-length (LE) | u8 message-type | payload bytes
//
// The first frame in each direction is a versioned handshake (Hello /
// HelloAck); mismatched protocol or application-schema versions abort the
// run with a clear error instead of misinterpreting bytes. The schema word
// of the Hello is application-defined: sweep workers send the sweep output
// schema, serve clients send the serve wire schema. Payloads are packed
// with WireWriter/WireReader (fixed-width LE integers, bit-cast doubles,
// u32-length-prefixed strings); every decoder validates lengths, so
// truncated or oversized frames are rejected, never trusted.
//
// Determinism note: a JobAssign carries the job's original spec coordinates
// (including its seed) and one contiguous replication range of it, and
// replications derive counter-based seeds from those — so a shard produces
// bit-identical samples on any worker, on any attempt, which is what lets a
// crash-requeued shard merge byte-identically.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/aggregate.hpp"
#include "exp/sweep_spec.hpp"

namespace ncb::dist {

/// The peer disappeared (EPIPE/ECONNRESET on write). Distinct from other
/// I/O failures so a worker can treat a vanished coordinator as a clean
/// shutdown in every race ordering.
class PeerClosedError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// First payload word of a Hello frame; guards against a non-worker process
/// accidentally connected to the coordinator fd.
inline constexpr std::uint32_t kProtocolMagic = 0x4e434250;  // "NCBP"
/// Bump on any framing or payload layout change.
/// v2: serve frame types (DecideRequest / DecideReply / Feedback).
/// v3: WorkerInfo admission frame + distributed-replay frame types.
/// v4: StatsRequest / StatsReply live-metrics frames.
/// v5: JobAssign/JobResult carry one replication range of a job (a shard);
///     the result ships per-replication samples, not a rendered record.
inline constexpr std::uint32_t kProtocolVersion = 5;
/// Upper bound on a frame payload; a corrupted length prefix fails fast
/// instead of attempting a multi-gigabyte allocation.
inline constexpr std::uint32_t kMaxFramePayload = 16u << 20;

enum class MsgType : std::uint8_t {
  kHello = 1,          ///< client/worker → server: magic + versions.
  kHelloAck = 2,       ///< server → client/worker: protocol version echo.
  kJobAssign = 3,      ///< coordinator → worker: one shard of a SweepJob.
  kJobResult = 4,      ///< worker → coordinator: the shard's samples.
  kWorkerError = 5,    ///< worker → coordinator: fatal job/protocol error.
  kShutdown = 6,       ///< coordinator → worker: drain and exit 0.
  kDecideRequest = 7,  ///< serve client → server: one decision request.
  kDecideReply = 8,    ///< server → serve client: action + propensity.
  kFeedback = 9,       ///< serve client → server: reward join (no reply).
  kWorkerInfo = 10,    ///< worker → coordinator: identity after Hello.
  kReplayInit = 11,    ///< replay coordinator → worker: config + model.
  kReplayEvents = 12,  ///< replay coordinator → worker: one log chunk.
  kReplayAssign = 13,  ///< replay coordinator → worker: one candidate.
  kReplayResult = 14,  ///< replay worker → coordinator: estimator state.
  kStatsRequest = 15,  ///< serve client → server: metrics poll (no payload).
  kStatsReply = 16,    ///< server → serve client: flattened registry stats.
};

/// Stable display name of a message type ("Hello", "DecideReply", ...);
/// "unknown" for values outside the enum.
[[nodiscard]] const char* frame_type_name(MsgType type) noexcept;

/// Name plus the numeric value, e.g. "DecideReply (8)" or "unknown (42)" —
/// what the framing layer puts in error messages.
[[nodiscard]] std::string frame_type_label(std::uint8_t raw_type);

struct Frame {
  MsgType type = MsgType::kShutdown;
  std::string payload;
};

// ------------------------------------------------------------ payloads ---

/// Little-endian payload packer. Strings are u32-length-prefixed.
class WireWriter {
 public:
  void put_u8(std::uint8_t v);
  void put_u32(std::uint32_t v);
  void put_u64(std::uint64_t v);
  void put_double(double v);  ///< IEEE-754 bit pattern as u64 (exact).
  void put_string(const std::string& s);

  /// Bytes packed so far (for callers batching payloads up to a budget).
  [[nodiscard]] std::size_t size() const noexcept { return buffer_.size(); }
  [[nodiscard]] std::string take() { return std::move(buffer_); }

 private:
  std::string buffer_;
};

/// Bounds-checked payload unpacker; throws std::invalid_argument on any
/// truncation or over-long string, and finish() rejects trailing bytes.
class WireReader {
 public:
  explicit WireReader(const std::string& payload) : payload_(payload) {}

  [[nodiscard]] std::uint8_t get_u8();
  [[nodiscard]] std::uint32_t get_u32();
  [[nodiscard]] std::uint64_t get_u64();
  [[nodiscard]] double get_double();
  [[nodiscard]] std::string get_string();
  /// Reads a `Count`-wide (u32 or u64) element count and throws when that
  /// many elements of at least `min_element_bytes` each cannot fit in the
  /// unread payload — a count off the wire never sizes an allocation
  /// unchecked.
  template <typename Count>
  [[nodiscard]] std::size_t get_count(std::size_t min_element_bytes) {
    return checked_count(sizeof(Count) == 8 ? get_u64() : get_u32(),
                         min_element_bytes);
  }
  /// Throws when decoded messages leave unread payload behind.
  void finish() const;

 private:
  [[nodiscard]] std::size_t checked_count(std::uint64_t count,
                                          std::size_t min_element_bytes) const;

  const std::string& payload_;
  std::size_t at_ = 0;
};

struct HelloMsg {
  std::uint32_t magic = kProtocolMagic;
  std::uint32_t protocol_version = kProtocolVersion;
  /// Application schema word: exp::kSweepSchemaVersion for sweep workers,
  /// kServeWireSchema for serve clients.
  std::uint32_t schema = 0;
};

/// One shard: replications [rep_begin, rep_end) of `job`.
struct JobAssignMsg {
  std::uint32_t attempt = 1;    ///< 1-based; > 1 means crash-requeued.
  std::uint64_t checkpoints = 0;
  std::uint64_t rep_begin = 0;
  std::uint64_t rep_end = 0;
  exp::SweepJob job;
};

/// A shard's result: one RepSample per replication, in replication order,
/// each sampled on the job's checkpoint grid (doubles as bit patterns).
struct JobResultMsg {
  std::string key;
  std::uint64_t rep_begin = 0;
  std::uint64_t rep_end = 0;
  std::vector<exp::RepSample> samples;
};

struct WorkerErrorMsg {
  std::string key;  ///< Empty when not tied to a job.
  std::string message;
};

/// Worker self-identification, sent immediately after Hello. Admission is
/// gated on receiving it: a peer that never identifies is never dispatched
/// to. `threads` lets the coordinator report fleet capacity.
struct WorkerInfoMsg {
  std::string host;
  std::uint64_t pid = 0;
  std::uint64_t threads = 0;
};

[[nodiscard]] std::string encode_hello(const HelloMsg& msg);
[[nodiscard]] HelloMsg decode_hello(const std::string& payload);
/// Empty optional when the hello is acceptable; otherwise a human-readable
/// mismatch description (magic / protocol version / sweep schema).
[[nodiscard]] std::optional<std::string> validate_hello(
    const HelloMsg& msg, std::uint32_t expected_schema);

[[nodiscard]] std::string encode_hello_ack();
/// Throws std::invalid_argument on a version mismatch.
void decode_hello_ack(const std::string& payload);

[[nodiscard]] std::string encode_job_assign(const JobAssignMsg& msg);
[[nodiscard]] JobAssignMsg decode_job_assign(const std::string& payload);

[[nodiscard]] std::string encode_job_result(const JobResultMsg& msg);
[[nodiscard]] JobResultMsg decode_job_result(const std::string& payload);

[[nodiscard]] std::string encode_worker_error(const WorkerErrorMsg& msg);
[[nodiscard]] WorkerErrorMsg decode_worker_error(const std::string& payload);

[[nodiscard]] std::string encode_worker_info(const WorkerInfoMsg& msg);
[[nodiscard]] WorkerInfoMsg decode_worker_info(const std::string& payload);

// ------------------------------------------------- serve message types ---

/// Serve wire schema (the Hello schema word of a serve client). Bump when
/// the decide/reply/feedback payloads or their semantics change.
inline constexpr std::uint32_t kServeWireSchema = 1;

struct DecideRequestMsg {
  std::uint64_t request_id = 0;  ///< Client-chosen token, echoed verbatim.
  std::uint64_t slot = 0;        ///< Client round tag, echoed verbatim.
  std::string user_key;          ///< Keys the per-user exploration stream.
};

struct DecideReplyMsg {
  std::uint64_t request_id = 0;  ///< Echo of the request.
  std::uint64_t slot = 0;        ///< Echo of the request.
  std::uint64_t decision_id = 0; ///< Server-assigned join key for Feedback.
  std::uint32_t action = 0;      ///< Chosen arm.
  double propensity = 0.0;       ///< P(action) under the logging policy.
};

struct FeedbackMsg {
  std::uint64_t decision_id = 0;
  double reward = 0.0;
};

[[nodiscard]] std::string encode_decide_request(const DecideRequestMsg& msg);
[[nodiscard]] DecideRequestMsg decode_decide_request(
    const std::string& payload);

[[nodiscard]] std::string encode_decide_reply(const DecideReplyMsg& msg);
[[nodiscard]] DecideReplyMsg decode_decide_reply(const std::string& payload);

[[nodiscard]] std::string encode_feedback(const FeedbackMsg& msg);
[[nodiscard]] FeedbackMsg decode_feedback(const std::string& payload);

/// One flattened metric in a StatsReply. `kind` mirrors the obs layer's
/// StatEntry kinds: 0 counter, 1 gauge (value is an int64 bit pattern),
/// 2 histogram-derived scalar (name carries a .count/.max/.p50/... suffix).
/// Kept as a plain wire struct so the protocol layer stays independent of
/// src/obs/ — the server maps between the two.
struct StatsEntry {
  static constexpr std::uint8_t kCounter = 0;
  static constexpr std::uint8_t kGauge = 1;
  static constexpr std::uint8_t kHistogram = 2;
  std::uint8_t kind = 0;
  std::string name;
  std::uint64_t value = 0;
};

/// StatsRequest carries no payload; the reply is the full registry,
/// flattened. Binary (not JSON) on purpose: a poller like ncb_stats needs
/// no JSON parser, and the server pays one pass over the registry.
struct StatsReplyMsg {
  std::vector<StatsEntry> entries;
};

[[nodiscard]] std::string encode_stats_reply(const StatsReplyMsg& msg);
[[nodiscard]] StatsReplyMsg decode_stats_reply(const std::string& payload);

// ------------------------------------------------------------- framing ---

/// Incremental frame assembler for the coordinator's poll loop: feed()
/// whatever recv() produced, then drain next() until it returns nullopt.
/// Throws std::invalid_argument on an oversized length prefix or an unknown
/// message type (the stream is unrecoverable after either).
class FrameDecoder {
 public:
  void feed(const char* data, std::size_t size);
  [[nodiscard]] std::optional<Frame> next();

 private:
  std::string buffer_;
  std::size_t consumed_ = 0;
};

/// Appends one framed message (header + payload) to `out`. The buffered
/// counterpart of write_frame for reactor loops that coalesce replies into
/// one per-connection output buffer.
void append_frame(std::string& out, MsgType type, const std::string& payload);

/// Blocking frame write, restarted across EINTR/short writes. Uses
/// send(MSG_NOSIGNAL) on sockets (a dead peer yields EPIPE, not SIGPIPE)
/// and write() on other fds. Throws std::runtime_error on I/O failure;
/// error messages name the frame type being written.
void write_frame(int fd, MsgType type, const std::string& payload);

/// Blocking frame read. Returns nullopt on clean EOF at a frame boundary;
/// throws std::runtime_error on EOF mid-frame or I/O errors and
/// std::invalid_argument on oversized frames or unknown types.
[[nodiscard]] std::optional<Frame> read_frame(int fd);

}  // namespace ncb::dist
