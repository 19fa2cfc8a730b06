#include "dist/protocol.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace ncb::dist {

// ------------------------------------------------------------ payloads ---

void WireWriter::put_u8(std::uint8_t v) {
  buffer_.push_back(static_cast<char>(v));
}

void WireWriter::put_u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buffer_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void WireWriter::put_u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buffer_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void WireWriter::put_double(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof bits == sizeof v, "IEEE-754 double expected");
  std::memcpy(&bits, &v, sizeof bits);
  put_u64(bits);
}

void WireWriter::put_string(const std::string& s) {
  if (s.size() > kMaxFramePayload) {
    throw std::invalid_argument("wire: string exceeds frame limit");
  }
  put_u32(static_cast<std::uint32_t>(s.size()));
  buffer_.append(s);
}

namespace {

[[noreturn]] void truncated(const char* what) {
  throw std::invalid_argument(std::string("wire: truncated payload (") + what +
                              ")");
}

}  // namespace

std::uint8_t WireReader::get_u8() {
  if (at_ + 1 > payload_.size()) truncated("u8");
  return static_cast<std::uint8_t>(payload_[at_++]);
}

std::uint32_t WireReader::get_u32() {
  if (at_ + 4 > payload_.size()) truncated("u32");
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(
             static_cast<unsigned char>(payload_[at_ + static_cast<std::size_t>(i)]))
         << (8 * i);
  }
  at_ += 4;
  return v;
}

std::uint64_t WireReader::get_u64() {
  if (at_ + 8 > payload_.size()) truncated("u64");
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(
             static_cast<unsigned char>(payload_[at_ + static_cast<std::size_t>(i)]))
         << (8 * i);
  }
  at_ += 8;
  return v;
}

double WireReader::get_double() {
  const std::uint64_t bits = get_u64();
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

std::string WireReader::get_string() {
  const std::uint32_t size = get_u32();
  if (size > kMaxFramePayload || at_ + size > payload_.size()) {
    truncated("string");
  }
  std::string out = payload_.substr(at_, size);
  at_ += size;
  return out;
}

std::size_t WireReader::checked_count(std::uint64_t count,
                                      std::size_t min_element_bytes) const {
  if (count > (payload_.size() - at_) / min_element_bytes) {
    throw std::invalid_argument(
        "wire: count " + std::to_string(count) + " exceeds the " +
        std::to_string(payload_.size() - at_) + " payload bytes left");
  }
  return static_cast<std::size_t>(count);
}

void WireReader::finish() const {
  if (at_ != payload_.size()) {
    throw std::invalid_argument("wire: trailing bytes after message");
  }
}

const char* frame_type_name(MsgType type) noexcept {
  switch (type) {
    case MsgType::kHello:
      return "Hello";
    case MsgType::kHelloAck:
      return "HelloAck";
    case MsgType::kJobAssign:
      return "JobAssign";
    case MsgType::kJobResult:
      return "JobResult";
    case MsgType::kWorkerError:
      return "WorkerError";
    case MsgType::kShutdown:
      return "Shutdown";
    case MsgType::kDecideRequest:
      return "DecideRequest";
    case MsgType::kDecideReply:
      return "DecideReply";
    case MsgType::kFeedback:
      return "Feedback";
    case MsgType::kWorkerInfo:
      return "WorkerInfo";
    case MsgType::kReplayInit:
      return "ReplayInit";
    case MsgType::kReplayEvents:
      return "ReplayEvents";
    case MsgType::kReplayAssign:
      return "ReplayAssign";
    case MsgType::kReplayResult:
      return "ReplayResult";
    case MsgType::kStatsRequest:
      return "StatsRequest";
    case MsgType::kStatsReply:
      return "StatsReply";
  }
  return "unknown";
}

std::string frame_type_label(std::uint8_t raw_type) {
  return std::string(frame_type_name(static_cast<MsgType>(raw_type))) + " (" +
         std::to_string(raw_type) + ")";
}

std::string encode_hello(const HelloMsg& msg) {
  WireWriter out;
  out.put_u32(msg.magic);
  out.put_u32(msg.protocol_version);
  out.put_u32(msg.schema);
  return out.take();
}

HelloMsg decode_hello(const std::string& payload) {
  WireReader in(payload);
  HelloMsg msg;
  msg.magic = in.get_u32();
  msg.protocol_version = in.get_u32();
  msg.schema = in.get_u32();
  in.finish();
  return msg;
}

std::optional<std::string> validate_hello(const HelloMsg& msg,
                                          std::uint32_t expected_schema) {
  if (msg.magic != kProtocolMagic) {
    return "handshake: bad magic 0x" + std::to_string(msg.magic) +
           " (peer does not speak the ncb protocol)";
  }
  if (msg.protocol_version != kProtocolVersion) {
    return "handshake: protocol version mismatch (peer v" +
           std::to_string(msg.protocol_version) + ", expected v" +
           std::to_string(kProtocolVersion) + ")";
  }
  if (msg.schema != expected_schema) {
    return "handshake: schema mismatch (peer schema " +
           std::to_string(msg.schema) + ", expected schema " +
           std::to_string(expected_schema) + ")";
  }
  return std::nullopt;
}

std::string encode_hello_ack() {
  WireWriter out;
  out.put_u32(kProtocolVersion);
  return out.take();
}

void decode_hello_ack(const std::string& payload) {
  WireReader in(payload);
  const std::uint32_t version = in.get_u32();
  in.finish();
  if (version != kProtocolVersion) {
    throw std::invalid_argument(
        "handshake: coordinator protocol version mismatch (coordinator v" +
        std::to_string(version) + ", worker v" +
        std::to_string(kProtocolVersion) + ")");
  }
}

std::string encode_job_assign(const JobAssignMsg& msg) {
  WireWriter out;
  out.put_u32(msg.attempt);
  out.put_u64(msg.checkpoints);
  out.put_u64(msg.shard_size);
  out.put_u64(msg.job.index);
  out.put_string(msg.job.key);
  out.put_string(msg.job.policy);
  out.put_string(exp::scenario_token(msg.job.scenario));
  const ExperimentConfig& config = msg.job.config;
  out.put_string(exp::family_token(config.graph_family));
  out.put_u64(config.num_arms);
  out.put_double(config.edge_probability);
  out.put_u64(config.family_param);
  out.put_u64(static_cast<std::uint64_t>(config.horizon));
  out.put_u64(config.replications);
  out.put_u64(config.seed);
  out.put_u64(config.strategy_size);
  out.put_u8(config.exact_size_strategies ? 1 : 0);
  return out.take();
}

JobAssignMsg decode_job_assign(const std::string& payload) {
  WireReader in(payload);
  JobAssignMsg msg;
  msg.attempt = in.get_u32();
  msg.checkpoints = in.get_u64();
  msg.shard_size = in.get_u64();
  msg.job.index = static_cast<std::size_t>(in.get_u64());
  msg.job.key = in.get_string();
  msg.job.policy = in.get_string();
  msg.job.scenario = exp::parse_scenario(in.get_string());
  ExperimentConfig& config = msg.job.config;
  config.graph_family = exp::parse_family(in.get_string());
  config.num_arms = static_cast<std::size_t>(in.get_u64());
  config.edge_probability = in.get_double();
  config.family_param = static_cast<std::size_t>(in.get_u64());
  config.horizon = static_cast<TimeSlot>(in.get_u64());
  config.replications = static_cast<std::size_t>(in.get_u64());
  config.seed = in.get_u64();
  config.strategy_size = static_cast<std::size_t>(in.get_u64());
  config.exact_size_strategies = in.get_u8() != 0;
  config.name = msg.job.key;  // mirrors SweepSpec::expand
  in.finish();
  return msg;
}

std::string encode_job_result(const JobResultMsg& msg) {
  WireWriter out;
  out.put_string(msg.key);
  out.put_string(msg.record_line);
  out.put_double(msg.seconds);
  out.put_u64(msg.shards);
  out.put_u64(msg.shard_size);
  return out.take();
}

JobResultMsg decode_job_result(const std::string& payload) {
  WireReader in(payload);
  JobResultMsg msg;
  msg.key = in.get_string();
  msg.record_line = in.get_string();
  msg.seconds = in.get_double();
  msg.shards = in.get_u64();
  msg.shard_size = in.get_u64();
  in.finish();
  return msg;
}

std::string encode_worker_error(const WorkerErrorMsg& msg) {
  WireWriter out;
  out.put_string(msg.key);
  out.put_string(msg.message);
  return out.take();
}

WorkerErrorMsg decode_worker_error(const std::string& payload) {
  WireReader in(payload);
  WorkerErrorMsg msg;
  msg.key = in.get_string();
  msg.message = in.get_string();
  in.finish();
  return msg;
}

std::string encode_worker_info(const WorkerInfoMsg& msg) {
  WireWriter out;
  out.put_string(msg.host);
  out.put_u64(msg.pid);
  out.put_u64(msg.threads);
  return out.take();
}

WorkerInfoMsg decode_worker_info(const std::string& payload) {
  WireReader in(payload);
  WorkerInfoMsg msg;
  msg.host = in.get_string();
  msg.pid = in.get_u64();
  msg.threads = in.get_u64();
  in.finish();
  return msg;
}

std::string encode_decide_request(const DecideRequestMsg& msg) {
  WireWriter out;
  out.put_u64(msg.request_id);
  out.put_u64(msg.slot);
  out.put_string(msg.user_key);
  return out.take();
}

DecideRequestMsg decode_decide_request(const std::string& payload) {
  WireReader in(payload);
  DecideRequestMsg msg;
  msg.request_id = in.get_u64();
  msg.slot = in.get_u64();
  msg.user_key = in.get_string();
  in.finish();
  return msg;
}

std::string encode_decide_reply(const DecideReplyMsg& msg) {
  WireWriter out;
  out.put_u64(msg.request_id);
  out.put_u64(msg.slot);
  out.put_u64(msg.decision_id);
  out.put_u32(msg.action);
  out.put_double(msg.propensity);
  return out.take();
}

DecideReplyMsg decode_decide_reply(const std::string& payload) {
  WireReader in(payload);
  DecideReplyMsg msg;
  msg.request_id = in.get_u64();
  msg.slot = in.get_u64();
  msg.decision_id = in.get_u64();
  msg.action = in.get_u32();
  msg.propensity = in.get_double();
  in.finish();
  return msg;
}

std::string encode_feedback(const FeedbackMsg& msg) {
  WireWriter out;
  out.put_u64(msg.decision_id);
  out.put_double(msg.reward);
  return out.take();
}

FeedbackMsg decode_feedback(const std::string& payload) {
  WireReader in(payload);
  FeedbackMsg msg;
  msg.decision_id = in.get_u64();
  msg.reward = in.get_double();
  in.finish();
  return msg;
}

std::string encode_stats_reply(const StatsReplyMsg& msg) {
  WireWriter out;
  out.put_u32(static_cast<std::uint32_t>(msg.entries.size()));
  for (const StatsEntry& entry : msg.entries) {
    out.put_u8(entry.kind);
    out.put_string(entry.name);
    out.put_u64(entry.value);
  }
  return out.take();
}

StatsReplyMsg decode_stats_reply(const std::string& payload) {
  WireReader in(payload);
  StatsReplyMsg msg;
  // Smallest entry: u8 kind + empty u32-prefixed name + u64 value.
  const std::size_t count = in.get_count<std::uint32_t>(1 + 4 + 8);
  msg.entries.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    StatsEntry entry;
    entry.kind = in.get_u8();
    entry.name = in.get_string();
    entry.value = in.get_u64();
    msg.entries.push_back(std::move(entry));
  }
  in.finish();
  return msg;
}

// ------------------------------------------------------------- framing ---

namespace {

constexpr std::size_t kFrameHeaderBytes = 5;  // u32 length + u8 type.

bool valid_type(std::uint8_t type) {
  return type >= static_cast<std::uint8_t>(MsgType::kHello) &&
         type <= static_cast<std::uint8_t>(MsgType::kStatsReply);
}

/// Parses a frame header; throws on an unusable length or type.
void check_header(std::uint32_t length, std::uint8_t type) {
  if (length > kMaxFramePayload) {
    throw std::invalid_argument("frame: oversized payload length " +
                                std::to_string(length) + " for " +
                                frame_type_label(type) + " frame");
  }
  if (!valid_type(type)) {
    throw std::invalid_argument("frame: unknown message type " +
                                frame_type_label(type));
  }
}

}  // namespace

void FrameDecoder::feed(const char* data, std::size_t size) {
  // Compact lazily so repeated small feeds stay amortized O(n).
  if (consumed_ > 0 && consumed_ >= buffer_.size() / 2) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  buffer_.append(data, size);
}

std::optional<Frame> FrameDecoder::next() {
  const std::size_t available = buffer_.size() - consumed_;
  if (available < kFrameHeaderBytes) return std::nullopt;
  const char* head = buffer_.data() + consumed_;
  std::uint32_t length = 0;
  for (int i = 0; i < 4; ++i) {
    length |= static_cast<std::uint32_t>(static_cast<unsigned char>(head[i]))
              << (8 * i);
  }
  const std::uint8_t type = static_cast<unsigned char>(head[4]);
  check_header(length, type);
  if (available < kFrameHeaderBytes + length) return std::nullopt;
  Frame frame;
  frame.type = static_cast<MsgType>(type);
  frame.payload.assign(head + kFrameHeaderBytes, length);
  consumed_ += kFrameHeaderBytes + length;
  return frame;
}

namespace {

/// send() on sockets so a vanished peer surfaces as EPIPE instead of
/// SIGPIPE; plain write() for pipe-based transports.
ssize_t write_some(int fd, const char* data, std::size_t size) {
  const ssize_t n = ::send(fd, data, size, MSG_NOSIGNAL);
  if (n >= 0 || errno != ENOTSOCK) return n;
  return ::write(fd, data, size);
}

}  // namespace

void append_frame(std::string& out, MsgType type, const std::string& payload) {
  if (payload.size() > kMaxFramePayload) {
    throw std::runtime_error("frame: payload exceeds limit for " +
                             frame_type_label(static_cast<std::uint8_t>(type)) +
                             " frame");
  }
  out.reserve(out.size() + kFrameHeaderBytes + payload.size());
  const std::uint32_t length = static_cast<std::uint32_t>(payload.size());
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((length >> (8 * i)) & 0xff));
  }
  out.push_back(static_cast<char>(type));
  out.append(payload);
}

void write_frame(int fd, MsgType type, const std::string& payload) {
  std::string wire;
  append_frame(wire, type, payload);

  std::size_t sent = 0;
  while (sent < wire.size()) {
    const ssize_t n = write_some(fd, wire.data() + sent, wire.size() - sent);
    if (n < 0) {
      if (errno == EINTR) continue;
      const std::string detail =
          std::string("frame write failed (") + frame_type_name(type) +
          "): " + std::strerror(errno);
      if (errno == EPIPE || errno == ECONNRESET) {
        throw PeerClosedError(detail);
      }
      throw std::runtime_error(detail);
    }
    sent += static_cast<std::size_t>(n);
  }
}

namespace {

/// Reads exactly `size` bytes. Returns false only on EOF with zero bytes
/// read; throws on mid-buffer EOF or I/O errors. A connection reset counts
/// as EOF — a peer that died with data in flight is still just "gone".
bool read_exact(int fd, char* out, std::size_t size) {
  std::size_t got = 0;
  while (got < size) {
    const ssize_t n = ::read(fd, out + got, size - got);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno != ECONNRESET) {
        throw std::runtime_error(std::string("frame read failed: ") +
                                 std::strerror(errno));
      }
    }
    if (n <= 0) {
      if (got == 0) return false;
      throw std::runtime_error("frame read failed: EOF mid-frame");
    }
    got += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

std::optional<Frame> read_frame(int fd) {
  char header[kFrameHeaderBytes];
  if (!read_exact(fd, header, sizeof header)) return std::nullopt;
  std::uint32_t length = 0;
  for (int i = 0; i < 4; ++i) {
    length |= static_cast<std::uint32_t>(static_cast<unsigned char>(header[i]))
              << (8 * i);
  }
  const std::uint8_t type = static_cast<unsigned char>(header[4]);
  check_header(length, type);
  Frame frame;
  frame.type = static_cast<MsgType>(type);
  frame.payload.resize(length);
  if (length > 0 && !read_exact(fd, frame.payload.data(), length)) {
    throw std::runtime_error(std::string("frame read failed: EOF before ") +
                             frame_type_name(frame.type) + " payload");
  }
  return frame;
}

}  // namespace ncb::dist
