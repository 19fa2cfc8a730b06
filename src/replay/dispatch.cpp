#include "replay/dispatch.hpp"

#include <optional>
#include <stdexcept>

#include "core/policy_registry.hpp"
#include "dist/protocol.hpp"
#include "dist/worker.hpp"
#include "exp/sweep_spec.hpp"

namespace ncb::replay {

namespace {

using dist::Frame;
using dist::MsgType;
using dist::WireReader;
using dist::WireWriter;

/// Target encoded size of one ReplayEvents chunk. Well under the 16 MiB
/// frame cap with room for the longest plausible key; small enough that a
/// slow link shows steady progress instead of one giant stall.
constexpr std::size_t kChunkBytes = 1u << 20;

// ------------------------------------------------------ wire payloads ---
// All doubles travel as IEEE-754 bit patterns (WireWriter::put_double), so
// every numeric input to score_candidate reaches the worker exactly — the
// precondition for the byte-identical assembled panel.

struct ReplayInitMsg {
  double epsilon = 0.0;
  std::uint64_t seed = 0;
  std::int64_t horizon = 0;
  std::string family;  ///< exp::family_token of the graph family.
  std::uint64_t num_arms = 0;
  double edge_probability = 0.0;
  std::uint64_t family_param = 0;
  std::uint64_t graph_seed = 0;
  double model_arm_average = 0.0;
  std::vector<double> arm_model;
  std::uint32_t chunks = 0;        ///< ReplayEvents frames to expect.
  std::uint64_t total_records = 0; ///< Sum of chunk record counts.
};

std::string encode_replay_init(const ReplayInitMsg& msg) {
  WireWriter out;
  out.put_double(msg.epsilon);
  out.put_u64(msg.seed);
  out.put_u64(static_cast<std::uint64_t>(msg.horizon));
  out.put_string(msg.family);
  out.put_u64(msg.num_arms);
  out.put_double(msg.edge_probability);
  out.put_u64(msg.family_param);
  out.put_u64(msg.graph_seed);
  out.put_double(msg.model_arm_average);
  out.put_u64(msg.arm_model.size());
  for (double value : msg.arm_model) out.put_double(value);
  out.put_u32(msg.chunks);
  out.put_u64(msg.total_records);
  return out.take();
}

ReplayInitMsg decode_replay_init(const std::string& payload) {
  WireReader in(payload);
  ReplayInitMsg msg;
  msg.epsilon = in.get_double();
  msg.seed = in.get_u64();
  msg.horizon = static_cast<std::int64_t>(in.get_u64());
  msg.family = in.get_string();
  msg.num_arms = in.get_u64();
  msg.edge_probability = in.get_double();
  msg.family_param = in.get_u64();
  msg.graph_seed = in.get_u64();
  msg.model_arm_average = in.get_double();
  const std::size_t arms = in.get_count<std::uint64_t>(8);
  msg.arm_model.reserve(arms);
  for (std::size_t i = 0; i < arms; ++i) {
    msg.arm_model.push_back(in.get_double());
  }
  msg.chunks = in.get_u32();
  msg.total_records = in.get_u64();
  in.finish();
  return msg;
}

void encode_event_record(WireWriter& out, const serve::EventRecord& record) {
  const bool decision = record.type == serve::EventType::kDecision;
  out.put_u8(decision ? 1 : 2);
  out.put_u64(record.decision_id);
  if (decision) {
    out.put_string(record.key);
    out.put_u32(static_cast<std::uint32_t>(record.action));
    out.put_double(record.propensity);
  } else {
    out.put_double(record.reward);
  }
}

serve::EventRecord decode_event_record(WireReader& in) {
  serve::EventRecord record;
  const std::uint8_t type = in.get_u8();
  if (type != 1 && type != 2) {
    throw std::invalid_argument("replay events: unknown record type " +
                                std::to_string(type));
  }
  record.decision_id = in.get_u64();
  if (type == 1) {
    record.type = serve::EventType::kDecision;
    record.key = in.get_string();
    record.action = static_cast<ArmId>(in.get_u32());
    record.propensity = in.get_double();
  } else {
    record.type = serve::EventType::kFeedback;
    record.reward = in.get_double();
  }
  return record;
}

/// Splits the record stream into encoded ReplayEvents payloads of roughly
/// kChunkBytes each, preserving stream order across chunk boundaries.
/// Layout: u32 chunk_index | u32 count | count records.
std::vector<std::string> encode_event_chunks(
    const std::vector<serve::EventRecord>& records) {
  std::vector<std::string> chunks;
  std::size_t at = 0;
  while (at < records.size() || chunks.empty()) {
    WireWriter body;
    std::uint32_t count = 0;
    WireWriter header;
    // Records first (into `body`), then the final payload is assembled
    // with the known count.
    while (at < records.size()) {
      encode_event_record(body, records[at]);
      ++at;
      ++count;
      if (body.size() >= kChunkBytes) break;
    }
    header.put_u32(static_cast<std::uint32_t>(chunks.size()));
    header.put_u32(count);
    std::string payload = header.take();
    payload += body.take();
    chunks.push_back(std::move(payload));
  }
  return chunks;
}

std::vector<serve::EventRecord> decode_event_chunk(
    const std::string& payload, std::uint32_t expected_index) {
  WireReader in(payload);
  const std::uint32_t index = in.get_u32();
  if (index != expected_index) {
    throw std::invalid_argument(
        "replay events: chunk " + std::to_string(index) + " arrived where " +
        std::to_string(expected_index) + " was expected");
  }
  // Smallest record: a feedback (u8 type + u64 id + double reward).
  const std::size_t count = in.get_count<std::uint32_t>(1 + 8 + 8);
  std::vector<serve::EventRecord> records;
  records.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    records.push_back(decode_event_record(in));
  }
  in.finish();
  return records;
}

struct ReplayAssignMsg {
  std::uint32_t index = 0;    ///< Candidate index in the panel order.
  std::uint32_t attempt = 1;  ///< 1-based; > 1 means crash-requeued.
  std::string spec;
};

std::string encode_replay_assign(const ReplayAssignMsg& msg) {
  WireWriter out;
  out.put_u32(msg.index);
  out.put_u32(msg.attempt);
  out.put_string(msg.spec);
  return out.take();
}

ReplayAssignMsg decode_replay_assign(const std::string& payload) {
  WireReader in(payload);
  ReplayAssignMsg msg;
  msg.index = in.get_u32();
  msg.attempt = in.get_u32();
  msg.spec = in.get_string();
  in.finish();
  return msg;
}

void put_stat(WireWriter& out, const RunningStat& stat) {
  out.put_u64(stat.count());
  out.put_double(stat.mean());
  out.put_double(stat.m2());
  out.put_double(stat.min());
  out.put_double(stat.max());
}

RunningStat get_stat(WireReader& in) {
  const std::uint64_t count = in.get_u64();
  const double mean = in.get_double();
  const double m2 = in.get_double();
  const double min = in.get_double();
  const double max = in.get_double();
  return RunningStat::restore(static_cast<std::size_t>(count), mean, m2, min,
                              max);
}

struct ReplayResultMsg {
  std::uint32_t index = 0;
  CandidateSummary summary;  ///< Raw state only; display fields unset.
};

std::string encode_replay_result(const ReplayResultMsg& msg) {
  WireWriter out;
  out.put_u32(msg.index);
  out.put_string(msg.summary.spec);
  out.put_string(msg.summary.description);
  out.put_u64(msg.summary.decisions);
  out.put_u64(msg.summary.matched);
  put_stat(out, msg.summary.ips_stat);
  put_stat(out, msg.summary.dr_stat);
  out.put_double(msg.summary.weight_sum);
  out.put_double(msg.summary.weight_sq_sum);
  out.put_double(msg.summary.weighted_reward_sum);
  out.put_double(msg.summary.max_weight);
  return out.take();
}

ReplayResultMsg decode_replay_result(const std::string& payload) {
  WireReader in(payload);
  ReplayResultMsg msg;
  msg.index = in.get_u32();
  msg.summary.spec = in.get_string();
  msg.summary.description = in.get_string();
  msg.summary.decisions = in.get_u64();
  msg.summary.matched = in.get_u64();
  msg.summary.ips_stat = get_stat(in);
  msg.summary.dr_stat = get_stat(in);
  msg.summary.weight_sum = in.get_double();
  msg.summary.weight_sq_sum = in.get_double();
  msg.summary.weighted_reward_sum = in.get_double();
  msg.summary.max_weight = in.get_double();
  in.finish();
  return msg;
}

}  // namespace

int run_replay_worker(const ReplayWorkerOptions& options) {
  ReplayInitMsg init;
  std::vector<serve::EventRecord> records;
  std::optional<Graph> graph;
  ReplayOptions replay_options;

  dist::WorkerLoop loop;
  loop.fd = options.fd;
  loop.threads = options.threads;
  loop.schema = kReplayWireSchema;
  loop.who = "ncb_replay worker";
  loop.assign_type = MsgType::kReplayAssign;
  // The panel context, then the record stream, chunk by chunk in order.
  // Everything score_candidate reads comes from these frames.
  loop.preamble = [&] {
    std::optional<Frame> frame = dist::read_frame(options.fd);
    if (!frame || frame->type == MsgType::kShutdown) return false;
    if (frame->type != MsgType::kReplayInit) {
      throw std::invalid_argument(std::string("expected ReplayInit, got ") +
                                  dist::frame_type_name(frame->type));
    }
    init = decode_replay_init(frame->payload);
    for (std::uint32_t chunk = 0; chunk < init.chunks; ++chunk) {
      frame = dist::read_frame(options.fd);
      if (!frame) return false;  // coordinator vanished — nothing was lost
      if (frame->type != MsgType::kReplayEvents) {
        throw std::invalid_argument(
            "expected ReplayEvents chunk " + std::to_string(chunk) +
            ", got " + dist::frame_type_name(frame->type));
      }
      for (serve::EventRecord& record :
           decode_event_chunk(frame->payload, chunk)) {
        records.push_back(std::move(record));
      }
    }
    if (records.size() != init.total_records) {
      throw std::invalid_argument(
          "received " + std::to_string(records.size()) +
          " records, coordinator announced " +
          std::to_string(init.total_records));
    }
    ExperimentConfig config;
    config.graph_family = exp::parse_family(init.family);
    config.num_arms = static_cast<std::size_t>(init.num_arms);
    config.edge_probability = init.edge_probability;
    config.family_param = static_cast<std::size_t>(init.family_param);
    config.seed = init.graph_seed;
    graph.emplace(build_graph(config));
    replay_options.epsilon = init.epsilon;
    replay_options.seed = init.seed;
    replay_options.horizon = static_cast<TimeSlot>(init.horizon);
    return true;
  };
  loop.run_one = [&](const std::string& payload,
                     dist::Assignment& assignment) {
    const ReplayAssignMsg assign = decode_replay_assign(payload);
    assignment.begin(assign.spec, assign.attempt, true);
    ReplayResultMsg result;
    result.index = assign.index;
    result.summary = score_candidate(*graph, records, assign.spec,
                                     replay_options, init.arm_model,
                                     init.model_arm_average);
    return Frame{MsgType::kReplayResult, encode_replay_result(result)};
  };
  return dist::run_worker_loop(loop);
}

DistPanelSummary run_distributed_panel(const Graph& graph,
                                       const serve::EventLogScan& scan,
                                       const std::vector<std::string>& specs,
                                       const ReplayOptions& options,
                                       const ReplayDispatchOptions& dispatch) {
  if (dispatch.transport == nullptr) {
    throw std::invalid_argument("run_distributed_panel: no transport");
  }
  if (dispatch.graph_config == nullptr) {
    throw std::invalid_argument("run_distributed_panel: no graph config");
  }
  // Identical front-door validation to replay_panel.
  if (!(options.epsilon >= 0.0 && options.epsilon <= 1.0)) {
    throw std::invalid_argument("replay: epsilon must be in [0, 1]");
  }
  for (const std::string& spec : specs) {
    PolicyRegistry::instance().check_single_play(spec);
  }

  DistPanelSummary summary;
  summary.panel = panel_base(graph, scan);
  if (specs.empty()) return summary;

  // The per-worker setup, encoded once: every admitted (and readmitted)
  // worker gets the same bytes before its first candidate.
  ReplayInitMsg init;
  init.epsilon = options.epsilon;
  init.seed = options.seed;
  init.horizon = options.horizon;
  init.family = exp::family_token(dispatch.graph_config->graph_family);
  init.num_arms = dispatch.graph_config->num_arms;
  init.edge_probability = dispatch.graph_config->edge_probability;
  init.family_param = dispatch.graph_config->family_param;
  init.graph_seed = dispatch.graph_config->seed;
  init.model_arm_average = summary.panel.model_arm_average;
  init.arm_model = summary.panel.arm_model;
  std::vector<std::string> chunks = encode_event_chunks(scan.records);
  init.chunks = static_cast<std::uint32_t>(chunks.size());
  init.total_records = scan.records.size();

  net::WorkerPool::Farm farm;
  farm.labels = specs;
  for (std::size_t i = 0; i < specs.size(); ++i) farm.queue.push_back(i);
  farm.metric_stem = "replay.candidates";
  farm.result_type = MsgType::kReplayResult;
  farm.preamble.push_back(
      Frame{MsgType::kReplayInit, encode_replay_init(init)});
  for (std::string& chunk : chunks) {
    farm.preamble.push_back(Frame{MsgType::kReplayEvents, std::move(chunk)});
  }
  farm.encode = [&](std::size_t index, std::uint32_t attempt) {
    ReplayAssignMsg assign;
    assign.index = static_cast<std::uint32_t>(index);
    assign.attempt = attempt;
    assign.spec = specs[index];
    return Frame{MsgType::kReplayAssign, encode_replay_assign(assign)};
  };
  std::vector<CandidateSummary> done(specs.size());
  farm.accept = [&](const Frame& frame, std::size_t,
                    std::uint32_t) -> std::size_t {
    ReplayResultMsg result = decode_replay_result(frame.payload);
    if (result.index >= specs.size() ||
        result.summary.spec != specs[result.index]) {
      return specs.size();  // matches no candidate
    }
    done[result.index] = std::move(result.summary);
    return result.index;
  };

  farm.should_stop = dispatch.should_stop;

  net::WorkerPool::Options pool_options;
  pool_options.transport = dispatch.transport;
  pool_options.expected_schema = kReplayWireSchema;
  pool_options.workers = dispatch.workers;
  net::WorkerPool pool(pool_options);
  net::WorkerPool::Outcome outcome = pool.run(std::move(farm));
  summary.requeues = outcome.requeues;
  summary.workers = std::move(outcome.workers);
  // A panel is all candidates or none: a stopped run reports no partial one.
  summary.interrupted = outcome.interrupted;
  if (summary.interrupted) return summary;

  // Exact reduction: merge each worker's raw Welford state into an empty
  // accumulator (a bitwise copy — candidates arrive whole, so the merge's
  // exact-copy branch is the one taken), then derive the display figures
  // through the same finalize_candidate the local panel uses.
  summary.panel.candidates.reserve(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    CandidateSummary candidate = std::move(done[i]);
    RunningStat ips;
    ips.merge(candidate.ips_stat);
    candidate.ips_stat = ips;
    RunningStat dr;
    dr.merge(candidate.dr_stat);
    candidate.dr_stat = dr;
    finalize_candidate(candidate);
    summary.panel.candidates.push_back(std::move(candidate));
  }
  return summary;
}

}  // namespace ncb::replay
