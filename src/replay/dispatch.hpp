// Distributed replay: fan a candidate panel across workers over a
// net::StreamTransport, byte-identical to the single-process panel.
//
// Sharding is by CANDIDATE, not by log range: a candidate policy's state
// is sequential and history-dependent (each candidate is a serve::Explorer
// whose clock and learned state carry across the whole stream), so cutting
// the stream would change every estimate after the cut — and break the
// logging-identity pin. Candidates, on the other hand, never interact:
// replay_panel scores each one independently over the same stream. So the
// coordinator runs pass 1 (join + DR baseline + empirical stats) locally
// once, ships the record stream to every worker in decision-ordered
// chunks (bounded well under the frame cap), and assigns one candidate
// per idle worker through net::WorkerPool, the same crash-requeue farm the
// sweep uses: the ReplayInit frame and the event chunks are its per-worker
// preamble. Workers run the exact score_candidate code path the local
// panel uses and ship back raw accumulator state — Welford
// (count, mean, m2, min, max) tuples and the weight sums, never derived
// figures — which the coordinator merges into empty accumulators (a
// bitwise copy, see RunningStat::merge) and finalizes through the same
// finalize_candidate the local panel calls. Every double on the wire is
// an exact IEEE-754 bit pattern, so the assembled panel is byte-identical
// to `--workers 0` for any worker count, transport, or mid-run crash
// (a lost worker's candidate is requeued and recomputed from scratch —
// same inputs, same bytes).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "net/transport.hpp"
#include "net/worker_pool.hpp"
#include "replay/replay.hpp"
#include "serve/event_log.hpp"
#include "sim/experiment.hpp"

namespace ncb::replay {

/// Replay wire schema (the Hello schema word of a replay worker). Bump
/// when the ReplayInit/Events/Assign/Result payloads change.
inline constexpr std::uint32_t kReplayWireSchema = 1;

struct ReplayWorkerOptions {
  int fd = -1;              ///< Connected stream to the coordinator.
  std::size_t threads = 0;  ///< Reported in WorkerInfo (display only).
};

/// The replay worker: reads the panel context (ReplayInit) and the event
/// stream (ReplayEvents chunks), then scores assigned candidates in the
/// shared dist::run_worker_loop (its exit codes and its NCB_DIST_KILL_KEY
/// crash injection, matched against the candidate spec).
[[nodiscard]] int run_replay_worker(const ReplayWorkerOptions& options);

struct ReplayDispatchOptions {
  /// Where worker streams come from (required).
  net::StreamTransport* transport = nullptr;
  /// Fleet size on a spawning transport (capped at the candidate count);
  /// ignored on an accept transport.
  std::size_t workers = 2;
  /// Graph construction parameters to ship (family/arms/edge-prob/
  /// family-param/seed are read; required).
  const ExperimentConfig* graph_config = nullptr;
  /// Cooperative stop (e.g. a SIGINT flag); may be empty. Once it fires no
  /// candidate is assigned, in-flight ones drain, and no panel is built.
  std::function<bool()> should_stop;
};

struct DistPanelSummary {
  PanelResult panel;
  std::size_t requeues = 0;  ///< Crash-requeued candidate assignments.
  /// should_stop fired: `panel` holds only the pass-1 base, no candidates.
  bool interrupted = false;
  /// Per-worker accounting (candidates, bytes, wall time).
  std::vector<net::WorkerSummary> workers;
};

/// Distributed replay_panel: identical validation, pass 1 local, one
/// candidate per worker assignment, byte-identical assembled panel (or,
/// when should_stop fires, an interrupted summary with no candidates).
/// Throws std::runtime_error when a worker reports a candidate error or a
/// candidate crashes net::WorkerPool::kMaxAttempts workers.
[[nodiscard]] DistPanelSummary run_distributed_panel(
    const Graph& graph, const serve::EventLogScan& scan,
    const std::vector<std::string>& specs, const ReplayOptions& options,
    const ReplayDispatchOptions& dispatch);

}  // namespace ncb::replay
