// Schema-versioned sweep output: JSON (the resume-able primary artifact)
// and CSV (a long-format table for plotting).
//
// The JSON document is line-oriented on purpose: one self-contained job
// record per line inside the "jobs" array. --resume scans an existing
// (possibly truncated) file for job lines, keeps them verbatim, and runs
// only the missing grid points — so a resumed sweep's output is
// byte-identical to a single uninterrupted run. Job records carry no
// timing and all numbers print in shortest round-trip form, which makes
// the file bit-reproducible across thread counts and shard sizes.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "exp/aggregate.hpp"
#include "exp/sweep_spec.hpp"

namespace ncb::exp {

/// Output schema version (bump on any field change).
inline constexpr int kSweepSchemaVersion = 1;

/// Shortest decimal that round-trips to exactly `value` (tries %.15g, then
/// %.16g, %.17g). Deterministic, so emitted files are byte-comparable.
[[nodiscard]] std::string json_number(double value);

/// Escapes backslash, quote, and control characters for a JSON string.
[[nodiscard]] std::string json_escape(const std::string& text);

/// One job's deterministic output record — everything a figure needs, no
/// timing (wall-clock stays on stdout so files stay bit-reproducible).
struct JobRecord {
  std::string key;
  std::string policy;
  std::string scenario;  ///< scenario_token form.
  std::string graph;     ///< family_token form.
  std::size_t arms = 0;
  double p = 0.0;
  std::size_t family_param = 0;
  TimeSlot horizon = 0;
  std::size_t replications = 0;
  std::uint64_t seed = 0;
  std::size_t strategy_size = 0;  ///< 0 for single-play scenarios.
  double optimal_per_slot = 0.0;
  std::vector<TimeSlot> checkpoints;
  std::vector<double> expected_mean;
  std::vector<double> expected_sd;
  std::vector<double> cumulative_mean;
  std::vector<double> cumulative_sd;
  double final_mean = 0.0;
  double final_sd = 0.0;
  double final_min = 0.0;
  double final_max = 0.0;

  [[nodiscard]] static JobRecord from(const SweepJob& job,
                                      const JobAggregate& aggregate);
};

/// Renders one record as a single JSON object line (fixed field order).
[[nodiscard]] std::string render_job_json(const JobRecord& record);

/// Parses a line produced by render_job_json. Throws std::invalid_argument
/// on malformed input.
[[nodiscard]] JobRecord parse_job_json(const std::string& line);

/// Document prefix up to (and including) the opening of the "jobs" array.
/// Incremental checkpoint writers emit this once, then append one job line
/// (with a trailing comma) per finished job; load_job_lines tolerates the
/// missing footer and trailing commas such a file has after a crash.
[[nodiscard]] std::string render_sweep_json_header(const SweepSpec& spec);

/// Assembles the full document: schema + spec echo + one job per line.
[[nodiscard]] std::string render_sweep_json(
    const SweepSpec& spec, const std::vector<std::string>& job_lines);

/// Scans an existing sweep JSON (tolerating truncation) for job lines,
/// keyed by their "key" field. Returns empty when the file does not exist.
[[nodiscard]] std::map<std::string, std::string> load_job_lines(
    const std::string& path);

/// Replay panel output schema version (independent of the sweep schema;
/// bump on any field change).
inline constexpr int kReplaySchemaVersion = 1;

/// One candidate policy's offline-evaluation record — the replay
/// counterpart of JobRecord. Rendered one-per-line inside the panel's
/// "policies" array with the same json_number / json_escape conventions as
/// sweep job lines, so replay panels and sweep outputs merge into one
/// plotting pipeline (both are keyed by a "policy" spec string).
struct ReplayRecord {
  std::string policy;       ///< Candidate registry spec.
  std::string description;  ///< Built policy's describe().
  bool logging = false;     ///< True for the marked logging policy.
  double epsilon = 0.0;     ///< Engine-level exploration assumed.
  std::uint64_t seed = 0;
  std::uint64_t decisions = 0;
  std::uint64_t events = 0;   ///< Joined feedback events scored.
  std::uint64_t matched = 0;  ///< Sampled action == logged action.
  double ips_mean = 0.0;
  double ips_se = 0.0;
  double snips = 0.0;
  double dr_mean = 0.0;
  double dr_se = 0.0;
  double ess = 0.0;
  double max_weight = 0.0;
};

/// Log-level context echoed once per panel document.
struct ReplayPanelMeta {
  std::string log_path;
  std::uint64_t decisions = 0;
  std::uint64_t feedbacks = 0;
  std::uint64_t joined = 0;
  bool truncated_tail = false;
  std::size_t arms = 0;
  std::string graph;  ///< family_token form.
  double min_propensity = 0.0;
  double empirical_mean = 0.0;
  double empirical_se = 0.0;
};

/// Renders one candidate record as a single JSON object line (fixed field
/// order, shortest round-trip numbers — byte-reproducible).
[[nodiscard]] std::string render_replay_json(const ReplayRecord& record);

/// Assembles the full panel document: schema + log meta + one candidate
/// per line in the "policies" array.
[[nodiscard]] std::string render_replay_panel_json(
    const ReplayPanelMeta& meta, const std::vector<std::string>& lines);

/// Long-format CSV: one row per (job, checkpoint) plus the job's final
/// scalar columns repeated on each row.
[[nodiscard]] std::string render_sweep_csv(
    const std::vector<JobRecord>& records);

/// Writes `content` to `path` atomically enough for CI (temp + rename).
/// Throws std::runtime_error on I/O failure.
void write_file(const std::string& path, const std::string& content);

}  // namespace ncb::exp
