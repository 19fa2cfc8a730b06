// Declarative sweep grids over ExperimentConfig axes.
//
// A SweepSpec names a scenario, a set of policy registry specs, and lists of
// graph families / K / p / family-param / horizon values; expand() takes the
// cross product into a flat, deterministically-ordered job list. Axes a
// graph family does not consume (p for a complete graph, family-param for
// ER) are collapsed so the grid never contains duplicate workloads.
//
// Specs load from a small line-based text format (see SweepSpec::parse and
// README "Running sweeps"):
//
//     # fig3: MOSS vs DFL-SSO on the paper's ER graph
//     name = fig3
//     scenario = sso
//     policies = moss, dfl-sso
//     graphs = er
//     arms = 100
//     p = 0.3
//     horizons = 10000
//     replications = 20
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "sim/experiment.hpp"

namespace ncb::exp {

/// Stable lowercase token for a graph family ("er", "complete", ...).
[[nodiscard]] const char* family_token(GraphFamily family);
/// Inverse of family_token; throws std::invalid_argument on unknown tokens.
[[nodiscard]] GraphFamily parse_family(const std::string& token);

/// Stable lowercase token for a scenario ("sso", "cso", "ssr", "csr").
[[nodiscard]] const char* scenario_token(Scenario scenario);
/// Inverse of scenario_token; throws std::invalid_argument on unknown tokens.
[[nodiscard]] Scenario parse_scenario(const std::string& token);

/// One expanded grid point: a concrete ExperimentConfig plus the policy to
/// run on it. `key` uniquely identifies the job inside its sweep and is the
/// resume unit of the emitters.
struct SweepJob {
  std::size_t index = 0;  ///< Position in expansion order.
  /// Self-describing grid coordinates, e.g.
  /// "sso:dfl-sso@er,K=100,p=0.3,n=10000" (combinatorial keys append
  /// ",M=<strategy-size>[,exact]"). Seed/replications/checkpoints are NOT
  /// part of the key; the resume path validates them from the stored
  /// record instead.
  std::string key;
  std::string policy;     ///< Policy registry spec string.
  Scenario scenario = Scenario::kSso;
  ExperimentConfig config;
};

struct SweepSpec {
  std::string name = "sweep";
  Scenario scenario = Scenario::kSso;
  std::vector<std::string> policies;
  std::vector<GraphFamily> graphs{GraphFamily::kErdosRenyi};
  std::vector<std::size_t> arms{100};
  std::vector<double> edge_probabilities{0.3};
  std::vector<std::size_t> family_params{4};
  std::vector<TimeSlot> horizons{10000};
  std::size_t replications = 20;
  std::uint64_t seed = 20170605;
  /// Log-spaced checkpoint count per curve; 0 records every slot.
  std::size_t checkpoints = 30;
  // Combinatorial-only:
  std::size_t strategy_size = 3;
  bool exact_size_strategies = false;
  /// Fixed shard size; 0 picks the horizon-aware size per job.
  std::size_t shard_size = 0;

  /// Parses the `key = value` spec format. Throws std::invalid_argument
  /// with a line number on unknown keys or malformed values.
  [[nodiscard]] static SweepSpec parse(std::istream& in);
  /// parse() over a file; throws std::invalid_argument when unreadable.
  [[nodiscard]] static SweepSpec parse_file(const std::string& path);

  /// Expands the grid into jobs (graphs → arms → p → family-param →
  /// horizons → policies, policies innermost). Throws on an empty policy
  /// list, empty axes, or a policy spec the registry rejects for the
  /// scenario's play type.
  [[nodiscard]] std::vector<SweepJob> expand() const;

  /// One-line JSON echo of the spec (embedded in sweep output headers).
  [[nodiscard]] std::string canonical() const;
};

}  // namespace ncb::exp
