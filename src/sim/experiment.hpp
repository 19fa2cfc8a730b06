// Declarative experiment configurations: the graph family, K, p, horizon,
// replications and seed of one workload, and the builders that turn them
// into a relation graph, a bandit instance and a strategy family. The sweep
// engine (exp/) expands specs/*.sweep files into these, so every figure's
// workload is constructed in exactly one place.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "env/instance.hpp"
#include "strategy/feasible_set.hpp"

namespace ncb {

/// Graph family selector for experiment configs.
enum class GraphFamily {
  kErdosRenyi,
  kComplete,
  kEmpty,
  kStar,
  kCycle,
  kDisjointCliques,
  kBarabasiAlbert,
  kWattsStrogatz,
};

struct ExperimentConfig {
  std::string name = "experiment";
  GraphFamily graph_family = GraphFamily::kErdosRenyi;
  std::size_t num_arms = 100;          ///< K.
  double edge_probability = 0.3;       ///< ER p; or WS beta.
  std::size_t family_param = 4;        ///< cliques count / BA attach / WS k.
  TimeSlot horizon = 10000;            ///< n.
  std::size_t replications = 20;
  std::uint64_t seed = 20170605;
  // Combinatorial-only:
  std::size_t strategy_size = 3;       ///< M.
  bool exact_size_strategies = false;  ///< |s| = M rather than |s| ≤ M.

  [[nodiscard]] std::string describe() const;
};

/// Deterministically builds the config's relation graph.
[[nodiscard]] Graph build_graph(const ExperimentConfig& config);

/// Builds the §VII instance: config's graph + Bernoulli arms with means
/// uniform in [0, 1] (drawn from the config seed).
[[nodiscard]] BanditInstance build_instance(const ExperimentConfig& config);

/// Builds the subset strategy family (|s| ≤ M or = M) over the given graph.
[[nodiscard]] std::shared_ptr<const FeasibleSet> build_family(
    const ExperimentConfig& config, const Graph& graph);

/// Paper §VII Fig. 3 instance (K = 100 arms, p = 0.3, n = 10000), the
/// default of the bench mains; specs/fig3.sweep is the same workload.
[[nodiscard]] ExperimentConfig fig3_config();

}  // namespace ncb
