// Multi-replication experiment driver.
//
// Replications run through exp::run_replications (exp/shard_scheduler.hpp),
// the one replication loop: replication r draws counter-based environment
// and policy seeds from the master seed, and its series are folded into
// per-slot Welford accumulators strictly in replication order. A
// ReplicatedResult is therefore bit-identical to a sequential in-order run
// for any pool and any thread count.
#pragma once

#include <functional>
#include <memory>

#include "sim/runner.hpp"
#include "sim/thread_pool.hpp"
#include "util/running_stat.hpp"

namespace ncb {

/// Aggregated series over replications. Index i holds stats for slot i+1.
struct ReplicatedResult {
  Scenario scenario = Scenario::kSso;
  std::size_t replications = 0;
  SeriesStat per_slot_regret;
  SeriesStat cumulative_regret;
  SeriesStat per_slot_pseudo_regret;
  RunningStat final_cumulative;   ///< Cumulative regret at the horizon.
  double optimal_per_slot = 0.0;

  /// Mean expected (per-slot) regret series — what Figs. 3(a), 4, 5, 6 plot.
  [[nodiscard]] std::vector<double> expected_regret() const {
    return per_slot_regret.means();
  }
  /// Mean accumulated regret series — Fig. 3(b).
  [[nodiscard]] std::vector<double> accumulated_regret() const {
    return cumulative_regret.means();
  }
  /// Mean average regret R_t/t series (a smoother zero-regret diagnostic).
  [[nodiscard]] std::vector<double> average_regret() const;
};

/// Creates a fresh policy for one replication; `seed` is that replication's
/// policy seed.
using SinglePolicyFactory =
    std::function<std::unique_ptr<SinglePlayPolicy>(std::uint64_t seed)>;
using CombinatorialPolicyFactory =
    std::function<std::unique_ptr<CombinatorialPolicy>(std::uint64_t seed)>;

struct ReplicationOptions {
  std::size_t replications = 20;
  std::uint64_t master_seed = 20170605;  // ICDCS'17
  RunnerOptions runner;
  /// Worker pool to parallelize over; nullptr runs sequentially (same bits).
  ThreadPool* pool = nullptr;
};

/// Runs `options.replications` independent single-play simulations of the
/// instance and aggregates their regret series.
[[nodiscard]] ReplicatedResult run_replicated_single(
    const SinglePolicyFactory& make_policy, const BanditInstance& instance,
    Scenario scenario, const ReplicationOptions& options);

/// Combinatorial counterpart; `family` must be built over the instance graph.
[[nodiscard]] ReplicatedResult run_replicated_combinatorial(
    const CombinatorialPolicyFactory& make_policy,
    const BanditInstance& instance, const FeasibleSet& family,
    Scenario scenario, const ReplicationOptions& options);

}  // namespace ncb
