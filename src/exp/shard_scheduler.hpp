// The replication driver: the one loop behind every replicated result,
// reached through exp::run_job_replications (exp/sweep_runner.hpp).
//
// Replication r seeds its environment with derive_seed_at(seed, 2r) and its
// policy with derive_seed_at(seed, 2r + 1) (util/rng.hpp), so its run does
// not depend on which thread runs it or when. Replications are cut into
// contiguous shards, one thread-pool task each; sharding is horizon-aware:
// long-horizon jobs get shards of one replication (maximum parallelism),
// short jobs get bigger shards so per-task overhead stays negligible.
// Results are folded strictly in replication order, as soon as their turn
// comes (InOrderFold): a shard that finishes ahead of its turn parks until
// every earlier shard is folded. Order-sensitive accumulation (Welford
// means and variances) is therefore bit-identical to a sequential in-order
// run for any pool, any thread count and any shard plan, while memory
// stays at the few shards that finished early — never every replication's
// result. The distributed sweep folds its workers' shards with the same
// InOrderFold (dist/coordinator.hpp), cut by plan_dispatch_shards.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <type_traits>
#include <utility>
#include <vector>

#include "env/environment.hpp"
#include "sim/thread_pool.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace ncb::exp {

/// Default work target per shard in simulated slots (shard replications ×
/// horizon). 16k slots splits a fig3-sized job (n = 10^4) into
/// one-replication shards while keeping tiny-horizon shards chunky.
inline constexpr std::size_t kDefaultSlotsPerShard = 16384;

/// A partition of replications [first, first + replications) into
/// contiguous shards of `shard_size` (the last shard may be short).
struct ShardPlan {
  std::size_t replications = 0;
  std::size_t shard_size = 1;
  std::size_t first = 0;  ///< Nonzero when the plan covers part of a job.

  [[nodiscard]] std::size_t num_shards() const noexcept {
    return shard_size == 0 ? 0
                           : (replications + shard_size - 1) / shard_size;
  }
  [[nodiscard]] std::size_t shard_begin(std::size_t shard) const noexcept {
    return first + shard * shard_size;
  }
  [[nodiscard]] std::size_t shard_end(std::size_t shard) const noexcept {
    const std::size_t end = (shard + 1) * shard_size;
    return first + (end < replications ? end : replications);
  }
};

/// Horizon-aware shard sizing: shard_size ≈ target_slots / horizon, clamped
/// to [1, replications]. A non-zero `shard_size_override` wins outright.
[[nodiscard]] ShardPlan plan_shards(
    std::size_t replications, TimeSlot horizon,
    std::size_t shard_size_override = 0,
    std::size_t target_slots_per_shard = kDefaultSlotsPerShard);

/// The distributed sweep's cut of one job into dispatched shards:
/// plan_shards' horizon-aware size rounded up to a multiple of
/// `threads_per_worker` (clamped to the job), so each worker thread runs
/// equal replication counts. A horizon-1 job stays one shard. A non-zero
/// `shard_size_override` wins outright, as in plan_shards.
[[nodiscard]] ShardPlan plan_dispatch_shards(std::size_t replications,
                                             TimeSlot horizon,
                                             std::size_t shard_size_override,
                                             std::size_t threads_per_worker);

/// Folds shards' samples strictly in shard order: deliver() parks a shard
/// that arrives ahead of its turn and folds every shard whose turn has
/// come. Not synchronised — callers serialise deliver().
template <typename Sample>
class InOrderFold {
 public:
  /// Hands shard `shard`'s samples over; `fold(std::move(sample))` runs for
  /// each sample of every shard that is now next in order.
  template <typename Fold>
  void deliver(std::size_t shard, std::vector<Sample> samples,
               const Fold& fold) {
    parked_.emplace(shard, std::move(samples));
    for (auto it = parked_.find(next_); it != parked_.end();
         it = parked_.find(next_)) {
      for (Sample& sample : it->second) fold(std::move(sample));
      parked_.erase(it);
      ++next_;
    }
  }

  /// Shards folded so far (every shard below this index).
  [[nodiscard]] std::size_t folded() const noexcept { return next_; }

 private:
  std::map<std::size_t, std::vector<Sample>> parked_;
  std::size_t next_ = 0;
};

/// Runs every replication of `plan` over the shared `instance` and folds
/// the results in replication order (seeds follow the replication number,
/// so a plan with `first` > 0 runs exactly those replications of the job).
///
/// `run(env, policy_seed)` plays one replication on the worker thread and
/// returns what gets parked; it must be thread-safe across replications.
/// `fold(std::move(sample))` is called once per replication, strictly in
/// replication order, under the driver's lock (never concurrently).
/// Shards run on `pool` when non-null, inline in shard order otherwise.
/// `should_stop` (may be empty) is checked before each shard, from worker
/// threads too; once it returns true the remaining shards are skipped and
/// folding stops at the first skipped replication. Blocks until every
/// shard ran; rethrows the first exception a shard raised.
template <typename Run, typename Fold>
void run_replications(const ShardPlan& plan,
                      const std::shared_ptr<const BanditInstance>& instance,
                      std::uint64_t seed, ThreadPool* pool,
                      const std::function<bool()>& should_stop, const Run& run,
                      const Fold& fold) {
  using Sample = std::decay_t<
      std::invoke_result_t<const Run&, Environment&, std::uint64_t>>;
  std::mutex mutex;
  InOrderFold<Sample> order;

  const auto run_shard = [&](std::size_t s) {
    if (should_stop && should_stop()) return;
    std::vector<Sample> samples;
    samples.reserve(plan.shard_end(s) - plan.shard_begin(s));
    for (std::size_t r = plan.shard_begin(s); r < plan.shard_end(s); ++r) {
      Environment env(instance, derive_seed_at(seed, 2 * r));
      samples.push_back(run(env, derive_seed_at(seed, 2 * r + 1)));
    }
    const std::lock_guard<std::mutex> lock(mutex);
    order.deliver(s, std::move(samples), fold);
  };

  if (pool) {
    pool->submit_bulk(0, plan.num_shards(), run_shard);
    pool->wait_idle();
  } else {
    for (std::size_t s = 0; s < plan.num_shards(); ++s) run_shard(s);
  }
}

}  // namespace ncb::exp
