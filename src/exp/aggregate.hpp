// Streaming mergeable aggregates for the sweep engine.
//
// A replication's regret trajectory is sampled at a fixed checkpoint grid
// the moment the run finishes, then the trajectory is dropped — shards park
// only O(reps × checkpoints) samples, never full horizon-length series. Job
// aggregation feeds the samples to Welford accumulators in global
// replication order (exp::run_replications folds them that way), so the
// aggregate is bit-identical for any thread count AND any shard size.
#pragma once

#include <vector>

#include "sim/runner.hpp"
#include "util/running_stat.hpp"

namespace ncb::exp {

/// Log-spaced time checkpoints in [1, horizon]: `count` geometrically spaced
/// slots (deduplicated, strictly increasing, always ending at `horizon`).
/// `count == 0` (or count >= horizon) yields the dense grid 1..horizon.
[[nodiscard]] std::vector<TimeSlot> checkpoint_grid(TimeSlot horizon,
                                                    std::size_t count);

/// One replication's regret curve compressed onto a checkpoint grid.
struct RepSample {
  std::vector<double> per_slot;    ///< Per-slot (expected) regret at grid[i].
  std::vector<double> cumulative;  ///< Accumulated regret at grid[i].
  double final_cumulative = 0.0;   ///< Accumulated regret at the horizon.
};

/// Samples a finished run at the grid slots. The run must have recorded its
/// series (RunnerOptions.record_series) over a horizon >= grid.back().
[[nodiscard]] RepSample sample_run(const RunResult& run,
                                   const std::vector<TimeSlot>& grid);

/// Welford mean/variance of the regret curves at the checkpoint grid, plus
/// the final-cumulative scalar distribution. add_rep() must be called in
/// global replication order for bit-reproducible output.
class JobAggregate {
 public:
  JobAggregate() = default;
  explicit JobAggregate(std::vector<TimeSlot> grid)
      : grid_(std::move(grid)),
        expected_(grid_.size()),
        cumulative_(grid_.size()) {}

  void add_rep(const RepSample& sample);
  void set_optimal(double optimal_per_slot) noexcept {
    optimal_per_slot_ = optimal_per_slot;
  }

  [[nodiscard]] const std::vector<TimeSlot>& grid() const noexcept {
    return grid_;
  }
  [[nodiscard]] const SeriesStat& expected() const noexcept {
    return expected_;
  }
  [[nodiscard]] const SeriesStat& cumulative() const noexcept {
    return cumulative_;
  }
  [[nodiscard]] const RunningStat& final_cumulative() const noexcept {
    return final_;
  }
  [[nodiscard]] std::size_t replications() const noexcept {
    return final_.count();
  }
  [[nodiscard]] double optimal_per_slot() const noexcept {
    return optimal_per_slot_;
  }

 private:
  std::vector<TimeSlot> grid_;
  SeriesStat expected_;
  SeriesStat cumulative_;
  RunningStat final_;
  double optimal_per_slot_ = 0.0;
};

}  // namespace ncb::exp
