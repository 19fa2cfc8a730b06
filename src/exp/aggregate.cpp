#include "exp/aggregate.hpp"

#include <cmath>
#include <numeric>
#include <stdexcept>

namespace ncb::exp {

std::vector<TimeSlot> checkpoint_grid(TimeSlot horizon, std::size_t count) {
  if (horizon <= 0) {
    throw std::invalid_argument("checkpoint_grid: horizon must be positive");
  }
  std::vector<TimeSlot> grid;
  if (count == 0 || static_cast<TimeSlot>(count) >= horizon) {
    grid.resize(static_cast<std::size_t>(horizon));
    std::iota(grid.begin(), grid.end(), TimeSlot{1});
    return grid;
  }
  if (count == 1) return {horizon};
  grid.reserve(count);
  const double log_h = std::log(static_cast<double>(horizon));
  for (std::size_t k = 0; k < count; ++k) {
    const double frac =
        static_cast<double>(k) / static_cast<double>(count - 1);
    auto t = static_cast<TimeSlot>(std::llround(std::exp(log_h * frac)));
    if (t < 1) t = 1;
    if (t > horizon) t = horizon;
    if (grid.empty() || t > grid.back()) grid.push_back(t);
  }
  // llround(exp(log_h)) is horizon up to rounding; pin the endpoint exactly.
  if (grid.back() != horizon) grid.push_back(horizon);
  return grid;
}

RepSample sample_run(const RunResult& run, const std::vector<TimeSlot>& grid) {
  RepSample sample;
  sample.per_slot.reserve(grid.size());
  sample.cumulative.reserve(grid.size());
  for (const TimeSlot t : grid) {
    const auto i = static_cast<std::size_t>(t - 1);
    if (i >= run.per_slot_regret.size()) {
      throw std::invalid_argument("sample_run: grid exceeds recorded series");
    }
    sample.per_slot.push_back(run.per_slot_regret[i]);
    sample.cumulative.push_back(run.cumulative_regret[i]);
  }
  sample.final_cumulative =
      run.cumulative_regret.empty() ? 0.0 : run.cumulative_regret.back();
  sample.optimal_per_slot = run.optimal_per_slot;
  return sample;
}

void JobAggregate::add_rep(const RepSample& sample) {
  if (sample.per_slot.size() != grid_.size() ||
      sample.cumulative.size() != grid_.size()) {
    throw std::invalid_argument("JobAggregate: sample/grid length mismatch");
  }
  expected_.add_series(sample.per_slot);
  cumulative_.add_series(sample.cumulative);
  final_.add(sample.final_cumulative);
  optimal_per_slot_ = sample.optimal_per_slot;
}

}  // namespace ncb::exp
