#include "core/index_policy.hpp"

#include <numeric>
#include <stdexcept>

#include "util/argmax.hpp"

namespace ncb {
namespace {

/// A WidthMemo slot no refresh uses (bounds are taken only at t ≥ 1).
constexpr TimeSlot kNoSlot = std::numeric_limits<TimeSlot>::min();

}  // namespace

void SingleIndexPolicy::reset(const Graph& graph) {
  num_arms_ = graph.num_vertices();
  rng_ = Xoshiro256(seed_);
  cached_indices_.assign(num_arms_, 0.0);
  all_arms_.resize(num_arms_);
  std::iota(all_arms_.begin(), all_arms_.end(), ArmId{0});
  dirty_flag_.assign(num_arms_, 0);
  dirty_list_.clear();
  all_dirty_ = true;
  valid_through_ = std::numeric_limits<TimeSlot>::min();
  last_select_t_ = std::numeric_limits<TimeSlot>::min();
  tie_break_draws_ = 0;
  width_memo_.clear();
  bound_memo_.clear();
  bounded_.assign(num_arms_, 0);
  bounded_arm_.resize(num_arms_);
  width_evaluations_ = 0;
  index_refreshes_ = 0;
  bound_evaluations_ = 0;
  on_reset(graph);
}

ArmId SingleIndexPolicy::select(TimeSlot t) {
  if (num_arms_ == 0) {
    throw std::logic_error(name() + ": reset() not called");
  }
  double* cache = cached_indices_.data();
  // Rebuild when the cache is all-dirty, past the slot it holds through, or
  // behind the last select (an entry holds only forwards from its slot);
  // otherwise refresh just the stale arms.
  if (all_dirty_ || t > valid_through_ || t < last_select_t_) {
    valid_through_ = hold_through(t);
    refresh_all_indices(t, cache);
    index_refreshes_ += num_arms_;
    all_dirty_ = false;
  } else {
    refresh_indices(t, dirty_list_, cache);
    index_refreshes_ += dirty_list_.size();
  }
  for (const ArmId i : dirty_list_) {
    dirty_flag_[static_cast<std::size_t>(i)] = 0;
  }
  dirty_list_.clear();
  const std::uint8_t* bounded = bounded_.data();
  const std::size_t best = reservoir_argmax(
      cache, num_arms_, rng_, &tie_break_draws_,
      [this, bounded, t](std::size_t k, double score) {
        return bounded[k] != 0 ? resolve_bound(k, t) : score;
      });
  last_select_t_ = t;
  return refine_selection(static_cast<ArmId>(best));
}

std::vector<double> SingleIndexPolicy::cached_indices() const {
  std::vector<double> values = cached_indices_;
  for (std::size_t k = 0; k < values.size(); ++k) {
    if (bounded_[k] == 0) continue;
    const BoundedArm& arm = bounded_arm_[k];
    values[k] = arm.estimate + arm.eta * width_at(arm.count, last_select_t_);
  }
  return values;
}

void SingleIndexPolicy::refresh_all_indices(TimeSlot t, double* out) {
  refresh_indices(t, all_arms_, out);
}

void SingleIndexPolicy::refresh_indices(TimeSlot t, Span<ArmId> arms,
                                        double* values) {
  for (const ArmId i : arms) values[static_cast<std::size_t>(i)] = index(i, t);
}

double SingleIndexPolicy::memo_width(std::int64_t count, TimeSlot t) {
  const auto c = static_cast<std::size_t>(count);
  if (c >= width_memo_.size()) width_memo_.resize(c + 1, {kNoSlot, 0.0});
  WidthMemo& memo = width_memo_[c];
  if (memo.slot != t) {
    memo = {t, width_at(count, t)};
    ++width_evaluations_;
  }
  return memo.width;
}

double SingleIndexPolicy::memo_bound_width(std::int64_t count,
                                           TimeSlot horizon) {
  const auto c = static_cast<std::size_t>(count);
  if (c >= bound_memo_.size()) bound_memo_.resize(c + 1, {kNoSlot, 0.0});
  WidthMemo& memo = bound_memo_[c];
  if (memo.slot != horizon) {
    memo = {horizon, width_at(count, horizon) * (1.0 + 1e-9)};
    ++bound_evaluations_;
  }
  return memo.width;
}

void ArmStatIndexPolicy::on_reset(const Graph& /*graph*/) {
  stats_.reset(num_arms_);
}

void ArmStatIndexPolicy::observe(ArmId /*played*/, TimeSlot /*t*/,
                                 ObservationSpan observations) {
  for (const Observation& obs : observations) {
    absorb(obs.arm, obs.value);
  }
}

void ArmStatIndexPolicy::refresh_plateau_indices(TimeSlot t, Span<ArmId> arms,
                                                  double* values,
                                                  double eta) {
  const std::int64_t* counts = stats_.counts();
  const double* means = stats_.means();
  for (const ArmId i : arms) {
    const auto k = static_cast<std::size_t>(i);
    values[k] = plateau_refresh(i, means[k], counts[k], t, eta);
  }
}

ArmId ArmStatIndexPolicy::best_empirical_in_neighborhood(const Graph& graph,
                                                         ArmId best) const {
  const std::int64_t* counts = stats_.counts();
  const double* means = stats_.means();
  ArmId play = best;
  double play_mean = means[static_cast<std::size_t>(best)];
  for (const ArmId j : graph.closed_neighborhood(best)) {
    const auto k = static_cast<std::size_t>(j);
    if (counts[k] > 0 && means[k] > play_mean) {
      play = j;
      play_mean = means[k];
    }
  }
  return play;
}

}  // namespace ncb
