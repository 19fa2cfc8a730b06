#include "core/index_policy.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "util/argmax.hpp"

namespace ncb {
namespace {

/// A WidthMemo slot no off-plateau refresh uses (those run at t > K ≥ 1).
constexpr TimeSlot kNoSlot = std::numeric_limits<TimeSlot>::min();

/// Min-heap ordering on (valid_until, arm): the earliest expiry at front.
struct LaterExpiry {
  bool operator()(const std::pair<TimeSlot, ArmId>& a,
                  const std::pair<TimeSlot, ArmId>& b) const noexcept {
    return a.first > b.first;
  }
};

}  // namespace

void SingleIndexPolicy::reset(const Graph& graph) {
  num_arms_ = graph.num_vertices();
  rng_ = Xoshiro256(seed_);
  cached_indices_.assign(num_arms_, 0.0);
  dirty_flag_.assign(num_arms_, 0);
  dirty_list_.clear();
  valid_until_.assign(num_arms_, 0);
  expiry_heap_.clear();
  sched_vu_.assign(num_arms_, kIndexValidForever);
  all_dirty_ = true;
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
  std::size_t best;
  if (refresh_mode() == IndexRefreshMode::kEveryRound) {
    refresh_all_indices(t, cache);
    index_refreshes_ += num_arms_;
    best = reservoir_argmax(cache, num_arms_, rng_, &tie_break_draws_);
  } else {
    refresh_incremental(t, cache);
    const std::uint8_t* bounded = bounded_.data();
    best = reservoir_argmax(cache, num_arms_, rng_, &tie_break_draws_,
                            [this, bounded, t](std::size_t k, double score) {
                              return bounded[k] != 0 ? resolve_bound(k, t)
                                                     : score;
                            });
  }
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

void SingleIndexPolicy::refresh_all_indices(TimeSlot t, double* out) const {
  for (std::size_t k = 0; k < num_arms_; ++k) {
    out[k] = index(static_cast<ArmId>(k), t);
  }
}

void SingleIndexPolicy::refresh_indices(TimeSlot t, Span<ArmId> arms,
                                        double* values,
                                        TimeSlot* valid_until) {
  for (const ArmId i : arms) {
    const auto k = static_cast<std::size_t>(i);
    values[k] = index(i, t);
    valid_until[k] = t;
  }
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

void SingleIndexPolicy::refresh_incremental(TimeSlot t, double* cache) {
  // Time moving backwards (tests probe arbitrary slots) invalidates every
  // valid_until promise; fall back to a full rebuild rather than trusting
  // stale plateaus.
  if (all_dirty_ || t < last_select_t_) {
    rebuild_cache(t, cache);
    return;
  }
  // Expired promises become dirty. A popped entry whose arm is still
  // valid (its promise was extended after the push) renews itself at the
  // authoritative expiry instead of triggering a refresh.
  while (!expiry_heap_.empty() && expiry_heap_.front().first < t) {
    const auto [vu, arm] = expiry_heap_.front();
    std::pop_heap(expiry_heap_.begin(), expiry_heap_.end(), LaterExpiry{});
    expiry_heap_.pop_back();
    const auto k = static_cast<std::size_t>(arm);
    if (vu == sched_vu_[k]) sched_vu_[k] = kIndexValidForever;
    if (valid_until_[k] == kIndexValidForever) continue;
    if (valid_until_[k] < t) {
      mark_index_dirty(arm);
    } else {
      schedule_expiry(arm, valid_until_[k]);
    }
  }
  index_refreshes_ += dirty_list_.size();
  refresh_indices(t, dirty_list_, cache, valid_until_.data());
  for (const ArmId i : dirty_list_) {
    // A value valid forever expires only by an observation's dirty mark.
    const auto k = static_cast<std::size_t>(i);
    if (valid_until_[k] != kIndexValidForever) {
      schedule_expiry(i, valid_until_[k]);
    }
    dirty_flag_[k] = 0;
  }
  dirty_list_.clear();
  if (expiry_heap_.size() > 4 * num_arms_ + 64) purge_expiry_heap();
}

void SingleIndexPolicy::rebuild_cache(TimeSlot t, double* cache) {
  std::fill(dirty_flag_.begin(), dirty_flag_.end(), std::uint8_t{0});
  dirty_list_.clear();
  // Every arm is stale: refresh them all in one batch, borrowing the
  // (empty) dirty list as the arm list.
  dirty_list_.resize(num_arms_);
  std::iota(dirty_list_.begin(), dirty_list_.end(), ArmId{0});
  index_refreshes_ += num_arms_;
  refresh_indices(t, dirty_list_, cache, valid_until_.data());
  dirty_list_.clear();
  purge_expiry_heap();
  all_dirty_ = false;
}

void SingleIndexPolicy::schedule_expiry(ArmId i, TimeSlot valid_until) {
  // An existing entry popping at or before the new expiry already
  // guarantees a timely wake-up (it renews itself if it pops early).
  const auto k = static_cast<std::size_t>(i);
  if (sched_vu_[k] <= valid_until) return;
  expiry_heap_.emplace_back(valid_until, i);
  std::push_heap(expiry_heap_.begin(), expiry_heap_.end(), LaterExpiry{});
  sched_vu_[k] = valid_until;
}

void SingleIndexPolicy::purge_expiry_heap() {
  // Drops every superseded entry in one pass by rebuilding from the
  // authoritative per-arm expiries.
  expiry_heap_.clear();
  for (std::size_t k = 0; k < num_arms_; ++k) {
    if (valid_until_[k] != kIndexValidForever) {
      expiry_heap_.emplace_back(valid_until_[k], static_cast<ArmId>(k));
      sched_vu_[k] = valid_until_[k];
    } else {
      sched_vu_[k] = kIndexValidForever;
    }
  }
  std::make_heap(expiry_heap_.begin(), expiry_heap_.end(), LaterExpiry{});
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
                                                  TimeSlot* valid_until,
                                                  double eta) {
  const std::int64_t* counts = stats_.counts();
  const double* means = stats_.means();
  for (const ArmId i : arms) {
    const auto k = static_cast<std::size_t>(i);
    const IndexRefresh r = plateau_refresh(i, means[k], counts[k], t, eta);
    values[k] = r.value;
    valid_until[k] = r.valid_until;
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
