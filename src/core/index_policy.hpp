// Shared skeleton for the single-play index policies.
//
// Every stochastic index learner in this codebase (DFL-SSO, DFL-SSR, MOSS,
// UCB1, UCB-N, KL-UCB) selects argmax_i index(i, t) with uniform random
// tie-breaking. SingleIndexPolicy owns that loop plus the seeded reset
// plumbing so the per-policy code is just the index formula and the
// statistics it reads.
//
// select() never evaluates the virtual index() per arm. It maintains a flat
// per-arm index array and runs the two-level block-skipping reservoir
// argmax (util/argmax.hpp) over it; how the array is kept current is the
// policy's IndexRefreshMode:
//
//  * kEveryRound — the index depends on t every slot (UCB1's ln t, KL-UCB's
//    budget). select() bulk-refreshes the whole array through one virtual
//    refresh_all_indices() call, which hoists the per-round shared terms
//    (log t, the KL budget) out of the per-arm loop.
//  * kIncremental — the index of an untouched arm is constant until a known
//    future slot (the DFL family: width = sqrt(log⁺(t/(K·O_i))/O_i) is
//    exactly zero while t ≤ K·O_i, so the index sits at the empirical mean
//    on a "plateau"). observe() marks exactly the touched arms stale via
//    mark_index_dirty(); select() re-refreshes an arm only when it is dirty
//    or its plateau expired — tracked by a lazy-deletion min-heap keyed on
//    valid_until — and hands the whole stale list to one virtual
//    refresh_indices() call, which writes each value with the last slot it
//    stays valid (valid_until).
//
// The kIncremental policies share one index formula, plateau_refresh():
// estimate + η·width(t/(K·O), O), exactly estimate + η·0 through slot K·O.
// Off the plateau the width depends on (t, O) only, and the arms refreshed
// in one select share few distinct counts (on the benchmark's DFL-CSO
// instance, ≈77 off-plateau com-arms per slot share ≈1.4), so
// plateau_refresh() evaluates exploration_width once per distinct count
// per select from a memo cleared on reset(); width_evaluations() counts
// those evaluations.
//
// Both paths produce bit-for-the-comparisons-identical values to the
// from-scratch index(), which never reads the memo, so the argmax
// comparisons — and therefore the tie-break RNG draw sequence and every
// downstream selection — are exactly reproduced (regression-tested against
// pre-refactor goldens).
//
// ArmStatIndexPolicy additionally owns the per-arm SoA stats table and
// default-implements observe() as the *batched* update path: the whole
// ObservationSpan is folded into the stats in one pass and each touched arm
// is dirty-marked, which is what the side-observation learners (DFL-SSO,
// UCB-N, KL-UCB-N) want. Played-only learners (MOSS, UCB1) override
// observe() to filter.
#pragma once

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "core/arm_stats.hpp"
#include "core/policy.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"
#include "util/span.hpp"

namespace ncb {

/// How a policy's cached per-arm indices age between selects.
enum class IndexRefreshMode {
  kEveryRound,   ///< t-dependent every slot: bulk refresh per select.
  kIncremental,  ///< changes only on observation or plateau expiry.
};

/// Sentinel valid_until: the cached value never expires on its own; only
/// dirty-marking (an observation touching the arm) invalidates it.
inline constexpr TimeSlot kIndexValidForever =
    std::numeric_limits<TimeSlot>::max();

/// One index value and the last slot it stays valid for, assuming the
/// arm's statistics do not change in between.
struct IndexRefresh {
  double value;
  TimeSlot valid_until;
};

class SingleIndexPolicy : public SinglePlayPolicy {
 public:
  void reset(const Graph& graph) final;
  [[nodiscard]] ArmId select(TimeSlot t) final;

  /// The index value of arm i at slot t (+inf forces exploration). This is
  /// the from-scratch reference; select() reads the cached array instead.
  [[nodiscard]] virtual double index(ArmId i, TimeSlot t) const = 0;

  /// Total uniform_int tie-break draws consumed by select() since the last
  /// reset() — part of the reproducibility contract, pinned by goldens.
  [[nodiscard]] std::uint64_t tie_break_draws() const noexcept {
    return tie_break_draws_;
  }

  /// exploration_width evaluations made by plateau_refresh() since the last
  /// reset() — one per distinct count O per select off the plateau.
  [[nodiscard]] std::uint64_t width_evaluations() const noexcept {
    return width_evaluations_;
  }

  /// The per-arm index array as of the last select() (diagnostics/tests).
  [[nodiscard]] const std::vector<double>& cached_indices() const noexcept {
    return cached_indices_;
  }

  /// Test/bench hook: drops every cached value so the next select() does a
  /// full from-scratch rebuild.
  void invalidate_index_cache() noexcept { all_dirty_ = true; }

 protected:
  explicit SingleIndexPolicy(std::uint64_t seed) : rng_(seed), seed_(seed) {}

  /// Re-initializes subclass statistics; called by reset() after the arm
  /// count and RNG have been restored.
  virtual void on_reset(const Graph& graph) = 0;

  /// Post-selection refinement hook: maps the argmax-index arm to the arm
  /// actually played (the §IX neighbor-greedy / MaxN heuristics).
  [[nodiscard]] virtual ArmId refine_selection(ArmId best) { return best; }

  /// Which maintenance scheme select() runs; kEveryRound is the safe
  /// default for any t-dependent index.
  [[nodiscard]] virtual IndexRefreshMode refresh_mode() const {
    return IndexRefreshMode::kEveryRound;
  }

  /// Bulk refresh: writes the index of every arm at slot t into
  /// out[0, num_arms_). The default loops over the virtual index();
  /// kEveryRound policies override it to hoist per-round shared terms and
  /// stream the SoA stat arrays.
  virtual void refresh_all_indices(TimeSlot t, double* out) const;

  /// Incremental refresh of the stale arms (kIncremental policies
  /// override): for each i in `arms`, writes values[i] and valid_until[i].
  /// values[i] must equal index(i, t) numerically, and must keep equaling
  /// index(i, t') for every t ≤ t' ≤ valid_until[i] absent observations of
  /// the arm. The default writes index(i, t), valid through t only.
  virtual void refresh_indices(TimeSlot t, Span<ArmId> arms, double* values,
                               TimeSlot* valid_until);

  /// The count-plateau index shared by DFL-SSO, MOSS and DFL-SSR, from an
  /// arm's estimate and its count O at slot t: +inf, valid forever, at
  /// O = 0; else estimate + η·exploration_width(t/(K·O), O). The width is
  /// exactly zero while t ≤ K·O (the ratio rounds to ≤ 1.0: t and K·O are
  /// exact in double up to 2^53 and division is monotonic), so the value
  /// holds through slot K·O; off the plateau it holds for slot t only.
  /// The uncached reference that index() uses.
  [[nodiscard]] IndexRefresh plateau_index(double estimate,
                                           std::int64_t count, TimeSlot t,
                                           double eta = 1.0) const {
    if (count == 0) {
      return {std::numeric_limits<double>::infinity(), kIndexValidForever};
    }
    const std::int64_t plateau = static_cast<std::int64_t>(num_arms_) * count;
    if (t <= plateau) return {estimate + eta * 0.0, plateau};
    return {estimate + eta * width_at(count, t), t};
  }

  /// plateau_index() for refresh_indices(): bit-identical, with the width
  /// read from a per-slot memo keyed by count. Off the plateau O < t/K, so
  /// the memo holds at most t/K + 1 entries.
  [[nodiscard]] IndexRefresh plateau_refresh(double estimate,
                                             std::int64_t count, TimeSlot t,
                                             double eta = 1.0) {
    if (count == 0 || t <= static_cast<std::int64_t>(num_arms_) * count) {
      return plateau_index(estimate, count, t, eta);
    }
    return {estimate + eta * memo_width(count, t), t};
  }

  /// Marks arm i's cached index stale. Deduplicated (a flag per arm), so
  /// repeated observe() calls between selects stay O(touched arms).
  void mark_index_dirty(ArmId i) {
    const auto k = static_cast<std::size_t>(i);
    if (all_dirty_ || dirty_flag_[k] != 0) return;
    dirty_flag_[k] = 1;
    dirty_list_.push_back(i);
  }

  /// Marks every arm stale, for updates that touch more arms than a full
  /// rebuild costs (DFL-SSR's two-hop dirty set on dense graphs).
  void mark_all_indices_dirty() noexcept { all_dirty_ = true; }
  [[nodiscard]] bool all_indices_dirty() const noexcept { return all_dirty_; }

  std::size_t num_arms_ = 0;
  Xoshiro256 rng_;

 private:
  void refresh_incremental(TimeSlot t, double* cache);
  void rebuild_cache(TimeSlot t, double* cache);
  void schedule_expiry(ArmId i, TimeSlot valid_until);
  void purge_expiry_heap();

  [[nodiscard]] double width_at(std::int64_t count, TimeSlot t) const {
    return exploration_width(static_cast<double>(t) /
                                 (static_cast<double>(num_arms_) *
                                  static_cast<double>(count)),
                             static_cast<double>(count));
  }
  [[nodiscard]] double memo_width(std::int64_t count, TimeSlot t);

  std::vector<double> cached_indices_;
  std::vector<std::uint8_t> dirty_flag_;  // per-arm "already in dirty_list_"
  std::vector<ArmId> dirty_list_;
  std::vector<TimeSlot> valid_until_;     // authoritative per-arm expiry
  // Lazy-deletion min-heap of (valid_until, arm). Purged when it outgrows
  // 4K + 64 entries. sched_vu_ tracks each arm's earliest live entry
  // (kIndexValidForever = none): a refresh only pushes when no entry pops
  // at or before the new expiry, and an entry popping early renews itself
  // — so an arm refreshed every slot with a growing plateau costs zero
  // heap traffic instead of one push per slot.
  std::vector<std::pair<TimeSlot, ArmId>> expiry_heap_;
  std::vector<TimeSlot> sched_vu_;
  // Arms whose refresh expires at the refresh slot itself (the "hot"
  // regime, valid_until <= t): they would pop from the heap on the very
  // next select anyway, so they bypass it and re-dirty directly —
  // bounded at one entry per arm per refresh.
  std::vector<ArmId> hot_list_;
  bool all_dirty_ = true;
  TimeSlot last_select_t_ = std::numeric_limits<TimeSlot>::min();
  std::uint64_t tie_break_draws_ = 0;
  // memo_width's memo: entry O holds width_at(O, slot) for the slot it was
  // computed at; slot kNoSlot (TimeSlot's minimum) marks it empty.
  struct WidthMemo {
    TimeSlot slot;
    double width;
  };
  std::vector<WidthMemo> width_memo_;
  std::uint64_t width_evaluations_ = 0;
  std::uint64_t seed_;
};

class ArmStatIndexPolicy : public SingleIndexPolicy {
 public:
  /// Batched update: folds every revealed (arm, value) pair into the stats
  /// table in one pass and dirty-marks exactly the touched arms.
  /// Side-observation learners inherit this as-is.
  void observe(ArmId played, TimeSlot t, ObservationSpan observations) override;

  /// Observation count O_i (for tests / diagnostics); bounds-checked.
  [[nodiscard]] std::int64_t observation_count(ArmId i) const {
    return stats_.count(i);
  }
  /// Empirical mean X̄_i; bounds-checked.
  [[nodiscard]] double empirical_mean(ArmId i) const { return stats_.mean(i); }

 protected:
  using SingleIndexPolicy::SingleIndexPolicy;

  void on_reset(const Graph& graph) override;

  /// Folds one observation into the stats and marks the arm stale — the
  /// shared primitive for the played-only observe() overrides.
  void absorb(ArmId arm, double value) {
    stats_.add(arm, value);
    mark_index_dirty(arm);
  }

  /// refresh_indices() of a plateau index over the stats table:
  /// plateau_refresh(X̄_i, O_i, t, eta) for each arm, read straight from
  /// the SoA arrays.
  void refresh_plateau_indices(TimeSlot t, Span<ArmId> arms, double* values,
                               TimeSlot* valid_until, double eta);

  /// The empirically best observed arm within N_best (always contains
  /// `best` itself) — the shared MaxN/neighbor-greedy refinement.
  [[nodiscard]] ArmId best_empirical_in_neighborhood(const Graph& graph,
                                                     ArmId best) const;

  ArmStatsTable stats_;
};

}  // namespace ncb
