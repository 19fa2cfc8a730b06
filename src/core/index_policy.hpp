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
// Off the plateau (a "hot" arm) the exact value holds for one slot only,
// so with η > 0 the array holds a certified upper bound instead —
// estimate + η·width(O, T)·(1 + 1e-9), valid through T, the next power of
// two above t — and select() passes the argmax a resolver that computes
// the exact value only for an arm whose bound reaches the running maximum
// when the scan gets to it. A hot arm nobody observes costs nothing until
// T (on the sweep-single instance DFL-SSO's per-slot index values fall
// from 16.5 to 11.5, its exact widths from 8.5 to 4.2). Exact widths come
// from a memo keyed by count and cleared on reset(): the arms resolved in
// one select share few distinct counts (on the benchmark's DFL-CSO
// instance, ≈1.4 per slot), so exploration_width runs once per distinct
// count per select (width_evaluations()), and once per count per T for
// bounds (bound_evaluations()); index_refreshes() counts the per-arm
// values.
//
// Both paths produce bit-for-the-comparisons-identical values to the
// from-scratch index(), which never reads the memo, so the argmax
// comparisons — and therefore the tie-break RNG draw sequence and every
// downstream selection — are exactly reproduced (regression-tested against
// pre-refactor goldens). cached_indices() reports the resolved values.
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

  /// exploration_width evaluations for exact off-plateau values (refreshes
  /// and bound resolutions) since the last reset() — at most one per
  /// distinct count O per select.
  [[nodiscard]] std::uint64_t width_evaluations() const noexcept {
    return width_evaluations_;
  }

  /// exploration_width evaluations for bounds since the last reset() — one
  /// per distinct count O per bound horizon T.
  [[nodiscard]] std::uint64_t bound_evaluations() const noexcept {
    return bound_evaluations_;
  }

  /// Per-arm index values select() computed since the last reset(): every
  /// arm handed to a refresh (all K per kEveryRound select or full
  /// rebuild, the stale list otherwise) plus every bound resolved.
  [[nodiscard]] std::uint64_t index_refreshes() const noexcept {
    return index_refreshes_;
  }

  /// The per-arm index values as of the last select() (diagnostics/tests),
  /// with every bounded entry resolved to its exact value at that slot.
  [[nodiscard]] std::vector<double> cached_indices() const;

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
  /// the arm — unless plateau_refresh() wrote it as a bound, which must
  /// instead stay ≥ index(i, t') over that range. The default writes
  /// index(i, t), valid through t only.
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

  /// plateau_index() of arm i for refresh_indices(). On the plateau (and
  /// for η ≤ 0) it is bit-identical, with the width read from a per-slot
  /// memo keyed by count; off the plateau O < t/K, so the memo holds at
  /// most t/K + 1 entries. Off the plateau with η > 0 the arm is left
  /// *bounded*: the value written is estimate + η·width(O, T)·(1 + 1e-9),
  /// valid through T, the smallest power of two above t. The width is
  /// non-decreasing in t and the slack covers libm rounding, so while the
  /// arm's statistics stay unchanged this bounds plateau_index() at every
  /// slot up to T; select() resolves the exact value only when the bound
  /// reaches the running maximum of its argmax (resolve_bound()).
  [[nodiscard]] IndexRefresh plateau_refresh(ArmId i, double estimate,
                                             std::int64_t count, TimeSlot t,
                                             double eta = 1.0) {
    const auto k = static_cast<std::size_t>(i);
    if (count == 0 || t <= static_cast<std::int64_t>(num_arms_) * count) {
      bounded_[k] = 0;
      return plateau_index(estimate, count, t, eta);
    }
    if (!(eta > 0.0)) {
      bounded_[k] = 0;
      return {estimate + eta * memo_width(count, t), t};
    }
    // t > K·O ≥ 1, so T = 2^(⌊log2 t⌋ + 1) (for t < 2^62).
    const int bits = 64 - __builtin_clzll(static_cast<std::uint64_t>(t));
    const auto horizon = static_cast<TimeSlot>(std::uint64_t{1} << bits);
    bounded_[k] = 1;
    bounded_arm_[k] = {estimate, count, eta};
    return {estimate + eta * memo_bound_width(count, horizon), horizon};
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
  [[nodiscard]] double memo_bound_width(std::int64_t count, TimeSlot horizon);
  /// The exact index at slot t of a bounded arm (its statistics are those
  /// its bound was taken from: any change re-dirties it first).
  [[nodiscard]] double resolve_bound(std::size_t k, TimeSlot t) {
    ++index_refreshes_;
    const BoundedArm& arm = bounded_arm_[k];
    return arm.estimate + arm.eta * memo_width(arm.count, t);
  }

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
  // memo_bound_width's memo: entry O holds width_at(O, T)·(1 + 1e-9) for
  // the bound horizon T it was computed at.
  std::vector<WidthMemo> bound_memo_;
  // Per arm: whether cached_indices_ holds an upper bound (1) or the exact
  // value (0), and the plateau_refresh() inputs the bound was taken from.
  struct BoundedArm {
    double estimate;
    std::int64_t count;
    double eta;
  };
  std::vector<std::uint8_t> bounded_;
  std::vector<BoundedArm> bounded_arm_;
  std::uint64_t width_evaluations_ = 0;
  std::uint64_t index_refreshes_ = 0;
  std::uint64_t bound_evaluations_ = 0;
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
  /// plateau_refresh(i, X̄_i, O_i, t, eta) for each arm, read straight from
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
