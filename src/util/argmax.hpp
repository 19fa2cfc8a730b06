// Reservoir argmax over a flat score array — the select hot path's scan.
//
// Semantics are pinned to the historical per-arm loop used by every index
// policy (and by epsilon-greedy's exploit step): walk scores in order,
// track the running maximum, and break ties among equal running maxima by
// reservoir sampling — the j-th element tied with the current maximum
// replaces it with probability 1/j, consuming exactly one uniform_int draw
// per tie. The RNG draw count and order are part of the reproducibility
// contract (sweep output is byte-identical across refactors), so any
// faster implementation must replay the draws of that exact loop.
//
// This implementation skips in two levels. Scores are scanned in blocks of
// 256, each split into eight sub-blocks of 32. One pass reduces every
// sub-block's maximum with four independent, branch-free accumulator
// chains (pipelined maxsd/maxpd — no data-dependent branches); the block's
// maximum is the max of its eight. A block whose maximum stays strictly
// below the running maximum is skipped outright, since no element in it can
// update the maximum or tie with it. In a block that can, the same rule is
// applied again per sub-block against the running maximum as the scan
// advances, and only the sub-blocks that pass are re-walked with the exact
// historical loop. The skip rule is unchanged, only finer, so the RNG sees
// the same draw sequence — while a score array whose maximum creeps upward
// along the array (DFL-CSO's com-arm indices) rescans a few sub-blocks of
// each block instead of the whole block. NaN scores never win and never
// tie, same as the historical loop.
//
// The array may hold certified upper bounds instead of exact scores (the
// index policies' lazily refreshed off-plateau arms). The skips run on the
// bounds, and a resolver, a template parameter whose default keeps every
// score, turns a bound into its exact score only when the bound reaches
// the running maximum at the point the scan gets to it. Below that the
// exact score could neither win nor tie, so it takes part in no
// comparison and no draw, and the result is that of the exact array.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>

#include "util/rng.hpp"
#include "util/types.hpp"

namespace ncb {

/// Running reservoir state, exposed so callers scanning in several chunks
/// (or mixing scanned and skipped regions) carry ties across chunks.
struct ArgmaxState {
  std::size_t best = 0;
  double best_score = -std::numeric_limits<double>::infinity();
  std::size_t ties = 0;
  std::uint64_t draws = 0;  ///< uniform_int calls consumed by tie-breaking.
};

/// The default resolver: every score is already exact.
struct ExactScores {
  double operator()(std::size_t /*i*/, double score) const noexcept {
    return score;
  }
};

/// Folds scores[first, last) into `state` with the exact historical
/// reservoir loop (one uniform_int(ties) draw per running-max tie). A score
/// that reaches the running maximum is first passed through
/// resolve(i, score), which must return a value ≤ score that is the exact
/// score of element i; a score below the running maximum is left as is.
template <typename Resolve = ExactScores>
inline void reservoir_scan(const double* scores, std::size_t first,
                           std::size_t last, ArgmaxState& state,
                           Xoshiro256& rng, Resolve resolve = {}) {
  for (std::size_t i = first; i < last; ++i) {
    double s = scores[i];
    if (s >= state.best_score) s = resolve(i, s);
    if (s > state.best_score) {
      state.best_score = s;
      state.best = i;
      state.ties = 1;
    } else if (s == state.best_score) {
      ++state.ties;
      ++state.draws;
      if (rng.uniform_int(state.ties) == 0) state.best = i;
    }
  }
}

/// Branch-free maximum of scores[first, last): four independent accumulator
/// chains, `m = s > m ? s : m` per lane (NaN loses; -inf when empty or all
/// NaN). Used to prove a (sub-)block cannot touch the running maximum
/// before paying for the exact scan.
inline double block_max(const double* scores, std::size_t first,
                        std::size_t last) noexcept {
  const double kNegInf = -std::numeric_limits<double>::infinity();
  double m0 = kNegInf, m1 = kNegInf, m2 = kNegInf, m3 = kNegInf;
  std::size_t i = first;
  for (; i + 4 <= last; i += 4) {
    const double s0 = scores[i], s1 = scores[i + 1];
    const double s2 = scores[i + 2], s3 = scores[i + 3];
    m0 = s0 > m0 ? s0 : m0;
    m1 = s1 > m1 ? s1 : m1;
    m2 = s2 > m2 ? s2 : m2;
    m3 = s3 > m3 ? s3 : m3;
  }
  for (; i < last; ++i) {
    const double s = scores[i];
    m0 = s > m0 ? s : m0;
  }
  m0 = m1 > m0 ? m1 : m0;
  m2 = m3 > m2 ? m3 : m2;
  return m2 > m0 ? m2 : m0;
}

/// Argmax of scores[0, n) with reservoir tie-breaking, skipping blocks and
/// sub-blocks that provably cannot update or tie the running maximum.
/// Returns the selected position; `draws_out` (optional) receives the
/// number of uniform_int draws consumed. Requires n > 0.
///
/// `scores` may hold upper bounds in place of exact scores: `resolve`
/// (see reservoir_scan) maps a bound to its exact score, and is called only
/// for an element whose bound reaches the running maximum when the scan
/// gets to it. An element below the running maximum can neither win nor
/// tie (its exact score is no larger), so block maxima over bounds skip
/// exactly what the historical loop ignores, and the result and draw
/// sequence are those of the loop over the exact scores.
template <typename Resolve = ExactScores>
inline std::size_t reservoir_argmax(const double* scores, std::size_t n,
                                    Xoshiro256& rng,
                                    std::uint64_t* draws_out = nullptr,
                                    Resolve resolve = {}) {
  constexpr std::size_t kSub = 32;
  constexpr std::size_t kSubsPerBlock = 8;
  constexpr std::size_t kBlock = kSub * kSubsPerBlock;
  ArgmaxState state;
  double sub_max[kSubsPerBlock];
  for (std::size_t begin = 0; begin < n; begin += kBlock) {
    const std::size_t end = begin + kBlock < n ? begin + kBlock : n;
    const std::size_t subs = (end - begin + kSub - 1) / kSub;
    double m = -std::numeric_limits<double>::infinity();
    for (std::size_t s = 0; s < subs; ++s) {
      const std::size_t first = begin + s * kSub;
      const std::size_t last = first + kSub < end ? first + kSub : end;
      sub_max[s] = block_max(scores, first, last);
      m = sub_max[s] > m ? sub_max[s] : m;
    }
    // Skip iff every element is strictly below the running maximum; the
    // >= comparison keeps -inf/+inf plateaus and first-block semantics
    // exactly on the historical path (NaN-only sub-blocks reduce to -inf
    // and are scanned only while best_score is still -inf, where the
    // historical loop also ignores them). best_score only rises during the
    // block, so each sub-block is tested against its value at that point.
    if (!(m >= state.best_score)) continue;
    for (std::size_t s = 0; s < subs; ++s) {
      if (sub_max[s] >= state.best_score) {
        const std::size_t first = begin + s * kSub;
        const std::size_t last = first + kSub < end ? first + kSub : end;
        reservoir_scan(scores, first, last, state, rng, resolve);
      }
    }
  }
  if (draws_out != nullptr) *draws_out += state.draws;
  return state.best;
}

}  // namespace ncb
