// Prefix-sharing sum tree: the exact oracles' one argmax kernel.
//
// Both exact oracles score every strategy by summing per-arm scores over a
// sorted row of arms — Y_x for the coverage objective, s_x for the modular
// one — and return the first strict maximum. The rows of a family share
// long prefixes (a subset family lists {a,b,c} right after {a,b}; most Y_x
// start with the same low arms), so the tree stores one node per distinct
// row prefix, in preorder (children in ascending arm order). Node n holds
// its last arm, its parent, `skip` (one past its subtree), its `reach`
// (the most arms any row below it still adds) and the smallest row id
// ending at it. Its value is v[parent] + s[arm], which is exactly the
// left-to-right sum 0.0 + s[r0] + s[r1] + … of the prefix — the same IEEE
// operations in the same order as summing the row directly — so values,
// and hence the tie-break, are bit-identical to a per-row scan.
//
// argmax is a depth-first branch-and-bound over that tree. Per call it
// builds top[a][r], the sum of the r largest positive scores among arms
// ≥ a (r ≤ the tree height H), and skips the subtree of node n when
//
//     fl(v_n + top[arm_n + 1][reach_n])  <  fl(best − m),
//     m = (2H + 4)·ε·S,   S = Σ_a |s_a|,
//
// where best is the largest row value found so far and ε the double
// epsilon. The margin rests on this inequality: every row R below n,
// summed as the tree sums it, satisfies
//
//     ŵ_R ≤ fl(v_n + top[arm_n + 1][reach_n]) + (1.5H − 0.5)·ε·S·(1 + O(Hε))
//
// (the rounding of R's own sum, of n's prefix sum and of the table entry,
// each at most H − 1 additions of terms bounded by S, plus the one add of
// the test). With the rounding of best − m that still leaves ŵ_R < best,
// so a skipped row can neither beat nor tie the winner. S must be at most
// half the largest double (so no partial sum overflows); a NaN, infinite
// or larger S disables skipping and the pass visits every node. So does a
// table larger than the tree's nodes and rows together, the work a full
// pass does (a few long, shared rows: the table costs (A + 1)·(H + 1)
// adds per call for arm ids below A).
//
// The winner is the largest row value with the smallest row id — the first
// strict maximum of a left-to-right scan, with its corner cases: +0.0 and
// -0.0 tie (smaller row wins), NaN rows never win, and row 0 is returned
// when no row beats -inf (all -inf or NaN).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/types.hpp"

namespace ncb {

class PrefixSumTree {
 public:
  /// Caller-owned per-call state. It grows to the tree's size once and is
  /// reused, so repeated calls do not allocate; one scratch may serve
  /// several trees.
  struct Scratch {
    static constexpr std::uint32_t kNoHint =
        std::numeric_limits<std::uint32_t>::max();

    std::vector<double> value;  ///< node values
    std::vector<double> top;    ///< the bound table top[a][r]
    std::vector<std::uint32_t> path;  ///< the hint row's nodes
    /// Warm start: the previous call's winner seeds the best value (its
    /// row summed first). Any value, in range or not, gives the same
    /// result; only the work done changes.
    std::uint32_t hint = kNoHint;
    /// Work counter: scores added, one per node visited plus the hint
    /// row's length. Only reset() clears it.
    std::uint64_t nodes_summed = 0;

    /// Forgets the hint and zeroes the counter (keeps the buffers).
    void reset() noexcept {
      hint = kNoHint;
      nodes_summed = 0;
    }
  };

  PrefixSumTree() = default;

  /// Builds the tree over `rows`; row r's sum is the node its last arm
  /// reaches. Every row must be strictly ascending (throws
  /// std::invalid_argument otherwise); rows may repeat.
  explicit PrefixSumTree(const std::vector<ArmSet>& rows);

  /// Nodes including the root (the empty prefix, value 0.0).
  [[nodiscard]] std::size_t num_nodes() const noexcept {
    return nodes_.size();
  }

  /// Index of the first row with the strictly largest sum of `scores` over
  /// its arms (row 0 when none beats -inf, e.g. all NaN). `scores` covers
  /// every arm id in the rows. Stores the winner in `scratch.hint`.
  [[nodiscard]] std::size_t argmax(const double* scores,
                                   Scratch& scratch) const;

 private:
  static constexpr std::uint32_t kNoRow =
      std::numeric_limits<std::uint32_t>::max();

  struct Node {
    ArmId arm;             // kNoArm at the root
    std::uint32_t parent;  // 0 at the root
    std::uint32_t skip;    // one past the last node of this subtree
    std::uint32_t bound;   // top-table cell (arm + 1)·(H + 1) + reach
    std::uint32_t row;     // smallest row id ending here, or kNoRow
  };
  std::vector<Node> nodes_;          // preorder; nodes_[0] is the root
  std::vector<std::uint32_t> leaf_;  // row → node holding its full sum
  std::size_t arms_ = 0;             // 1 + the largest arm id in the rows
  std::size_t height_ = 0;           // H: the longest row
  std::size_t table_cells_ = 0;      // (arms_ + 1)·(H + 1), 0: no skipping
};

}  // namespace ncb
