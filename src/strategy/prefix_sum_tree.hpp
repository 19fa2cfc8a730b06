// Prefix-sharing sum tree: the exact oracles' one summation kernel.
//
// Both exact oracles score every strategy by summing per-arm scores over a
// sorted row of arms — Y_x for the coverage objective, s_x for the modular
// one — and return the first strict maximum. The rows of a family share
// long prefixes (a subset family lists {a,b,c} right after {a,b}; most Y_x
// start with the same low arms), so the tree stores one node per distinct
// row prefix: node n holds its last arm and its parent prefix, and its
// value is v[parent[n]] + score[arm[n]]. Nodes are in breadth-first order
// (a parent always precedes its children), so one forward pass evaluates
// every prefix sum with one add per node instead of one per row entry.
//
// Each node value is exactly the left-to-right sum 0.0 + s[r0] + s[r1] + …
// of its prefix — the same IEEE operations in the same order as summing the
// row directly — so values, and hence the smaller-row tie-break, are
// bit-identical to a per-row scan. A family with no shared prefixes does
// no more adds than that scan.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/types.hpp"

namespace ncb {

class PrefixSumTree {
 public:
  PrefixSumTree() = default;

  /// Builds the tree over `rows`; row r's sum is leaf r. Rows sorted
  /// ascending share the most prefixes, but any order sums correctly.
  explicit PrefixSumTree(const std::vector<ArmSet>& rows);

  /// Nodes including the root (the empty prefix, value 0.0).
  [[nodiscard]] std::size_t num_nodes() const noexcept {
    return nodes_.size();
  }

  /// Index of the first row with the strictly largest sum of `scores` over
  /// its arms (row 0 when none beats -inf, e.g. all NaN). `scores` covers
  /// every arm id in the rows. `scratch` holds the node values; it grows
  /// to num_nodes() once and is reused, so a caller-owned buffer makes
  /// repeated calls allocation-free.
  [[nodiscard]] std::size_t argmax(const double* scores,
                                   std::vector<double>& scratch) const;

 private:
  struct Node {
    std::uint32_t parent;
    ArmId arm;
  };
  std::vector<Node> nodes_;          // nodes_[0] is the root
  std::vector<std::uint32_t> leaf_;  // row → node holding its full sum
};

}  // namespace ncb
