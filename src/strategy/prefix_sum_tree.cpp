#include "strategy/prefix_sum_tree.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace ncb {

PrefixSumTree::PrefixSumTree(const std::vector<ArmSet>& rows)
    : nodes_{{kNoArm, 0, 0, 0, kNoRow}}, leaf_(rows.size(), 0) {
  for (const ArmSet& row : rows) {
    for (std::size_t j = 0; j < row.size(); ++j) {
      if (row[j] < 0 || (j > 0 && row[j] <= row[j - 1])) {
        throw std::invalid_argument(
            "PrefixSumTree: rows must be strictly ascending arm ids");
      }
    }
    if (!row.empty()) {
      arms_ = std::max(arms_, static_cast<std::size_t>(row.back()) + 1);
    }
    height_ = std::max(height_, row.size());
  }
  // Rows in lexicographic order (ties by id) are the tree's preorder: each
  // row shares its longest common prefix with the path of the row before
  // it and appends one node per remaining arm, and the first row to end at
  // a node is the smallest id among the equal rows.
  std::vector<std::uint32_t> order(rows.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return rows[a] < rows[b];
                   });
  std::vector<std::uint32_t> path{0};  // node ids from the root
  for (const std::uint32_t r : order) {
    const ArmSet& row = rows[r];
    std::size_t d = 0;
    while (d < row.size() && d + 1 < path.size() &&
           nodes_[path[d + 1]].arm == row[d]) {
      ++d;
    }
    path.resize(d + 1);
    for (; d < row.size(); ++d) {
      nodes_.push_back({row[d], path.back(), 0, 0, kNoRow});
      path.push_back(static_cast<std::uint32_t>(nodes_.size() - 1));
    }
    Node& end = nodes_[path.back()];
    if (end.row == kNoRow) end.row = r;
    leaf_[r] = path.back();
  }
  // Children follow their parent, so one backward pass folds subtree sizes
  // (→ skip) and heights (→ reach) into each parent.
  std::vector<std::uint32_t> size(nodes_.size(), 1), reach(nodes_.size(), 0);
  for (std::size_t n = nodes_.size() - 1; n > 0; --n) {
    const std::uint32_t p = nodes_[n].parent;
    size[p] += size[n];
    reach[p] = std::max(reach[p], reach[n] + 1);
  }
  // The bound table is rebuilt every call, so it pays only when it is no
  // larger than what a pass over every node and row reads. A longer, more
  // shared tree (say all rows equal and long) sums every node instead;
  // each bound then reads cell 0.
  const std::size_t cells = (arms_ + 1) * (height_ + 1);
  if (cells <= nodes_.size() + rows.size()) table_cells_ = cells;
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    Node& node = nodes_[n];
    node.skip = static_cast<std::uint32_t>(n + size[n]);
    if (table_cells_ > 0) {
      node.bound = static_cast<std::uint32_t>(
          static_cast<std::size_t>(node.arm + 1) * (height_ + 1) + reach[n]);
    }
  }
}

// The CSO/CSR oracles' hot loop. Its speed moved 20-30% with where the
// function fell within a 64-byte line, which any unrelated change to the
// binary's code size shifts, so the function is pinned to a line start.
__attribute__((aligned(64))) std::size_t PrefixSumTree::argmax(
    const double* scores, Scratch& scratch) const {
  const std::size_t cols = height_ + 1;
  if (scratch.value.size() < nodes_.size()) scratch.value.resize(nodes_.size());
  if (scratch.top.size() < std::max<std::size_t>(table_cells_, 1)) {
    scratch.top.resize(std::max<std::size_t>(table_cells_, 1));
  }
  double* value = scratch.value.data();
  double* top = scratch.top.data();

  // The margin and the bound table (see the header). Without them the
  // threshold best − m is -inf (or NaN), which no bound falls below.
  double abs_sum = std::numeric_limits<double>::infinity();
  if (table_cells_ > 0) {
    abs_sum = 0.0;
    for (std::size_t a = 0; a < arms_; ++a) abs_sum += std::fabs(scores[a]);
  }
  const bool prune = abs_sum <= std::numeric_limits<double>::max() / 2;
  const double margin =
      prune ? static_cast<double>(2 * height_ + 4) *
                  std::numeric_limits<double>::epsilon() * abs_sum
            : std::numeric_limits<double>::infinity();
  if (prune) {
    // top[a][r] = max(top[a+1][r], top[a+1][r-1] + max(s_a, 0)).
    std::fill(top + arms_ * cols, top + (arms_ + 1) * cols, 0.0);
    for (std::size_t a = arms_; a-- > 0;) {
      const double s = scores[a] > 0.0 ? scores[a] : 0.0;
      double* cur = top + a * cols;
      const double* next = cur + cols;
      cur[0] = 0.0;
      for (std::size_t r = 1; r < cols; ++r) {
        const double with = next[r - 1] + s;
        cur[r] = with > next[r] ? with : next[r];
      }
    }
  }

  double best_value = -std::numeric_limits<double>::infinity();
  std::uint32_t best_row = 0;
  double threshold = best_value - margin;
  // Largest value wins, then the smaller row: the first strict maximum of
  // a scan in row order, whatever order the rows are met in.
  const auto consider = [&](double v, std::uint32_t row) {
    if (v > best_value || (v == best_value && row < best_row)) {
      best_value = v;
      best_row = row;
      threshold = best_value - margin;
    }
  };
  std::uint64_t summed = 0;
  if (scratch.hint < leaf_.size()) {
    // The hint row's value, summed root to leaf as the tree sums it.
    std::vector<std::uint32_t>& path = scratch.path;
    path.clear();
    for (std::uint32_t n = leaf_[scratch.hint]; n != 0; n = nodes_[n].parent) {
      path.push_back(n);
    }
    double hint_value = 0.0;
    for (auto it = path.rbegin(); it != path.rend(); ++it) {
      hint_value += scores[static_cast<std::size_t>(nodes_[*it].arm)];
    }
    summed += path.size();
    consider(hint_value, scratch.hint);
  }

  const Node* nodes = nodes_.data();
  const std::size_t count = nodes_.size();
  value[0] = 0.0;
  if (nodes[0].row != kNoRow) consider(0.0, nodes[0].row);  // an empty row
  std::size_t n = top[nodes[0].bound] < threshold ? count : 1;
  while (n < count) {
    const Node& node = nodes[n];
    const double v =
        value[node.parent] + scores[static_cast<std::size_t>(node.arm)];
    value[n] = v;
    ++summed;
    if (node.row != kNoRow) consider(v, node.row);
    n = v + top[node.bound] < threshold ? node.skip : n + 1;
  }
  scratch.nodes_summed += summed;
  scratch.hint = best_row;
  return best_row;
}

}  // namespace ncb
