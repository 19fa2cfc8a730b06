#include "strategy/prefix_sum_tree.hpp"

#include <algorithm>
#include <limits>
#include <utility>

namespace ncb {

PrefixSumTree::PrefixSumTree(const std::vector<ArmSet>& rows)
    : nodes_{{0, kNoArm}}, leaf_(rows.size(), 0) {
  // Level by level: at depth d every row still longer than d extends its
  // depth-d prefix node (leaf_[r] so far) by rows[r][d]. Rows sharing that
  // (node, arm) pair share the child, so sorting the pairs groups them and
  // assigns child ids in (parent, arm) order — breadth-first.
  std::vector<std::size_t> active;
  for (std::size_t r = 0; r < rows.size(); ++r) {
    if (!rows[r].empty()) active.push_back(r);
  }
  for (std::size_t d = 0; !active.empty(); ++d) {
    const auto key = [&](std::size_t r) {
      return std::pair<std::uint32_t, ArmId>(leaf_[r], rows[r][d]);
    };
    std::sort(active.begin(), active.end(),
              [&](std::size_t a, std::size_t b) { return key(a) < key(b); });
    std::pair<std::uint32_t, ArmId> last{0, kNoArm};  // matches no arm
    for (const std::size_t r : active) {
      const auto k = key(r);
      if (k != last) {
        nodes_.push_back({k.first, k.second});
        last = k;
      }
      leaf_[r] = static_cast<std::uint32_t>(nodes_.size() - 1);
    }
    active.erase(std::remove_if(active.begin(), active.end(),
                                [&](std::size_t r) {
                                  return rows[r].size() == d + 1;
                                }),
                 active.end());
  }
}

// The CSO/CSR oracles' hot loop. Its speed moved 20-30% with where the
// function fell within a 64-byte line, which any unrelated change to the
// binary's code size shifts, so the function is pinned to a line start.
__attribute__((aligned(64))) std::size_t PrefixSumTree::argmax(
    const double* scores, std::vector<double>& scratch) const {
  if (scratch.size() < nodes_.size()) scratch.resize(nodes_.size());
  double* value = scratch.data();
  value[0] = 0.0;
  for (std::size_t n = 1; n < nodes_.size(); ++n) {
    value[n] = value[nodes_[n].parent] +
               scores[static_cast<std::size_t>(nodes_[n].arm)];
  }
  // Leaf pass (see the header): branch-free max, then its first row.
  const double kNegInf = -std::numeric_limits<double>::infinity();
  const std::uint32_t* leaf = leaf_.data();
  const std::size_t rows = leaf_.size();
  double m0 = kNegInf, m1 = kNegInf, m2 = kNegInf, m3 = kNegInf;
  std::size_t r = 0;
  for (; r + 4 <= rows; r += 4) {
    const double v0 = value[leaf[r]], v1 = value[leaf[r + 1]];
    const double v2 = value[leaf[r + 2]], v3 = value[leaf[r + 3]];
    m0 = v0 > m0 ? v0 : m0;
    m1 = v1 > m1 ? v1 : m1;
    m2 = v2 > m2 ? v2 : m2;
    m3 = v3 > m3 ? v3 : m3;
  }
  for (; r < rows; ++r) {
    const double v = value[leaf[r]];
    m0 = v > m0 ? v : m0;
  }
  m0 = m1 > m0 ? m1 : m0;
  m2 = m3 > m2 ? m3 : m2;
  const double best_value = m2 > m0 ? m2 : m0;
  if (best_value == kNegInf) return 0;
  std::size_t best = 0;
  while (!(value[leaf[best]] == best_value)) ++best;
  return best;
}

}  // namespace ncb
