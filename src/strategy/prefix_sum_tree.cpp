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

std::size_t PrefixSumTree::argmax(const double* scores,
                                  std::vector<double>& scratch) const {
  if (scratch.size() < nodes_.size()) scratch.resize(nodes_.size());
  double* value = scratch.data();
  value[0] = 0.0;
  for (std::size_t n = 1; n < nodes_.size(); ++n) {
    value[n] = value[nodes_[n].parent] +
               scores[static_cast<std::size_t>(nodes_[n].arm)];
  }
  std::size_t best = 0;
  double best_value = -std::numeric_limits<double>::infinity();
  for (std::size_t r = 0; r < leaf_.size(); ++r) {
    const double v = value[leaf_[r]];
    if (v > best_value) {
      best_value = v;
      best = r;
    }
  }
  return best;
}

}  // namespace ncb
