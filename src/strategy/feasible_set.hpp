// Feasible combinatorial strategy families F (paper §II, combinatorial-play).
//
// A FeasibleSet enumerates the strategies ("com-arms") s_1..s_|F| against a
// fixed relation graph and precomputes each strategy's observed set
// Y_x = ∪_{i∈s_x} N_i, which drives both reward semantics and the strategy
// relation graph construction of §IV.
//
// What the combinatorial policies derive from the family is built here,
// once, and shared by every replication and policy over it: the prefix-sum
// trees of the exact oracles (in the constructor), and the strategy
// relation graph SG plus the per-com-arm observable lists (on first use,
// under std::call_once, so policies built concurrently in several threads
// wait for one build). The lazy state sits behind a shared handle, so the
// family stays movable and its copies share it.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "strategy/prefix_sum_tree.hpp"
#include "util/bitset64.hpp"
#include "util/types.hpp"

namespace ncb {

/// How the family was constructed; some oracles are only valid for
/// structured families.
enum class FamilyKind {
  kExplicit,          ///< Arbitrary enumerated list.
  kTopMSubsets,       ///< All non-empty subsets of size ≤ M.
  kExactMSubsets,     ///< All subsets of size exactly M.
  kIndependentSets,   ///< All non-empty independent sets (≤ max size).
  kPartitionMatroid,  ///< ≤ cap_g arms per group g (partition matroid).
};

class FeasibleSet {
 public:
  /// Validates and indexes `strategies` against `graph`. Each strategy must
  /// be non-empty, sorted, duplicate-free, and within vertex range; the
  /// family itself must be duplicate-free.
  FeasibleSet(std::shared_ptr<const Graph> graph,
              std::vector<ArmSet> strategies, FamilyKind kind);

  [[nodiscard]] std::size_t size() const noexcept { return strategies_.size(); }
  [[nodiscard]] FamilyKind kind() const noexcept { return kind_; }
  [[nodiscard]] const Graph& graph() const noexcept { return *graph_; }
  [[nodiscard]] std::shared_ptr<const Graph> graph_ptr() const noexcept {
    return graph_;
  }

  [[nodiscard]] const ArmSet& strategy(StrategyId x) const {
    return strategies_.at(static_cast<std::size_t>(x));
  }

  /// Component arms of x as a bitset.
  [[nodiscard]] const Bitset64& strategy_bits(StrategyId x) const {
    return strategy_bits_.at(static_cast<std::size_t>(x));
  }

  /// Y_x = ∪_{i∈s_x} N_i as a bitset.
  [[nodiscard]] const Bitset64& neighborhood_bits(StrategyId x) const {
    return neighborhood_bits_.at(static_cast<std::size_t>(x));
  }

  /// Y_x as a sorted vertex list.
  [[nodiscard]] const ArmSet& neighborhood(StrategyId x) const {
    return neighborhoods_.at(static_cast<std::size_t>(x));
  }

  /// Paper's N = max_x |Y_x|.
  [[nodiscard]] std::size_t max_neighborhood_size() const noexcept {
    return max_neighborhood_;
  }

  /// Largest strategy cardinality M.
  [[nodiscard]] std::size_t max_strategy_size() const noexcept {
    return max_strategy_;
  }

  /// Prefix-sum tree over the rows s_x (argmax_modular's kernel).
  [[nodiscard]] const PrefixSumTree& strategy_tree() const noexcept {
    return strategy_tree_;
  }

  /// Prefix-sum tree over the rows Y_x (ExactCoverageOracle's kernel).
  [[nodiscard]] const PrefixSumTree& neighborhood_tree() const noexcept {
    return neighborhood_tree_;
  }

  /// The strategy relation graph SG(F, L) of §IV, CSR only (see
  /// build_strategy_graph): built on first use, at most once per family.
  [[nodiscard]] const Graph& strategy_graph() const;

  /// Com-arms observable when x is played — every y with s_y ⊆ Y_x,
  /// ascending — built for the whole family on first use, at most once.
  [[nodiscard]] Span<StrategyId> observable(StrategyId x) const;

  /// Looks up a strategy (must be sorted); nullopt if absent.
  [[nodiscard]] std::optional<StrategyId> find(const ArmSet& strategy) const;

  [[nodiscard]] std::string to_string() const;

 private:
  std::shared_ptr<const Graph> graph_;
  std::vector<ArmSet> strategies_;
  std::vector<Bitset64> strategy_bits_;
  std::vector<Bitset64> neighborhood_bits_;
  std::vector<ArmSet> neighborhoods_;
  std::size_t max_neighborhood_ = 0;
  std::size_t max_strategy_ = 0;
  FamilyKind kind_;
  PrefixSumTree strategy_tree_;
  PrefixSumTree neighborhood_tree_;
  struct Derived;  // SG and observable lists, built on first use
  std::shared_ptr<Derived> derived_;
};

/// All non-empty subsets with |s| ≤ m (`exact` = false) or |s| = m (`exact`
/// = true). This is the paper's online-advertising constraint ("play at most
/// m arms each slot"). Exponential in m; intended for moderate K.
[[nodiscard]] FeasibleSet make_subset_family(std::shared_ptr<const Graph> graph,
                                             std::size_t m, bool exact = false);

/// All non-empty independent sets of the graph with size ≤ max_size
/// (0 = unbounded): the paper's Fig. 2 family.
[[nodiscard]] FeasibleSet make_independent_set_family(
    std::shared_ptr<const Graph> graph, std::size_t max_size = 0);

/// Arbitrary explicit family.
[[nodiscard]] FeasibleSet make_explicit_family(
    std::shared_ptr<const Graph> graph, std::vector<ArmSet> strategies);

/// Partition-matroid family: arms are partitioned into groups
/// (`groups[i]` = group id of arm i, 0-based and contiguous) and a feasible
/// strategy takes at most `capacity` arms from each group (non-empty
/// overall). The paper's "arbitrary constraints" case — e.g. at most one ad
/// per product category. Exponential in the group count; enumerate only for
/// moderate instances.
[[nodiscard]] FeasibleSet make_partition_matroid_family(
    std::shared_ptr<const Graph> graph, const std::vector<int>& groups,
    std::size_t capacity = 1);

}  // namespace ncb
