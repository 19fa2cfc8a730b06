// Strategy relation graph SG(F, L) — paper §IV, Fig. 2.
//
// Each feasible strategy ("com-arm") becomes a vertex; two distinct
// strategies s_x and s_y are linked iff each one's component arms lie inside
// the other's observed set: s_y ⊆ Y_x AND s_x ⊆ Y_y. Playing x then reveals
// the full reward of every SG-neighbor y (all of y's component arms are
// observed), which reduces CSO to SSO over SG.
#pragma once

#include <vector>

#include "graph/graph.hpp"
#include "strategy/feasible_set.hpp"

namespace ncb {

/// Builds SG over `family`. Vertex x of the result corresponds to strategy
/// id x of the family. Policies share the family's own copy
/// (FeasibleSet::strategy_graph(), built once, CSR only); build one here
/// for the bitset rows (clique covers, figure dumps).
[[nodiscard]] Graph build_strategy_graph(
    const FeasibleSet& family,
    GraphStorage storage = GraphStorage::kCsrAndBits);

/// Strategies observable when x is played: every y (including x) with
/// s_y ⊆ Y_x. This is a superset of SG's closed neighborhood of x (SG
/// requires mutual containment). DFL-CSO can optionally exploit the full
/// observable set, through the family's cached FeasibleSet::observable().
[[nodiscard]] std::vector<StrategyId> observable_strategies(
    const FeasibleSet& family, StrategyId x);

}  // namespace ncb
