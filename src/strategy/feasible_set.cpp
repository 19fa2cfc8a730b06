#include "strategy/feasible_set.hpp"

#include <algorithm>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>

#include "graph/independent_sets.hpp"
#include "strategy/strategy_graph.hpp"

namespace ncb {

struct FeasibleSet::Derived {
  std::once_flag graph_once;
  std::optional<Graph> graph;
  std::once_flag observable_once;
  std::vector<std::size_t> observable_offsets;  // |F|+1 prefix sums
  std::vector<StrategyId> observable_ids;
};

FeasibleSet::FeasibleSet(std::shared_ptr<const Graph> graph,
                         std::vector<ArmSet> strategies, FamilyKind kind)
    : graph_(std::move(graph)), strategies_(std::move(strategies)), kind_(kind) {
  if (!graph_) throw std::invalid_argument("FeasibleSet: null graph");
  if (strategies_.empty()) {
    throw std::invalid_argument("FeasibleSet: empty family");
  }
  const std::size_t n = graph_->num_vertices();
  std::set<ArmSet> seen;
  strategy_bits_.reserve(strategies_.size());
  neighborhood_bits_.reserve(strategies_.size());
  neighborhoods_.reserve(strategies_.size());
  for (const auto& s : strategies_) {
    if (s.empty()) throw std::invalid_argument("FeasibleSet: empty strategy");
    if (!std::is_sorted(s.begin(), s.end()) ||
        std::adjacent_find(s.begin(), s.end()) != s.end()) {
      throw std::invalid_argument("FeasibleSet: strategy not sorted/unique");
    }
    if (s.front() < 0 || static_cast<std::size_t>(s.back()) >= n) {
      throw std::out_of_range("FeasibleSet: arm id out of range");
    }
    if (!seen.insert(s).second) {
      throw std::invalid_argument("FeasibleSet: duplicate strategy");
    }
    Bitset64 bits(n);
    for (const ArmId i : s) bits.set(static_cast<std::size_t>(i));
    strategy_bits_.push_back(std::move(bits));
    Bitset64 nb = graph_->strategy_neighborhood(s);
    neighborhoods_.push_back(nb.to_indices());
    max_neighborhood_ = std::max(max_neighborhood_, nb.count());
    neighborhood_bits_.push_back(std::move(nb));
    max_strategy_ = std::max(max_strategy_, s.size());
  }
  strategy_tree_ = PrefixSumTree(strategies_);
  neighborhood_tree_ = PrefixSumTree(neighborhoods_);
  derived_ = std::make_shared<Derived>();
}

const Graph& FeasibleSet::strategy_graph() const {
  Derived& d = *derived_;
  std::call_once(d.graph_once, [&] {
    d.graph.emplace(build_strategy_graph(*this, GraphStorage::kCsrOnly));
  });
  return *d.graph;
}

Span<StrategyId> FeasibleSet::observable(StrategyId x) const {
  Derived& d = *derived_;
  std::call_once(d.observable_once, [&] {
    d.observable_offsets.assign(1, 0);
    for (StrategyId y = 0; y < static_cast<StrategyId>(size()); ++y) {
      const std::vector<StrategyId> list = observable_strategies(*this, y);
      d.observable_ids.insert(d.observable_ids.end(), list.begin(), list.end());
      d.observable_offsets.push_back(d.observable_ids.size());
    }
  });
  const auto u = static_cast<std::size_t>(x);
  const std::size_t end = d.observable_offsets.at(u + 1);
  return {d.observable_ids.data() + d.observable_offsets[u],
          end - d.observable_offsets[u]};
}

std::optional<StrategyId> FeasibleSet::find(const ArmSet& strategy) const {
  for (std::size_t x = 0; x < strategies_.size(); ++x) {
    if (strategies_[x] == strategy) return static_cast<StrategyId>(x);
  }
  return std::nullopt;
}

std::string FeasibleSet::to_string() const {
  std::ostringstream out;
  out << "FeasibleSet |F|=" << size() << " N=" << max_neighborhood_
      << " M=" << max_strategy_ << '\n';
  for (std::size_t x = 0; x < strategies_.size(); ++x) {
    out << "  s" << x << " = {";
    for (std::size_t i = 0; i < strategies_[x].size(); ++i) {
      if (i) out << ',';
      out << strategies_[x][i];
    }
    out << "}  Y = {";
    for (std::size_t i = 0; i < neighborhoods_[x].size(); ++i) {
      if (i) out << ',';
      out << neighborhoods_[x][i];
    }
    out << "}\n";
  }
  return out.str();
}

namespace {

void enumerate_subsets(std::size_t n, std::size_t m, bool exact, ArmId start,
                       ArmSet& current, std::vector<ArmSet>& out) {
  if (!current.empty() && (!exact || current.size() == m)) {
    out.push_back(current);
  }
  if (current.size() == m) return;
  for (ArmId v = start; v < static_cast<ArmId>(n); ++v) {
    current.push_back(v);
    enumerate_subsets(n, m, exact, v + 1, current, out);
    current.pop_back();
  }
}

}  // namespace

FeasibleSet make_subset_family(std::shared_ptr<const Graph> graph,
                               std::size_t m, bool exact) {
  if (!graph) throw std::invalid_argument("make_subset_family: null graph");
  if (m == 0 || m > graph->num_vertices()) {
    throw std::invalid_argument("make_subset_family: bad m");
  }
  std::vector<ArmSet> strategies;
  ArmSet current;
  enumerate_subsets(graph->num_vertices(), m, exact, 0, current, strategies);
  std::sort(strategies.begin(), strategies.end(),
            [](const ArmSet& a, const ArmSet& b) {
              if (a.size() != b.size()) return a.size() < b.size();
              return a < b;
            });
  return FeasibleSet(std::move(graph), std::move(strategies),
                     exact ? FamilyKind::kExactMSubsets
                           : FamilyKind::kTopMSubsets);
}

FeasibleSet make_independent_set_family(std::shared_ptr<const Graph> graph,
                                        std::size_t max_size) {
  if (!graph) {
    throw std::invalid_argument("make_independent_set_family: null graph");
  }
  auto strategies = enumerate_independent_sets(*graph, max_size);
  return FeasibleSet(std::move(graph), std::move(strategies),
                     FamilyKind::kIndependentSets);
}

FeasibleSet make_explicit_family(std::shared_ptr<const Graph> graph,
                                 std::vector<ArmSet> strategies) {
  for (auto& s : strategies) std::sort(s.begin(), s.end());
  return FeasibleSet(std::move(graph), std::move(strategies),
                     FamilyKind::kExplicit);
}

namespace {

void enumerate_matroid(const std::vector<int>& groups,
                       const std::vector<std::size_t>& caps, ArmId start,
                       std::vector<std::size_t>& used, ArmSet& current,
                       std::vector<ArmSet>& out) {
  if (!current.empty()) out.push_back(current);
  for (ArmId v = start; v < static_cast<ArmId>(groups.size()); ++v) {
    const auto g = static_cast<std::size_t>(groups[static_cast<std::size_t>(v)]);
    if (used[g] >= caps[g]) continue;
    ++used[g];
    current.push_back(v);
    enumerate_matroid(groups, caps, v + 1, used, current, out);
    current.pop_back();
    --used[g];
  }
}

}  // namespace

FeasibleSet make_partition_matroid_family(std::shared_ptr<const Graph> graph,
                                          const std::vector<int>& groups,
                                          std::size_t capacity) {
  if (!graph) {
    throw std::invalid_argument("make_partition_matroid_family: null graph");
  }
  if (groups.size() != graph->num_vertices()) {
    throw std::invalid_argument(
        "make_partition_matroid_family: one group id per vertex required");
  }
  if (capacity == 0) {
    throw std::invalid_argument("make_partition_matroid_family: capacity 0");
  }
  int max_group = -1;
  for (const int g : groups) {
    if (g < 0) {
      throw std::invalid_argument(
          "make_partition_matroid_family: negative group id");
    }
    max_group = std::max(max_group, g);
  }
  const std::vector<std::size_t> caps(static_cast<std::size_t>(max_group) + 1,
                                      capacity);
  std::vector<std::size_t> used(caps.size(), 0);
  std::vector<ArmSet> strategies;
  ArmSet current;
  enumerate_matroid(groups, caps, 0, used, current, strategies);
  std::sort(strategies.begin(), strategies.end(),
            [](const ArmSet& a, const ArmSet& b) {
              if (a.size() != b.size()) return a.size() < b.size();
              return a < b;
            });
  return FeasibleSet(std::move(graph), std::move(strategies),
                     FamilyKind::kPartitionMatroid);
}

}  // namespace ncb
