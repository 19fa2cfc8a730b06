#include "strategy/strategy_graph.hpp"

#include <algorithm>
#include <cstdint>

namespace ncb {

Graph build_strategy_graph(const FeasibleSet& family, GraphStorage storage) {
  const std::size_t count = family.size();
  const std::size_t words = family.strategy_bits(0).row().num_words();
  // Flat copies of the s_x and Y_x rows: the O(|F|²) pair scan below then
  // streams contiguous words instead of chasing a heap row per test.
  std::vector<std::uint64_t> arms(count * words);
  std::vector<std::uint64_t> observed(count * words);
  for (std::size_t x = 0; x < count; ++x) {
    const auto id = static_cast<StrategyId>(x);
    const BitRow s = family.strategy_bits(id).row();
    const BitRow y = family.neighborhood_bits(id).row();
    std::copy(s.words(), s.words() + words, arms.begin() + x * words);
    std::copy(y.words(), y.words() + words, observed.begin() + x * words);
  }
  const auto inside = [&](std::size_t a, std::size_t b) {  // s_a ⊆ Y_b
    const std::uint64_t* s = arms.data() + a * words;
    const std::uint64_t* y = observed.data() + b * words;
    for (std::size_t w = 0; w < words; ++w) {
      if (s[w] & ~y[w]) return false;
    }
    return true;
  };
  std::vector<Edge> links;
  for (std::size_t x = 0; x < count; ++x) {
    for (std::size_t y = x + 1; y < count; ++y) {
      if (inside(y, x) && inside(x, y)) {
        links.emplace_back(static_cast<StrategyId>(x),
                           static_cast<StrategyId>(y));
      }
    }
  }
  return Graph::from_unique_edges(count, links, storage);
}

std::vector<StrategyId> observable_strategies(const FeasibleSet& family,
                                              StrategyId x) {
  std::vector<StrategyId> out;
  const Bitset64& observed = family.neighborhood_bits(x);
  for (StrategyId y = 0; y < static_cast<StrategyId>(family.size()); ++y) {
    if (family.strategy_bits(y).is_subset_of(observed)) out.push_back(y);
  }
  return out;
}

}  // namespace ncb
