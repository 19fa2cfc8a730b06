// Figure 2 — constructing the strategy relation graph SG(F, L) from the
// arm relation graph G (paper §IV). Reproduces the paper's exact 4-arm
// path example: 7 independent-set strategies, their observed sets Y, and
// the SG links implied by the mutual-containment rule.
#include <iostream>

#include "graph/generators.hpp"
#include "graph/metrics.hpp"
#include "strategy/strategy_graph.hpp"
#include "util/arg_parse.hpp"

int main(int argc, char** argv) {
  using namespace ncb;
  parse_flags(argc, argv, {});  // takes no flags

  std::cout
      << "==========================================================\n"
         "Figure 2: arm relation graph G -> strategy relation graph SG\n"
         "Paper example: 4-arm path, F = independent sets (7 strategies)\n"
         "==========================================================\n";

  const auto graph = std::make_shared<const Graph>(path_graph(4));
  std::cout << "\nrelation graph G (arms 0-3, paper uses 1-4):\n"
            << graph->to_string();
  for (ArmId i = 0; i < 4; ++i) {
    std::cout << "N_" << i << " = {";
    const ArmSpan closed = graph->closed_neighborhood(i);
    for (std::size_t j = 0; j < closed.size(); ++j) {
      if (j) std::cout << ',';
      std::cout << closed[j];
    }
    std::cout << "}\n";
  }

  const FeasibleSet family = make_independent_set_family(graph);
  std::cout << '\n' << family.to_string();

  const Graph sg = build_strategy_graph(family);
  std::cout << "\nstrategy relation graph SG(F, L):\n" << sg.to_string();
  std::cout << "SG metrics: " << compute_metrics(sg).to_string() << '\n';

  std::cout << "\npaper's worked pair: s2={2} (id 1) ~ s5={1,3} (id 4): "
            << (sg.has_edge(1, 4) ? "linked" : "NOT linked") << '\n';

  std::cout << "\nobservable strategies per play (s_y contained in Y_x):\n";
  for (StrategyId x = 0; x < static_cast<StrategyId>(family.size()); ++x) {
    std::cout << "  play s" << x << " -> observe {";
    const auto obs = observable_strategies(family, x);
    for (std::size_t i = 0; i < obs.size(); ++i) {
      if (i) std::cout << ',';
      std::cout << 's' << obs[i];
    }
    std::cout << "}\n";
  }
  return 0;
}
