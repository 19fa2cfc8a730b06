#include "sim/experiment.hpp"

#include <sstream>
#include <stdexcept>

#include "graph/generators.hpp"

namespace ncb {

std::string ExperimentConfig::describe() const {
  std::ostringstream out;
  out << name << ": K=" << num_arms << " n=" << horizon
      << " reps=" << replications << " seed=" << seed;
  switch (graph_family) {
    case GraphFamily::kErdosRenyi:
      out << " graph=ER(p=" << edge_probability << ")";
      break;
    case GraphFamily::kComplete: out << " graph=complete"; break;
    case GraphFamily::kEmpty: out << " graph=empty"; break;
    case GraphFamily::kStar: out << " graph=star"; break;
    case GraphFamily::kCycle: out << " graph=cycle"; break;
    case GraphFamily::kDisjointCliques:
      out << " graph=cliques(x" << family_param << ")";
      break;
    case GraphFamily::kBarabasiAlbert:
      out << " graph=BA(m=" << family_param << ")";
      break;
    case GraphFamily::kWattsStrogatz:
      out << " graph=WS(k=" << family_param << ",beta=" << edge_probability
          << ")";
      break;
  }
  return out.str();
}

Graph build_graph(const ExperimentConfig& config) {
  Xoshiro256 rng(config.seed ^ 0x6a09e667f3bcc908ULL);
  switch (config.graph_family) {
    case GraphFamily::kErdosRenyi:
      return erdos_renyi(config.num_arms, config.edge_probability, rng);
    case GraphFamily::kComplete:
      return complete_graph(config.num_arms);
    case GraphFamily::kEmpty:
      return empty_graph(config.num_arms);
    case GraphFamily::kStar:
      return star_graph(config.num_arms);
    case GraphFamily::kCycle:
      return cycle_graph(config.num_arms);
    case GraphFamily::kDisjointCliques: {
      if (config.family_param == 0 || config.num_arms % config.family_param) {
        throw std::invalid_argument("build_graph: cliques must divide K");
      }
      return disjoint_cliques(config.family_param,
                              config.num_arms / config.family_param);
    }
    case GraphFamily::kBarabasiAlbert:
      return barabasi_albert(config.num_arms, config.family_param, rng);
    case GraphFamily::kWattsStrogatz:
      return watts_strogatz(config.num_arms, config.family_param,
                            config.edge_probability, rng);
  }
  throw std::logic_error("build_graph: bad family");
}

BanditInstance build_instance(const ExperimentConfig& config) {
  Graph graph = build_graph(config);
  Xoshiro256 rng(config.seed ^ 0xbb67ae8584caa73bULL);
  return random_bernoulli_instance(std::move(graph), rng);
}

std::shared_ptr<const FeasibleSet> build_family(const ExperimentConfig& config,
                                                const Graph& graph) {
  auto shared_graph = std::make_shared<const Graph>(graph);
  return std::make_shared<const FeasibleSet>(make_subset_family(
      shared_graph, config.strategy_size, config.exact_size_strategies));
}

ExperimentConfig fig3_config() {
  ExperimentConfig c;
  c.name = "fig3-sso";
  c.num_arms = 100;
  c.edge_probability = 0.3;
  c.horizon = 10000;
  return c;
}

}  // namespace ncb
