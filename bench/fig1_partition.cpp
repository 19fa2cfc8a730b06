// Figure 1 — the Theorem 1 proof construction: threshold-partition the
// relation graph G into near-optimal arms K1 and clearly-suboptimal arms
// K2, induce the subgraph H on K2, and clique-cover H. This binary prints
// the construction on a small instance (mirroring the paper's illustration)
// and on the Fig. 3 instance, with the Theorem 1 bound it yields.
#include <iostream>

#include "bench_common.hpp"
#include "graph/clique_cover.hpp"
#include "graph/generators.hpp"
#include "graph/metrics.hpp"
#include "graph/partition.hpp"
#include "theory/bounds.hpp"

namespace {

void show_partition(const ncb::Graph& g, const std::vector<double>& means,
                    std::int64_t horizon) {
  using namespace ncb;
  const auto gaps = gaps_from_means(means);
  const double delta0 = default_delta0(g.num_vertices(), horizon);
  const auto part = threshold_partition(g, gaps, delta0);
  std::cout << "delta0 = e*sqrt(K/n) = " << delta0 << '\n'
            << "K1 (gap <= delta0): " << part.k1.size() << " arms {";
  for (std::size_t i = 0; i < part.k1.size() && i < 12; ++i) {
    if (i) std::cout << ',';
    std::cout << part.k1[i];
  }
  if (part.k1.size() > 12) std::cout << ",...";
  std::cout << "}\n"
            << "K2 (gap >  delta0): " << part.k2.size() << " arms\n"
            << "subgraph H: " << compute_metrics(part.subgraph_h).to_string()
            << '\n'
            << "greedy clique cover of H: C = " << part.cover.size() << '\n'
            << "Theorem 1 bound at n = " << horizon << ": "
            << theorem1_bound(horizon, g.num_vertices(),
                              part.clique_cover_size())
            << '\n';
  if (part.cover.size() <= 12) {
    for (std::size_t c = 0; c < part.cover.size(); ++c) {
      std::cout << "  clique " << c << " (H-local ids -> G ids):";
      for (const ArmId v : part.cover[c]) {
        std::cout << ' ' << part.h_to_original[static_cast<std::size_t>(v)];
      }
      std::cout << '\n';
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ncb;
  using namespace ncb::bench;
  const CommonFlags flags = parse_common(argc, argv);

  std::cout << "==========================================================\n"
               "Figure 1: graph partition + clique cover (Theorem 1 proof)\n"
               "==========================================================\n";

  // Small illustrative instance, like the paper's cartoon: 12 arms, one
  // tight cluster of near-optimal arms.
  {
    std::cout << "\n-- illustrative 12-arm instance --\n";
    Xoshiro256 rng(flags.seed);
    const Graph g = erdos_renyi(12, 0.45, rng);
    std::vector<double> means(12);
    for (std::size_t i = 0; i < 12; ++i) {
      // Three near-optimal arms; the rest clearly suboptimal.
      means[i] = i < 3 ? 0.9 - 0.001 * static_cast<double>(i)
                       : rng.uniform(0.1, 0.6);
    }
    show_partition(g, means, 1000);
  }

  // The Fig. 3 instance (K = 100, n = 10000).
  {
    std::cout << "\n-- the Fig. 3 instance --\n";
    ExperimentConfig config = fig3_config();
    apply_flags(config, flags);
    const auto instance = build_instance(config);
    show_partition(instance.graph(), instance.means(), config.horizon);
  }
  return 0;
}
