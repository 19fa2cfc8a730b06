// Influence campaign (the paper's CSR scenario): each week a brand gives
// free samples to M seed users of a social network. Every seeded user and
// *all their friends* may then buy (combinatorial side reward): the payout
// is Σ_{j∈Y_x} X_j over the union of the seeds' closed neighborhoods. The
// right seed set maximizes neighborhood coverage value, not individual
// conversion — a set-cover flavored bandit.
//
// DFL-CSR (Algorithm 4) learns per-user conversion rates from observed
// neighborhoods and re-optimizes every week through a coverage oracle. We
// compare the exact oracle against the scalable lazy-greedy oracle and
// against CUCB (which ignores the influence structure entirely).
#include <iostream>

#include "core/cucb.hpp"
#include "core/dfl_csr.hpp"
#include "graph/generators.hpp"
#include "graph/metrics.hpp"
#include "sim/replication.hpp"

int main() {
  using namespace ncb;

  // 24 users, preferential attachment (hubs exist), seed M = 2 per week.
  Xoshiro256 rng(1503);
  auto graph = std::make_shared<const Graph>(barabasi_albert(24, 2, rng));
  std::cout << "social graph: " << compute_metrics(*graph).to_string() << '\n';

  BanditInstance instance = random_bernoulli_instance(*graph, rng, 0.05, 0.6);
  const auto family =
      std::make_shared<const FeasibleSet>(make_subset_family(graph, 2));
  std::cout << "|F| = " << family->size() << " seed sets, N = max|Y_x| = "
            << family->max_neighborhood_size() << '\n';

  // Ground truth for orientation: the best seed set under CSR.
  const StrategyId best = optimal_strategy(instance, Scenario::kCsr, *family);
  std::cout << "optimal seeds: {";
  for (std::size_t i = 0; i < family->strategy(best).size(); ++i) {
    if (i) std::cout << ',';
    std::cout << family->strategy(best)[i];
  }
  std::cout << "} with sigma* = "
            << instance.strategy_mean(family->neighborhood(best))
            << " expected purchases/week\n\n";

  ReplicationOptions options;
  options.replications = 10;
  options.runner.horizon = 8000;
  ThreadPool pool;
  options.pool = &pool;

  struct Entry {
    std::string label;
    CombinatorialPolicyFactory factory;
  };
  const std::vector<Entry> entries{
      {"DFL-CSR (exact oracle)",
       [&](std::uint64_t s) -> std::unique_ptr<CombinatorialPolicy> {
         return std::make_unique<DflCsr>(family, nullptr,
                                         DflCsrOptions{.seed = s});
       }},
      {"DFL-CSR (lazy greedy) ",
       [&](std::uint64_t s) -> std::unique_ptr<CombinatorialPolicy> {
         return std::make_unique<DflCsr>(
             family, std::make_shared<const GreedyCoverageOracle>(),
             DflCsrOptions{.seed = s});
       }},
      {"CUCB (no influence)   ",
       [&](std::uint64_t s) -> std::unique_ptr<CombinatorialPolicy> {
         return std::make_unique<Cucb>(family, CucbOptions{.seed = s});
       }},
  };

  std::cout << "cumulative missed purchases over " << options.runner.horizon
            << " weeks (regret vs sigma*):\n";
  for (const auto& entry : entries) {
    const auto result = run_replicated_combinatorial(
        entry.factory, instance, *family, Scenario::kCsr, options);
    std::cout << "  " << entry.label << " : "
              << result.final_cumulative.mean() << " (+/-"
              << result.final_cumulative.ci95_halfwidth() << ")\n";
  }
  std::cout << "\nCUCB maximizes the seeds' own conversions and ignores the "
               "network;\nDFL-CSR covers the high-value neighborhoods.\n";
  return 0;
}
