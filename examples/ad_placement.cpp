// Online advertising (the paper's combinatorial-play motivation, §II):
// a website can show at most M ads per page view. Ads are arms; the
// relation graph links ads of the same product category — showing one ad
// reveals click-through feedback for its related ads (users who ignore a
// running-shoe ad tell you something about the other shoe ads).
//
// We compare DFL-CSO (Algorithm 2, exploits side observation across the
// strategy relation graph) against CUCB (no side bonus) under CSO
// semantics, with category-clustered ads.
#include <iostream>

#include "exp/sweep_runner.hpp"
#include "graph/generators.hpp"
#include "util/arg_parse.hpp"

int main(int argc, char** argv) {
  using namespace ncb;
  parse_flags(argc, argv, {});  // takes no flags

  // 12 ads in 3 product categories of 4; same-category ads are related.
  constexpr std::size_t kAds = 12, kCategories = 3, kSlotsPerPage = 2;
  auto graph = std::make_shared<const Graph>(
      disjoint_cliques(kCategories, kAds / kCategories));

  // Click-through rates: category 2 hides the two best ads.
  std::vector<double> ctr{0.04, 0.06, 0.05, 0.03,   // category 0
                          0.08, 0.07, 0.06, 0.05,   // category 1
                          0.02, 0.12, 0.11, 0.03};  // category 2
  const auto instance =
      std::make_shared<const BanditInstance>(bernoulli_instance(*graph, ctr));

  // Feasible strategies: every set of at most M ads.
  const auto family = std::make_shared<const FeasibleSet>(
      make_subset_family(graph, kSlotsPerPage));
  std::cout << "ad inventory: " << kAds << " ads, " << family->size()
            << " feasible placements (M = " << kSlotsPerPage << ")\n";

  // 10 replications of 8000 page views per policy, sampled at the horizon
  // alone: only the final regret R_n is reported.
  constexpr std::size_t kReplications = 10;
  constexpr TimeSlot kHorizon = 8000;
  constexpr std::uint64_t kSeed = 20170605;
  ThreadPool pool;
  exp::SweepRunOptions run_options;
  run_options.pool = &pool;
  const std::vector<TimeSlot> grid = exp::checkpoint_grid(kHorizon, 1);
  const auto replicate = [&](const std::string& policy,
                             std::shared_ptr<const FeasibleSet> placements) {
    exp::JobAggregate aggregate(grid);
    exp::run_job_replications(
        policy, Scenario::kCso, kHorizon, kSeed, {instance, placements}, grid,
        exp::plan_shards(kReplications, kHorizon), run_options,
        [&aggregate](exp::RepSample&& s) { aggregate.add_rep(s); });
    return aggregate;
  };

  const exp::JobAggregate dfl = replicate("dfl-cso", family);
  const exp::JobAggregate cucb = replicate("cucb", family);
  const RunningStat& dfl_final = dfl.final_cumulative();
  const RunningStat& cucb_final = cucb.final_cumulative();

  std::cout << "optimal placement CTR sum (lambda*): " << dfl.optimal_per_slot()
            << "  (ads 9+10)\n"
            << "cumulative missed clicks after " << kHorizon
            << " page views:\n"
            << "  DFL-CSO (uses category feedback): " << dfl_final.mean()
            << " (+/-" << dfl_final.ci95_halfwidth() << ")\n"
            << "  CUCB    (ignores it):             " << cucb_final.mean()
            << " (+/-" << cucb_final.ci95_halfwidth() << ")\n";
  const double factor = cucb_final.mean() / std::max(dfl_final.mean(), 1e-9);
  std::cout << "side observation buys a " << factor << "x regret reduction\n";

  // Variant: a diversity constraint — one page slot per category, at most
  // one ad from each (a partition matroid over 3 slots). Pairing the two
  // best ads {9,10} is now infeasible (same category); DFL-CSO learns the
  // best diverse placement instead.
  std::vector<int> categories(kAds);
  for (std::size_t i = 0; i < kAds; ++i) {
    categories[i] = static_cast<int>(i / (kAds / kCategories));
  }
  const auto diverse_family = std::make_shared<const FeasibleSet>(
      make_partition_matroid_family(graph, categories, /*capacity=*/1));
  std::cout << "\nwith a one-ad-per-category constraint: "
            << diverse_family->size() << " feasible placements\n";
  const exp::JobAggregate diverse = replicate("dfl-cso", diverse_family);
  std::cout << "best diverse placement CTR sum: " << diverse.optimal_per_slot()
            << " (vs unconstrained " << dfl.optimal_per_slot() << ")\n"
            << "DFL-CSO cumulative regret under the matroid constraint: "
            << diverse.final_cumulative().mean() << " (+/-"
            << diverse.final_cumulative().ci95_halfwidth() << ")\n";
  return 0;
}
