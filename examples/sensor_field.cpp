// Environmental sensor-field monitoring: a data-collection drone queries one
// sensor per round for its event-detection reading, but overhearing the
// low-power radio broadcasts of the queried sensor's grid neighbors comes for
// free — the side-observation structure of the paper, with the relation graph
// given by physical adjacency rather than social ties.
//
// Sensors sit on an 8x6 grid; detection probability peaks at a hot spot and
// decays with distance. We compare DFL-SSO (exploits overheard neighbors)
// against plain UCB1 (discards them) under SSO semantics.
#include <cmath>
#include <iomanip>
#include <iostream>

#include "exp/sweep_runner.hpp"
#include "graph/generators.hpp"
#include "util/arg_parse.hpp"

int main(int argc, char** argv) {
  using namespace ncb;
  parse_flags(argc, argv, {});  // takes no flags

  constexpr std::size_t kRows = 8;
  constexpr std::size_t kCols = 6;
  Graph graph = grid_graph(kRows, kCols);

  // Detection probability: a hot spot near cell (2, 4) decaying with
  // Manhattan distance, floored at a 5% false-positive rate.
  std::vector<double> detect(kRows * kCols);
  for (std::size_t r = 0; r < kRows; ++r) {
    for (std::size_t c = 0; c < kCols; ++c) {
      const double dist = std::abs(static_cast<double>(r) - 2.0) +
                          std::abs(static_cast<double>(c) - 4.0);
      detect[r * kCols + c] = std::max(0.05, 0.9 - 0.12 * dist);
    }
  }
  const exp::InstanceCache::Entry built{
      std::make_shared<const BanditInstance>(bernoulli_instance(graph, detect)),
      nullptr};
  std::cout << "hot-spot sensor: " << built.instance->best_arm()
            << " (detects " << built.instance->best_mean() * 100
            << "% of events)\n";

  // 12 replications of 6000 rounds per policy, sampled at the horizon
  // alone: only the final regret R_n is reported.
  constexpr std::size_t kReplications = 12;
  constexpr TimeSlot kHorizon = 6000;
  constexpr std::uint64_t kSeed = 20170605;
  ThreadPool pool;
  exp::SweepRunOptions run_options;
  run_options.pool = &pool;
  const std::vector<TimeSlot> grid = exp::checkpoint_grid(kHorizon, 1);

  struct Entry {
    std::string name;
    std::string policy;  ///< Registry spec.
  };
  const std::vector<Entry> policies{{"DFL-SSO", "dfl-sso"}, {"UCB1", "ucb1"}};

  std::cout << "\nmissed detections over " << kHorizon << " query rounds:\n";
  for (const auto& entry : policies) {
    exp::JobAggregate result(grid);
    exp::run_job_replications(
        entry.policy, Scenario::kSso, kHorizon, kSeed, built, grid,
        exp::plan_shards(kReplications, kHorizon), run_options,
        [&result](exp::RepSample&& s) { result.add_rep(s); });
    std::cout << "  " << std::setw(8) << std::left << entry.name << std::right
              << " cumulative regret = " << std::setw(8)
              << result.final_cumulative().mean() << "  (R_n/n = "
              << result.final_cumulative().mean() /
                     static_cast<double>(kHorizon)
              << ")\n";
  }
  std::cout << "\noverheard neighbor broadcasts localize the hot spot with "
               "far fewer wasted queries than probe-only UCB1.\n";
  return 0;
}
