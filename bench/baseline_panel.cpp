// A8 — baseline panel: every single-play policy on the Fig. 3 instance
// under SSO semantics. Shows where DFL-SSO lands among classical
// (UCB1/MOSS/Thompson/eps-greedy/Exp3), side-observation
// (UCB-N/UCB-MaxN/+side variants), and floor (random) baselines.
#include <iomanip>
#include <iostream>

#include "bench_common.hpp"
#include "core/policy_registry.hpp"
#include "sim/thread_pool.hpp"

int main(int argc, char** argv) {
  using namespace ncb;
  using namespace ncb::bench;
  CommonFlags flags = parse_common(argc, argv);
  if (!flags.quick && flags.horizon > 5000) flags.horizon = 5000;
  if (flags.reps > 10) flags.reps = 10;

  ExperimentConfig config = fig3_config();
  apply_flags(config, flags);
  config.edge_probability = flags.p;
  if (flags.arms == 0) config.num_arms = 50;

  print_header("Ablation A8: baseline panel (SSO semantics)",
               "All single-play policies on one instance; lower is better.",
               config);

  ThreadPool pool;
  std::cout << "policy,final_cumulative_regret,ci95,final_avg_regret\n";
  struct Row {
    std::string name;
    double regret;
  };
  std::vector<Row> rows;
  for (const auto& name : PolicyRegistry::instance().single_play_names()) {
    const auto result =
        run_single_experiment(config, name, Scenario::kSso, &pool);
    std::cout << name << ',' << result.final_cumulative.mean() << ','
              << result.final_cumulative.ci95_halfwidth() << ','
              << result.final_cumulative.mean() /
                     static_cast<double>(config.horizon)
              << '\n';
    rows.push_back({name, result.final_cumulative.mean()});
  }

  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.regret < b.regret; });
  std::cout << "\nranking (best first):\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::cout << "  " << std::setw(2) << i + 1 << ". " << std::setw(18)
              << std::left << rows[i].name << std::right << "  R_n = "
              << rows[i].regret << '\n';
  }
  return 0;
}
