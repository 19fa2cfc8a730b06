// Scaling vs K: the regret-vs-K sweep, DFL-SSO at fixed horizon over ER
// graphs, a thin client of the sweep engine (src/exp/). Theorem 1 predicts
// R_n = O(sqrt(nK)); the sqrt(K)-normalized column stays flat if the
// scaling holds. `--large` appends the K = 10^4 sparse (p = 0.002)
// end-to-end point, tractable thanks to geometric-skipping ER generation +
// sharded replications.
#include <cmath>
#include <cstring>
#include <iostream>

#include "bench_common.hpp"
#include "exp/sweep_runner.hpp"
#include "sim/thread_pool.hpp"

// The regret table is a K-axis sweep of the engine (src/exp/): one
// SweepSpec over arms = {10..400} (plus 10^4 with --large), per-job rows
// streamed from run_sweep's on_job callback with the engine's timing.
int main(int argc, char** argv) {
  using namespace ncb;
  using namespace ncb::bench;
  CommonFlags flags = parse_common(
      argc, argv, {"horizon", "large", "p", "quick", "reps", "seed"});
  bool large = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--large") == 0) large = true;
  }
  if (!flags.quick && flags.horizon > 5000) {
    std::cout << "(note: --horizon capped at 5000 for this sweep)\n";
    flags.horizon = 5000;
  }
  if (flags.reps > 10) {
    std::cout << "(note: --reps capped at 10 for this sweep)\n";
    flags.reps = 10;
  }

  const ExperimentConfig base = fig3_config();
  const double p = flags.p.value_or(base.edge_probability);
  exp::SweepSpec spec;
  spec.name = "scaling-k";
  spec.scenario = Scenario::kSso;
  spec.policies = {"dfl-sso"};
  spec.graphs = {base.graph_family};
  spec.arms = {10, 25, 50, 100, 200, 400};
  spec.edge_probabilities = {p};
  spec.horizons = {flags.horizon};
  spec.replications = flags.reps;
  spec.seed = flags.seed;
  spec.checkpoints = 20;  // only the final scalar feeds the table

  std::cout << "==========================================================\n"
               "Scaling: DFL-SSO vs K (ER p=" << p << ", n="
            << flags.horizon << ")\n"
               "==========================================================\n"
               "K,final_cumulative_regret,ci95,regret_over_sqrt_nK,seconds\n";

  ThreadPool pool;
  exp::SweepRunOptions options;
  options.pool = &pool;
  options.on_job = [&](const exp::JobOutcome& outcome) {
    const auto& final_stat = outcome.aggregate.final_cumulative();
    const auto k = outcome.job.config.num_arms;
    const double norm =
        final_stat.mean() /
        std::sqrt(static_cast<double>(outcome.job.config.horizon) *
                  static_cast<double>(k));
    std::cout << k << ',' << final_stat.mean() << ','
              << final_stat.ci95_halfwidth() << ',' << norm << ','
              << outcome.seconds << '\n';
  };
  (void)exp::run_sweep(spec, options);
  if (large) {
    // Appended stress row: the K = 10^4 point runs sparse (p = 0.002, like
    // specs/scaling_k.sweep) so its row is not comparable to the p column
    // above — it demonstrates end-to-end feasibility, not the p trend.
    std::cout << "# K=10000 row below uses p=0.002 (sparse stress point)\n";
    exp::SweepSpec stress = spec;
    stress.arms = {10000};
    stress.edge_probabilities = {0.002};
    (void)exp::run_sweep(stress, options);
  }
  std::cout << "(regret_over_sqrt_nK stays O(1) if Theorem 1's scaling "
               "holds; it typically *decreases* because denser absolute "
               "neighborhoods mean more free observations per pull)\n";
  return 0;
}
