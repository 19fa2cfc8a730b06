// Robustness: DFL-SSO vs the side-observation drop rate. At p = 0 the
// policy enjoys the full side bonus; at p = 1 it degenerates to anytime
// MOSS (own feedback only). The sweep shows regret interpolating between
// the Fig. 3 endpoints — the side bonus degrades gracefully, it does not
// break the policy.
#include <iostream>

#include "bench_common.hpp"
#include "core/policy_registry.hpp"
#include "sim/replication.hpp"
#include "sim/thread_pool.hpp"
#include "util/ascii_plot.hpp"

int main(int argc, char** argv) {
  using namespace ncb;
  using namespace ncb::bench;
  CommonFlags flags = parse_common(argc, argv);
  if (!flags.quick && flags.horizon > 5000) flags.horizon = 5000;

  ExperimentConfig config = fig3_config();
  apply_flags(config, flags);
  if (flags.arms == 0) config.num_arms = 50;
  config.edge_probability = flags.p;

  print_header("Robustness: DFL-SSO under dropped side observations",
               "Each side observation is lost independently w.p. drop; "
               "drop=1 reduces DFL-SSO to own-feedback MOSS.",
               config);

  const auto instance = build_instance(config);
  ThreadPool pool;
  std::cout << "drop_prob,final_cumulative_regret,ci95\n";
  std::vector<double> series;
  for (const double drop : {0.0, 0.2, 0.4, 0.6, 0.8, 0.95, 1.0}) {
    ReplicationOptions options;
    options.replications = config.replications;
    options.master_seed = config.seed;
    options.runner.horizon = config.horizon;
    options.runner.observation_drop_prob = drop;
    options.pool = &pool;
    const auto result = run_replicated_single(
        [&](std::uint64_t seed) {
          return PolicyRegistry::instance().make_single_play(
              "dfl-sso", config.horizon, seed);
        },
        instance, Scenario::kSso, options);
    std::cout << drop << ',' << result.final_cumulative.mean() << ','
              << result.final_cumulative.ci95_halfwidth() << '\n';
    series.push_back(result.final_cumulative.mean());
  }
  PlotOptions opts;
  opts.title = "final regret vs drop probability (x = index in drop list)";
  opts.y_zero = true;
  opts.height = 12;
  std::cout << render_plot(series, opts);
  return 0;
}
