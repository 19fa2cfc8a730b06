// Regret decomposition: where did the regret go? Runs DFL-SSO and MOSS on
// the Fig. 3 instance and prints the top per-arm contributions T_i(n)·Δ_i
// (the quantity the Theorem 1 proof bounds arm by arm). The contrast shows
// *why* side observation helps: MOSS pays for exploring every mid-gap arm,
// DFL-SSO gets those samples free.
#include <iostream>

#include "bench_common.hpp"
#include "core/policy_registry.hpp"
#include "sim/analysis.hpp"

int main(int argc, char** argv) {
  using namespace ncb;
  using namespace ncb::bench;
  CommonFlags flags = parse_common(argc, argv);
  if (!flags.quick && flags.horizon > 5000) flags.horizon = 5000;

  ExperimentConfig config = fig3_config();
  apply_flags(config, flags);
  if (flags.arms == 0) config.num_arms = 50;

  print_header("Regret decomposition: T_i(n)*gap_i per arm (single run)",
               "Top contributors under MOSS vs DFL-SSO on one instance.",
               config);

  const auto instance = build_instance(config);
  for (const char* name : {"moss", "dfl-sso"}) {
    Environment env(instance, flags.seed + 1);
    const auto policy = PolicyRegistry::instance().make_single_play(
        name, config.horizon, flags.seed);
    RunnerOptions opts;
    opts.horizon = config.horizon;
    const auto run = run_single_play(*policy, env, Scenario::kSso, opts);
    const auto d = decompose_single_play(run, instance);
    std::cout << "\n-- " << policy->name() << " --\n" << d.to_string(8);
    // Count arms that consumed at least 1% of the horizon.
    std::size_t heavy = 0;
    for (const auto& row : d.rows) {
      const auto one_percent =
          static_cast<std::int64_t>(run.cumulative_regret.size() / 100);
      if (row.plays > one_percent) ++heavy;
    }
    std::cout << "arms with >1% of plays: " << heavy << '\n';
  }
  return 0;
}
