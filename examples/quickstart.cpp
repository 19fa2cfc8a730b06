// Quickstart: the smallest end-to-end use of the ncb public API.
//
//   1. Build a relation graph over K arms.
//   2. Attach reward distributions (a BanditInstance).
//   3. Pick a policy (DFL-SSO here) and let the simulation runner drive the
//      feedback loop under side-observation semantics.
//   4. Read the regret series off the result.
//
// Build & run:  ./build/examples/quickstart
#include <iostream>

#include "core/dfl_sso.hpp"
#include "env/environment.hpp"
#include "graph/generators.hpp"
#include "sim/runner.hpp"
#include "util/arg_parse.hpp"

int main(int argc, char** argv) {
  using namespace ncb;
  parse_flags(argc, argv, {});  // takes no flags

  // 1. A random relation graph over 20 arms: an edge means "pulling one arm
  //    also reveals the other's reward this slot".
  Xoshiro256 rng(7);
  Graph graph = erdos_renyi(/*n=*/20, /*p=*/0.3, rng);

  // 2. Bernoulli arms with means drawn uniformly from [0, 1] (the paper's
  //    §VII setting).
  BanditInstance instance = random_bernoulli_instance(std::move(graph), rng);
  std::cout << "best arm: " << instance.best_arm()
            << " (mu* = " << instance.best_mean() << ")\n";

  // 3. DFL-SSO (Algorithm 1) against a seeded environment.
  Environment env(instance, /*seed=*/42);
  DflSso policy;
  RunnerOptions options;
  options.horizon = 5000;
  const RunResult result = run_single_play(policy, env, Scenario::kSso, options);

  // 4. Regret diagnostics.
  std::cout << "cumulative regret after " << options.horizon
            << " slots: " << result.cumulative_regret.back() << '\n'
            << "average regret R_n/n:    " << result.final_average_regret()
            << "  (zero-regret policies drive this to 0)\n";

  // How often was the best arm played over the last thousand slots? The
  // play-count vector tells us where the policy converged.
  std::cout << "plays of best arm: "
            << result.play_counts[static_cast<std::size_t>(instance.best_arm())]
            << " / " << options.horizon << '\n';
  return 0;
}
