// Social-network product recommendation (the paper's side-reward
// motivation, §I-II): promoting a product to a user also influences her
// friends' purchases, so the realized reward of picking user i is the sum
// over the closed friend-neighborhood N_i. The right target is the user
// with the most valuable *neighborhood* (u_i = Σ_{j∈N_i} μ_j), not the most
// valuable individual — a hub with an average conversion rate can beat a
// high-converting loner.
//
// The friendship graph is Barabási–Albert (heavy-tailed degrees, like real
// social networks); DFL-SSR (Algorithm 3) learns where to seed promotions.
#include <iostream>

#include "exp/sweep_runner.hpp"
#include "graph/generators.hpp"
#include "graph/metrics.hpp"
#include "util/arg_parse.hpp"

int main(int argc, char** argv) {
  using namespace ncb;
  parse_flags(argc, argv, {});  // takes no flags

  // 60 users, preferential attachment: a few hubs, many leaves.
  Xoshiro256 rng(2017);
  Graph graph = barabasi_albert(60, 2, rng);
  std::cout << "friendship graph: " << compute_metrics(graph).to_string()
            << '\n';

  // Conversion probabilities uniform in [0, 0.5].
  const exp::InstanceCache::Entry built{
      std::make_shared<const BanditInstance>(
          random_bernoulli_instance(std::move(graph), rng, 0.0, 0.5)),
      nullptr};
  const BanditInstance& instance = *built.instance;
  std::cout << "best individual converter: user " << instance.best_arm()
            << " (mu = " << instance.best_mean() << ")\n"
            << "best neighborhood seed:    user "
            << instance.best_side_reward_arm()
            << " (u = " << instance.best_side_reward_mean()
            << " expected purchases/slot)\n";

  // 10 replications of 10000 campaigns per policy, sampled at the horizon
  // alone: only the final regret R_n is reported.
  constexpr std::size_t kReplications = 10;
  constexpr TimeSlot kHorizon = 10000;
  constexpr std::uint64_t kSeed = 20170605;
  ThreadPool pool;
  exp::SweepRunOptions run_options;
  run_options.pool = &pool;
  const std::vector<TimeSlot> grid = exp::checkpoint_grid(kHorizon, 1);
  const auto final_regret = [&](const std::string& policy) {
    exp::JobAggregate aggregate(grid);
    exp::run_job_replications(
        policy, Scenario::kSsr, kHorizon, kSeed, built, grid,
        exp::plan_shards(kReplications, kHorizon), run_options,
        [&aggregate](exp::RepSample&& s) { aggregate.add_rep(s); });
    return aggregate.final_cumulative();
  };

  // DFL-SSR targets neighborhood value; MOSS (told the horizon) chases
  // individual conversions and is structurally blind to the hub effect
  // (run under the same SSR payout to make the comparison fair).
  const RunningStat ssr = final_regret("dfl-ssr");
  const RunningStat moss = final_regret("moss");

  std::cout << "cumulative missed purchases after " << kHorizon
            << " campaigns:\n"
            << "  DFL-SSR (targets u_i):  " << ssr.mean() << " (+/-"
            << ssr.ci95_halfwidth() << ")\n"
            << "  MOSS    (targets mu_i): " << moss.mean() << " (+/-"
            << moss.ci95_halfwidth() << ")\n"
            << "average regret per campaign (DFL-SSR): "
            << ssr.mean() / static_cast<double>(kHorizon)
            << " -> approaches 0 (zero-regret)\n";
  return 0;
}
