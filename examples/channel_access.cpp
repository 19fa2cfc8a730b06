// Opportunistic channel access in cognitive radio (one of the paper's §I
// motivating applications): a secondary user probes one channel per slot;
// spectrum sensing on adjacent channels comes for free (side observation),
// because the radio's FFT window covers neighboring frequencies.
//
// Channels form a ring lattice with a few long-range correlations
// (Watts–Strogatz); availability is Bernoulli. We compare DFL-SSO, UCB-N,
// and MOSS under SSO semantics.
#include <iomanip>
#include <iostream>

#include "exp/sweep_runner.hpp"
#include "graph/generators.hpp"
#include "util/arg_parse.hpp"

int main(int argc, char** argv) {
  using namespace ncb;
  parse_flags(argc, argv, {});  // takes no flags

  // 32 channels; sensing a channel also senses its 2 neighbors per side,
  // with 10% of adjacencies rewired to model cross-band interference.
  Xoshiro256 rng(99);
  Graph graph = watts_strogatz(32, 2, 0.1, rng);

  // Channel availability: a quiet region around channels 20-25.
  std::vector<double> availability(32);
  for (std::size_t c = 0; c < 32; ++c) {
    availability[c] = (c >= 20 && c <= 25) ? 0.85 - 0.02 * (c - 20)
                                           : 0.25 + 0.3 * ((c * 7) % 10) / 10.0;
  }
  const exp::InstanceCache::Entry built{
      std::make_shared<const BanditInstance>(
          bernoulli_instance(graph, availability)),
      nullptr};
  std::cout << "best channel: " << built.instance->best_arm() << " (available "
            << built.instance->best_mean() * 100 << "% of slots)\n";

  // 12 replications of 8000 slots per policy, sampled at the horizon alone:
  // only the final regret R_n is reported. MOSS is told the horizon.
  constexpr std::size_t kReplications = 12;
  constexpr TimeSlot kHorizon = 8000;
  constexpr std::uint64_t kSeed = 20170605;
  ThreadPool pool;
  exp::SweepRunOptions run_options;
  run_options.pool = &pool;
  const std::vector<TimeSlot> grid = exp::checkpoint_grid(kHorizon, 1);

  struct Entry {
    std::string name;
    std::string policy;  ///< Registry spec.
  };
  const std::vector<Entry> policies{
      {"DFL-SSO", "dfl-sso"}, {"UCB-N", "ucb-n"}, {"MOSS", "moss"}};

  std::cout << "\nmissed transmission opportunities over " << kHorizon
            << " slots:\n";
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
  std::cout << "\nfree adjacent-channel sensing (DFL-SSO, UCB-N) beats "
               "probe-only learning (MOSS).\n";
  return 0;
}
