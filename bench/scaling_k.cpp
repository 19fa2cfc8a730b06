// Scaling vs K — two modes.
//
// Default (Google Benchmark, when built with it): microbenchmarks of the
// relation-graph hot paths at large K, the workloads the CSR layout exists
// for. `--benchmark_format=json` output seeds BENCH_graph.json via
// `./ci.sh bench`. Benchmarks take (K, p_permille) argument pairs; the
// tracked points are the dense K = 400, p = 0.6 graph (the ISSUE/ROADMAP
// perf target) and the K = 10^4 sparse stress graph.
//
//   GraphConstructER        — generator + CSR build, O(E) fast path
//   ClosedNeighborhoodSweep — the runner's per-slot closed-row walk, all K rows
//   StrategyNeighborhoodUnion — Y_x bitset-row ORs over CSR rows
//   DflSsoSlot              — one full policy slot (select + batched observe)
//
// `--table` (always available): the regret-vs-K sweep, DFL-SSO at fixed
// horizon over ER graphs, now a thin client of the sweep engine (src/exp/).
// Theorem 1 predicts R_n = O(sqrt(nK)); the sqrt(K)-normalized column stays
// flat if the scaling holds. `--table --large` appends the K = 10^4 sparse
// (p = 0.002) end-to-end point, tractable thanks to geometric-skipping ER
// generation + sharded replications.
#include <cmath>
#include <cstring>
#include <iostream>

#include "bench_common.hpp"
#include "core/policy_registry.hpp"
#include "exp/sweep_runner.hpp"
#include "graph/generators.hpp"
#include "sim/thread_pool.hpp"
#include "util/rng.hpp"

#ifdef NCB_HAVE_BENCHMARK
#include <benchmark/benchmark.h>
#endif

namespace {

using namespace ncb;
using namespace ncb::bench;

// The regret table is a K-axis sweep of the engine (src/exp/): one
// SweepSpec over arms = {10..400} (plus 10^4 with --large), per-job rows
// streamed from run_sweep's on_job callback with the engine's timing.
int run_table_mode(int argc, char** argv) {
  CommonFlags flags = parse_common(argc, argv);
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
  exp::SweepSpec spec;
  spec.name = "scaling-k";
  spec.scenario = Scenario::kSso;
  spec.policies = {"dfl-sso"};
  spec.graphs = {base.graph_family};
  spec.arms = {10, 25, 50, 100, 200, 400};
  spec.edge_probabilities = {flags.p};
  spec.horizons = {flags.horizon};
  spec.replications = flags.reps;
  spec.seed = flags.seed;
  spec.checkpoints = 20;  // only the final scalar feeds the table

  std::cout << "==========================================================\n"
               "Scaling: DFL-SSO vs K (ER p=" << flags.p << ", n="
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

#ifdef NCB_HAVE_BENCHMARK

Graph stress_graph(std::size_t k, double p) {
  Xoshiro256 rng(42);
  return erdos_renyi(k, p, rng);
}

double permille(const benchmark::State& state) {
  return static_cast<double>(state.range(1)) / 1000.0;
}

/// ER generation + full CSR build (offsets, flat neighbor/closed arrays,
/// bitset rows). The generator takes the no-dedup fast path.
void BM_GraphConstructER(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  const double p = permille(state);
  Xoshiro256 rng(42);
  std::size_t edges = 0;
  for (auto _ : state) {
    const Graph g = erdos_renyi(k, p, rng);
    edges = g.num_edges();
    benchmark::DoNotOptimize(edges);
  }
  state.counters["edges"] = static_cast<double>(edges);
}

/// The runner's inner loop shape: walk every vertex's closed neighborhood
/// (one contiguous CSR row each) and touch every entry.
void BM_ClosedNeighborhoodSweep(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  const Graph g = stress_graph(k, permille(state));
  for (auto _ : state) {
    std::int64_t acc = 0;
    for (std::size_t i = 0; i < k; ++i) {
      for (const ArmId j : g.closed_neighborhood(static_cast<ArmId>(i))) {
        acc += j;
      }
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * g.num_edges() + k));
}

/// Y_x construction: closed-row bitset ORs over the flat word array.
void BM_StrategyNeighborhoodUnion(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  const Graph g = stress_graph(k, permille(state));
  Xoshiro256 rng(7);
  ArmSet strategy;
  for (int i = 0; i < 8; ++i) {
    strategy.push_back(static_cast<ArmId>(rng.uniform_int(k)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.strategy_neighborhood(strategy).count());
  }
}

/// Covers every arm with one observation so no index is +inf. The all-+inf
/// opening is a one-off coupon-collector transient (~K·lnK/deg slots, in
/// which every slot ties across all unobserved arms); warming past it makes
/// the timed loop measure the steady-state slot cost a long-horizon run
/// actually pays — the regime the incremental dirty-set cache targets.
void warm_all_arms(SinglePlayPolicy& policy, std::size_t k, TimeSlot& t,
                   Xoshiro256& rng) {
  ObservationBatch warm;
  warm.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    warm.add(static_cast<ArmId>(i), rng.uniform());
  }
  ++t;
  policy.observe(0, t, warm.span());
}

/// One full DFL-SSO slot: select (O(K) index scan) + the batched
/// closed-neighborhood observe the runner performs. The K = 10^4 point is
/// the ISSUE's "construction + one policy step completes" stress criterion.
void BM_DflSsoSlot(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  const Graph g = stress_graph(k, permille(state));
  const auto policy =
      PolicyRegistry::instance().make_single_play("dfl-sso", 1 << 20, 7);
  policy->reset(g);
  Xoshiro256 rng(9);
  ObservationBatch batch;
  batch.reserve(k);
  TimeSlot t = 0;
  warm_all_arms(*policy, k, t, rng);
  for (auto _ : state) {
    ++t;
    const ArmId a = policy->select(t);
    batch.clear();
    for (const ArmId j : g.closed_neighborhood(a)) batch.add(j, rng.uniform());
    policy->observe(a, t, batch.span());
    benchmark::DoNotOptimize(a);
  }
  state.SetItemsProcessed(state.iterations());
}

/// Large-K slots: same loop as BM_DflSsoSlot but the graph is CSR-only
/// (kCsrOnly — the bitset rows alone would be 2.5 GB at K = 10^5 and
/// 250 GB at 10^6) and the second argument is the average degree, since
/// p_permille cannot express p = 2·10^-5. These points exist because of
/// the incremental dirty-set index cache: a slot refreshes only the
/// ~degree observed arms instead of all K.
void BM_DflSsoSlotLargeK(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  const double p = static_cast<double>(state.range(1)) /
                   static_cast<double>(k - 1);
  Xoshiro256 graph_rng(42);
  const Graph g = erdos_renyi(k, p, graph_rng, ErSampling::kGeometric,
                              GraphStorage::kCsrOnly);
  const auto policy =
      PolicyRegistry::instance().make_single_play("dfl-sso", 1 << 20, 7);
  policy->reset(g);
  Xoshiro256 rng(9);
  ObservationBatch batch;
  batch.reserve(k);
  TimeSlot t = 0;
  warm_all_arms(*policy, k, t, rng);
  for (auto _ : state) {
    ++t;
    const ArmId a = policy->select(t);
    batch.clear();
    for (const ArmId j : g.closed_neighborhood(a)) batch.add(j, rng.uniform());
    policy->observe(a, t, batch.span());
    benchmark::DoNotOptimize(a);
  }
  state.counters["edges"] = static_cast<double>(g.num_edges());
  state.SetItemsProcessed(state.iterations());
}

// Tracked points: dense K=400 p=0.6 (the ROADMAP target), mid-size K=1000
// p=0.1, and the K=10^4 sparse stress graph (p=0.002, ~100k edges).
BENCHMARK(BM_GraphConstructER)
    ->Args({400, 600})
    ->Args({1000, 100})
    ->Args({10000, 2})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ClosedNeighborhoodSweep)
    ->Args({400, 600})
    ->Args({1000, 100})
    ->Args({10000, 2})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_StrategyNeighborhoodUnion)
    ->Args({400, 600})
    ->Args({10000, 2});
BENCHMARK(BM_DflSsoSlot)
    ->Args({400, 600})
    ->Args({10000, 2})
    ->Unit(benchmark::kMicrosecond);
// Args: {K, average degree}. CSR-only storage; see BM_DflSsoSlotLargeK.
BENCHMARK(BM_DflSsoSlotLargeK)
    ->Args({100000, 20})
    ->Args({1000000, 20})
    ->Unit(benchmark::kMicrosecond);

#endif  // NCB_HAVE_BENCHMARK

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--table") == 0) {
      // Strip --table and hand the rest to the legacy CSV sweep.
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      return run_table_mode(argc - 1, argv);
    }
  }
#ifdef NCB_HAVE_BENCHMARK
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
#else
  // Without Google Benchmark only the regret table is available.
  return run_table_mode(argc, argv);
#endif
}
