// Sweep engine (src/exp/): spec parsing/expansion, checkpoint grids, shard
// planning (in-process and dispatched), the in-order shard fold, Welford aggregation pinned against a two-pass reference, JSON
// emit/parse round-trips, and the headline determinism contract — the same
// SweepSpec must produce byte-identical JSON for any thread count and any
// shard size.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <random>
#include <set>
#include <sstream>

#include "core/policy_registry.hpp"
#include "exp/emitters.hpp"
#include "exp/shard_scheduler.hpp"
#include "exp/sweep_runner.hpp"
#include "sim/experiment.hpp"
#include "util/rng.hpp"

namespace ncb::exp {
namespace {

// ---------------------------------------------------------------- grids ---

TEST(CheckpointGrid, DenseWhenCountIsZeroOrLarge) {
  const auto dense = checkpoint_grid(50, 0);
  ASSERT_EQ(dense.size(), 50u);
  EXPECT_EQ(dense.front(), 1);
  EXPECT_EQ(dense.back(), 50);
  EXPECT_EQ(checkpoint_grid(20, 100).size(), 20u);
}

TEST(CheckpointGrid, LogSpacedCoversEndpointsStrictlyIncreasing) {
  const auto grid = checkpoint_grid(10000, 30);
  ASSERT_GE(grid.size(), 2u);
  EXPECT_LE(grid.size(), 31u);
  EXPECT_EQ(grid.front(), 1);
  EXPECT_EQ(grid.back(), 10000);
  for (std::size_t i = 1; i < grid.size(); ++i) {
    EXPECT_LT(grid[i - 1], grid[i]);
  }
}

TEST(CheckpointGrid, SingleCheckpointIsHorizon) {
  EXPECT_EQ(checkpoint_grid(777, 1), std::vector<TimeSlot>{777});
}

TEST(CheckpointGrid, ThrowsOnNonPositiveHorizon) {
  EXPECT_THROW((void)checkpoint_grid(0, 10), std::invalid_argument);
}

// ----------------------------------------------------------- spec parse ---

TEST(SweepSpecParse, ParsesEveryKey) {
  std::istringstream in(
      "# comment\n"
      "name = demo\n"
      "scenario = cso\n"
      "policies = dfl-cso, cucb\n"
      "graphs = er, cliques\n"
      "arms = 12, 24\n"
      "p = 0.3, 0.6\n"
      "family-param = 4\n"
      "horizons = 100, 200\n"
      "replications = 7\n"
      "seed = 99\n"
      "checkpoints = 11\n"
      "strategy-size = 2\n"
      "exact-size = true\n"
      "shard-size = 3\n");
  const SweepSpec spec = SweepSpec::parse(in);
  EXPECT_EQ(spec.name, "demo");
  EXPECT_EQ(spec.scenario, Scenario::kCso);
  EXPECT_EQ(spec.policies, (std::vector<std::string>{"dfl-cso", "cucb"}));
  ASSERT_EQ(spec.graphs.size(), 2u);
  EXPECT_EQ(spec.graphs[1], GraphFamily::kDisjointCliques);
  EXPECT_EQ(spec.arms, (std::vector<std::size_t>{12, 24}));
  EXPECT_EQ(spec.edge_probabilities, (std::vector<double>{0.3, 0.6}));
  EXPECT_EQ(spec.horizons, (std::vector<TimeSlot>{100, 200}));
  EXPECT_EQ(spec.replications, 7u);
  EXPECT_EQ(spec.seed, 99u);
  EXPECT_EQ(spec.checkpoints, 11u);
  EXPECT_EQ(spec.strategy_size, 2u);
  EXPECT_TRUE(spec.exact_size_strategies);
  EXPECT_EQ(spec.shard_size, 3u);
}

TEST(SweepSpecParse, RejectsMalformedInput) {
  const auto parse_text = [](const char* text) {
    std::istringstream in(text);
    return SweepSpec::parse(in);
  };
  EXPECT_THROW((void)parse_text("bogus-key = 1\n"), std::invalid_argument);
  EXPECT_THROW((void)parse_text("scenario = xxx\n"), std::invalid_argument);
  EXPECT_THROW((void)parse_text("graphs = heptagon\n"), std::invalid_argument);
  EXPECT_THROW((void)parse_text("arms = twelve\n"), std::invalid_argument);
  EXPECT_THROW((void)parse_text("p = 1.5\n"), std::invalid_argument);
  EXPECT_THROW((void)parse_text("horizons = 0\n"), std::invalid_argument);
  EXPECT_THROW((void)parse_text("replications =\n"), std::invalid_argument);
  EXPECT_THROW((void)parse_text("no equals sign\n"), std::invalid_argument);
}

TEST(SweepSpecParse, ErrorsNameTheLine) {
  std::istringstream in("name = x\n\nscenario = nope\n");
  try {
    (void)SweepSpec::parse(in);
    FAIL() << "expected parse error";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
  }
}

// ------------------------------------------------------------ expansion ---

TEST(SweepSpecExpand, CrossProductOrderPoliciesInnermost) {
  SweepSpec spec;
  spec.policies = {"moss", "dfl-sso"};
  spec.arms = {10, 20};
  spec.horizons = {100};
  const auto jobs = spec.expand();
  ASSERT_EQ(jobs.size(), 4u);
  EXPECT_EQ(jobs[0].key, "sso:moss@er,K=10,p=0.3,n=100");
  EXPECT_EQ(jobs[1].key, "sso:dfl-sso@er,K=10,p=0.3,n=100");
  EXPECT_EQ(jobs[2].key, "sso:moss@er,K=20,p=0.3,n=100");
  EXPECT_EQ(jobs[3].key, "sso:dfl-sso@er,K=20,p=0.3,n=100");
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(jobs[i].index, i);
    EXPECT_EQ(jobs[i].config.name, jobs[i].key);
  }
}

TEST(SweepSpecExpand, CollapsesAxesTheFamilyIgnores) {
  SweepSpec spec;
  spec.policies = {"ucb1"};
  spec.graphs = {GraphFamily::kErdosRenyi, GraphFamily::kComplete};
  spec.edge_probabilities = {0.1, 0.2};
  spec.arms = {8};
  spec.horizons = {50};
  const auto jobs = spec.expand();
  // ER consumes the p axis (2 jobs); complete collapses it (1 job).
  ASSERT_EQ(jobs.size(), 3u);
  EXPECT_EQ(jobs[2].key, "sso:ucb1@complete,K=8,n=50");
}

TEST(SweepSpecExpand, KeysAreUnique) {
  SweepSpec spec;
  spec.policies = {"ucb1", "moss"};
  spec.graphs = {GraphFamily::kErdosRenyi, GraphFamily::kWattsStrogatz};
  spec.edge_probabilities = {0.2, 0.4};
  spec.family_params = {2, 3};
  spec.arms = {16, 32};
  spec.horizons = {100, 200};
  const auto jobs = spec.expand();
  std::set<std::string> keys;
  for (const auto& job : jobs) {
    EXPECT_TRUE(keys.insert(job.key).second) << "duplicate " << job.key;
  }
}

TEST(SweepSpecExpand, ThrowsWithoutPolicies) {
  SweepSpec spec;
  EXPECT_THROW((void)spec.expand(), std::invalid_argument);
}

TEST(ScenarioAndFamilyTokens, RoundTrip) {
  for (const Scenario s : {Scenario::kSso, Scenario::kCso, Scenario::kSsr,
                           Scenario::kCsr}) {
    EXPECT_EQ(parse_scenario(scenario_token(s)), s);
  }
  for (const GraphFamily f :
       {GraphFamily::kErdosRenyi, GraphFamily::kComplete, GraphFamily::kEmpty,
        GraphFamily::kStar, GraphFamily::kCycle, GraphFamily::kDisjointCliques,
        GraphFamily::kBarabasiAlbert, GraphFamily::kWattsStrogatz}) {
    EXPECT_EQ(parse_family(family_token(f)), f);
  }
  EXPECT_THROW((void)parse_scenario("SSO"), std::invalid_argument);
  EXPECT_THROW((void)parse_family("erdos"), std::invalid_argument);
}

// ----------------------------------------------------------- shard plan ---

TEST(ShardPlanning, HorizonAwareSizing) {
  // Long horizon → one replication per shard.
  EXPECT_EQ(plan_shards(20, 16384).shard_size, 1u);
  EXPECT_EQ(plan_shards(20, 16384).num_shards(), 20u);
  // Short horizon → chunky shards, capped at the replication count.
  EXPECT_EQ(plan_shards(20, 100).shard_size, 20u);
  EXPECT_EQ(plan_shards(20, 100).num_shards(), 1u);
  // Mid horizon: 16384 / 4000 = 4 replications per shard.
  EXPECT_EQ(plan_shards(20, 4000).shard_size, 4u);
  EXPECT_EQ(plan_shards(20, 4000).num_shards(), 5u);
  // Override wins.
  EXPECT_EQ(plan_shards(20, 100, 3).shard_size, 3u);
  EXPECT_THROW((void)plan_shards(4, 0), std::invalid_argument);
}

TEST(ShardPlanning, ShardRangesPartitionReplications) {
  const ShardPlan plan = plan_shards(11, 100, 4);
  ASSERT_EQ(plan.num_shards(), 3u);
  std::size_t next = 0;
  for (std::size_t s = 0; s < plan.num_shards(); ++s) {
    EXPECT_EQ(plan.shard_begin(s), next);
    EXPECT_GT(plan.shard_end(s), plan.shard_begin(s));
    next = plan.shard_end(s);
  }
  EXPECT_EQ(next, 11u);
}

TEST(ShardPlanning, DispatchShardsRoundUpToWorkerThreads) {
  // The benchmark shapes on 2-thread workers: 16384 / 5000 = 3 → 4, so 8
  // replications go as 2 shards of 4; 16384 / 20000 = 0 → 1 → 2, so 32
  // replications go as 16 shards of 2.
  EXPECT_EQ(plan_dispatch_shards(8, 5000, 0, 2).shard_size, 4u);
  EXPECT_EQ(plan_dispatch_shards(8, 5000, 0, 2).num_shards(), 2u);
  EXPECT_EQ(plan_dispatch_shards(32, 20000, 0, 2).shard_size, 2u);
  EXPECT_EQ(plan_dispatch_shards(32, 20000, 0, 2).num_shards(), 16u);
  // Horizon 1 stays one shard, whatever the thread count.
  EXPECT_EQ(plan_dispatch_shards(32, 1, 0, 2).num_shards(), 1u);
  EXPECT_EQ(plan_dispatch_shards(8, 1, 0, 3).num_shards(), 1u);
  // Rounding never exceeds the job: 3 → 6 is clamped to 5.
  EXPECT_EQ(plan_dispatch_shards(5, 5000, 0, 6).shard_size, 5u);
  // One thread per worker, or an override, is plan_shards' cut.
  EXPECT_EQ(plan_dispatch_shards(8, 5000, 0, 1).shard_size, 3u);
  EXPECT_EQ(plan_dispatch_shards(8, 5000, 0, 0).shard_size, 3u);
  EXPECT_EQ(plan_dispatch_shards(8, 5000, 3, 4).shard_size, 3u);
}

TEST(ShardPlanning, OffsetPlanCoversItsRangeOnly) {
  ShardPlan plan;
  plan.first = 6;
  plan.replications = 5;
  plan.shard_size = 2;
  ASSERT_EQ(plan.num_shards(), 3u);
  EXPECT_EQ(plan.shard_begin(0), 6u);
  EXPECT_EQ(plan.shard_end(0), 8u);
  EXPECT_EQ(plan.shard_begin(2), 10u);
  EXPECT_EQ(plan.shard_end(2), 11u);
}

TEST(InOrderFoldTest, ShuffledShardsRenderTheInOrderRecord) {
  // A real job cut into 2-replication shards, each run on its own (the way
  // a distributed worker runs it), then delivered in shuffled orders: the
  // rendered record must equal the in-process job's, byte for byte.
  SweepJob job;
  job.key = "cso:dfl-cso@er,K=10,p=0.3,n=400,M=2";
  job.policy = "dfl-cso";
  job.scenario = Scenario::kCso;
  job.config.name = job.key;
  job.config.graph_family = GraphFamily::kErdosRenyi;
  job.config.num_arms = 10;
  job.config.edge_probability = 0.3;
  job.config.horizon = 400;
  job.config.replications = 9;
  job.config.seed = 5;
  job.config.strategy_size = 2;
  const std::size_t checkpoints = 12;
  const JobOutcome reference = run_sweep_job(job, checkpoints, {});
  const std::string expected =
      render_job_json(JobRecord::from(job, reference.aggregate));

  const std::vector<TimeSlot> grid =
      checkpoint_grid(job.config.horizon, checkpoints);
  ShardPlan cut;
  cut.replications = job.config.replications;
  cut.shard_size = 2;
  std::vector<std::vector<RepSample>> shards(cut.num_shards());
  for (std::size_t s = 0; s < cut.num_shards(); ++s) {
    ShardPlan range;
    range.first = cut.shard_begin(s);
    range.replications = cut.shard_end(s) - cut.shard_begin(s);
    range.shard_size = 1;
    run_job_replications(job, grid, range, {}, [&](RepSample&& sample) {
      shards[s].push_back(std::move(sample));
    });
  }

  std::vector<std::size_t> order(shards.size());
  for (std::size_t s = 0; s < order.size(); ++s) order[s] = s;
  std::mt19937 rng(17);
  for (int round = 0; round < 6; ++round) {
    if (round > 0) std::shuffle(order.begin(), order.end(), rng);
    if (round == 1) std::reverse(order.begin(), order.end());
    JobAggregate aggregate(grid);
    InOrderFold<RepSample> fold;
    for (const std::size_t s : order) {
      fold.deliver(s, shards[s], [&](RepSample&& sample) {
        aggregate.add_rep(sample);
      });
      EXPECT_LE(fold.folded(), shards.size());
    }
    EXPECT_EQ(fold.folded(), shards.size());
    EXPECT_EQ(render_job_json(JobRecord::from(job, aggregate)), expected)
        << "round " << round;
  }
}

// ------------------------------------------- Welford vs two-pass pinned ---

/// Brute-force two-pass mean and unbiased variance.
std::pair<double, double> two_pass(const std::vector<double>& xs) {
  double sum = 0.0;
  for (const double x : xs) sum += x;
  const double mean = sum / static_cast<double>(xs.size());
  double ss = 0.0;
  for (const double x : xs) ss += (x - mean) * (x - mean);
  const double var =
      xs.size() > 1 ? ss / static_cast<double>(xs.size() - 1) : 0.0;
  return {mean, var};
}

TEST(WelfordAggregation, RunningStatMergeMatchesTwoPassReference) {
  Xoshiro256 rng(404);
  std::vector<double> xs(257);
  for (auto& x : xs) x = rng.uniform(-5.0, 100.0);
  const auto [ref_mean, ref_var] = two_pass(xs);

  // Sequential adds.
  RunningStat seq;
  for (const double x : xs) seq.add(x);
  EXPECT_NEAR(seq.mean(), ref_mean, 1e-10 * std::abs(ref_mean));
  EXPECT_NEAR(seq.variance(), ref_var, 1e-9 * ref_var);

  // Chunked merge (the shard→job reduction shape), several chunk sizes.
  for (const std::size_t chunk : {1u, 3u, 64u, 300u}) {
    RunningStat merged;
    for (std::size_t at = 0; at < xs.size(); at += chunk) {
      RunningStat part;
      for (std::size_t i = at; i < std::min(at + chunk, xs.size()); ++i) {
        part.add(xs[i]);
      }
      merged.merge(part);
    }
    EXPECT_EQ(merged.count(), xs.size());
    EXPECT_NEAR(merged.mean(), ref_mean, 1e-10 * std::abs(ref_mean));
    EXPECT_NEAR(merged.variance(), ref_var, 1e-9 * ref_var);
  }
}

TEST(WelfordAggregation, JobAggregateMatchesTwoPassPerCheckpoint) {
  const std::vector<TimeSlot> grid{1, 5, 9};
  Xoshiro256 rng(77);
  const std::size_t reps = 33;
  std::vector<RepSample> samples(reps);
  for (auto& sample : samples) {
    for (std::size_t c = 0; c < grid.size(); ++c) {
      sample.per_slot.push_back(rng.uniform());
      sample.cumulative.push_back(rng.uniform(0.0, 50.0));
    }
    sample.final_cumulative = sample.cumulative.back();
  }
  JobAggregate agg(grid);
  for (const auto& sample : samples) agg.add_rep(sample);

  ASSERT_EQ(agg.replications(), reps);
  for (std::size_t c = 0; c < grid.size(); ++c) {
    std::vector<double> column;
    for (const auto& sample : samples) column.push_back(sample.per_slot[c]);
    const auto [ref_mean, ref_var] = two_pass(column);
    EXPECT_NEAR(agg.expected().at(c).mean(), ref_mean, 1e-12);
    EXPECT_NEAR(agg.expected().at(c).variance(), ref_var, 1e-12);
  }
}

TEST(WelfordAggregation, RejectsMismatchedSample) {
  JobAggregate agg(std::vector<TimeSlot>{1, 2});
  RepSample bad;
  bad.per_slot = {1.0};
  bad.cumulative = {1.0};
  EXPECT_THROW(agg.add_rep(bad), std::invalid_argument);
}

// --------------------------------------------------- sharded driver ---

SweepSpec tiny_spec() {
  SweepSpec spec;
  spec.name = "tiny";
  spec.scenario = Scenario::kSso;
  spec.policies = {"moss", "dfl-sso"};
  spec.arms = {16};
  spec.edge_probabilities = {0.4};
  spec.horizons = {120};
  spec.replications = 5;
  spec.seed = 99;
  spec.checkpoints = 10;
  return spec;
}

/// Renders the whole sweep output for one (threads, shard size) choice.
std::string render_sweep(const SweepSpec& spec, std::size_t threads,
                         std::size_t shard_size) {
  ThreadPool pool(threads ? threads : 1);
  SweepRunOptions options;
  options.pool = threads ? &pool : nullptr;
  options.shard_size = shard_size;
  const SweepResult result = run_sweep(spec, options);
  std::vector<std::string> lines;
  for (const JobOutcome& outcome : result.outcomes) {
    lines.push_back(
        render_job_json(JobRecord::from(outcome.job, outcome.aggregate)));
  }
  return render_sweep_json(spec, lines);
}

TEST(SweepDeterminism, ByteIdenticalAcrossThreadsAndShardSizes) {
  const SweepSpec spec = tiny_spec();
  const std::string reference = render_sweep(spec, 1, 1);
  EXPECT_EQ(render_sweep(spec, 2, 1), reference);
  EXPECT_EQ(render_sweep(spec, 8, 1), reference);
  EXPECT_EQ(render_sweep(spec, 1, 3), reference);
  EXPECT_EQ(render_sweep(spec, 2, 3), reference);
  EXPECT_EQ(render_sweep(spec, 8, 3), reference);
  EXPECT_EQ(render_sweep(spec, 0, 2), reference);  // no pool at all
}

TEST(SweepRunner, MaxJobsAndSkipKeys) {
  const SweepSpec spec = tiny_spec();
  const auto jobs = spec.expand();
  ASSERT_EQ(jobs.size(), 2u);

  SweepRunOptions options;
  options.max_jobs = 1;
  const SweepResult first = run_sweep(spec, options);
  EXPECT_EQ(first.outcomes.size(), 1u);
  EXPECT_EQ(first.pending, 1u);
  EXPECT_EQ(first.outcomes[0].job.key, jobs[0].key);

  const SweepResult rest =
      run_sweep(spec, SweepRunOptions{}, {jobs[0].key});
  EXPECT_EQ(rest.outcomes.size(), 1u);
  EXPECT_EQ(rest.skipped, 1u);
  EXPECT_EQ(rest.outcomes[0].job.key, jobs[1].key);
}

TEST(SweepRunner, CombinatorialScenarioRuns) {
  SweepSpec spec;
  spec.scenario = Scenario::kCso;
  spec.policies = {"dfl-cso"};
  spec.arms = {6};
  spec.edge_probabilities = {0.4};
  spec.horizons = {60};
  spec.replications = 2;
  spec.strategy_size = 2;
  spec.checkpoints = 5;
  const SweepResult result = run_sweep(spec, SweepRunOptions{});
  ASSERT_EQ(result.outcomes.size(), 1u);
  EXPECT_EQ(result.outcomes[0].aggregate.replications(), 2u);
  EXPECT_GT(result.outcomes[0].aggregate.optimal_per_slot(), 0.0);
  // Combinatorial keys are self-describing: scenario prefix + M suffix.
  EXPECT_EQ(result.outcomes[0].job.key, "cso:dfl-cso@er,K=6,p=0.4,n=60,M=2");
}

/// Slot-by-slot bitwise equality of two Welford series (means and
/// variances — EXPECT_EQ, not NEAR).
void expect_same_bits(const SeriesStat& a, const SeriesStat& b) {
  ASSERT_EQ(a.length(), b.length());
  for (std::size_t i = 0; i < a.length(); ++i) {
    EXPECT_EQ(a.at(i).mean(), b.at(i).mean()) << "slot " << i;
    EXPECT_EQ(a.at(i).variance(), b.at(i).variance()) << "slot " << i;
  }
}

void expect_same_bits(const RunningStat& a, const RunningStat& b) {
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.mean(), b.mean());
  EXPECT_EQ(a.variance(), b.variance());
}

TEST(ShardedReplication, PoolPresenceDoesNotChangeBits) {
  SweepJob job = tiny_spec().expand()[1];  // dfl-sso
  const BanditInstance instance = build_instance(job.config);
  ReplicationOptions options;
  options.replications = job.config.replications;
  options.master_seed = job.config.seed;
  options.runner.horizon = job.config.horizon;
  const auto make = [&](std::uint64_t seed) {
    return PolicyRegistry::instance().make_single_play(
        job.policy, job.config.horizon, seed);
  };
  const ReplicatedResult sequential =
      run_replicated_single(make, instance, Scenario::kSso, options);
  for (const std::size_t threads : {2u, 3u, 4u}) {
    SCOPED_TRACE(threads);
    ThreadPool pool(threads);
    options.pool = &pool;
    const ReplicatedResult pooled =
        run_replicated_single(make, instance, Scenario::kSso, options);
    ASSERT_EQ(sequential.replications, pooled.replications);
    expect_same_bits(sequential.per_slot_regret, pooled.per_slot_regret);
    expect_same_bits(sequential.cumulative_regret, pooled.cumulative_regret);
    expect_same_bits(sequential.per_slot_pseudo_regret,
                     pooled.per_slot_pseudo_regret);
    expect_same_bits(sequential.final_cumulative, pooled.final_cumulative);
  }
}

TEST(ShardedReplication, DenseSweepJobMatchesReplicatedResult) {
  // A dense-grid (checkpoints = 0) sweep job samples every slot, so its
  // aggregate must be the ReplicatedResult of the same config, bit for bit
  // — whatever the pool or the shard plan on either side.
  ThreadPool pool(4);
  for (const Scenario scenario : {Scenario::kSso, Scenario::kCso}) {
    SweepSpec spec;
    spec.scenario = scenario;
    spec.policies = {is_combinatorial(scenario) ? "dfl-cso" : "dfl-sso"};
    spec.arms = {10};
    spec.edge_probabilities = {0.4};
    spec.horizons = {2000};  // auto plan: shards of 8 replications
    spec.replications = 12;
    spec.seed = 5;
    spec.strategy_size = 2;
    spec.checkpoints = 0;
    const SweepJob job = spec.expand().at(0);
    SweepRunOptions options;
    options.pool = &pool;
    options.shard_size = 5;
    const JobOutcome outcome = run_sweep_job(job, spec.checkpoints, options);
    ASSERT_TRUE(outcome.complete);
    const ReplicatedResult replicated =
        is_combinatorial(scenario)
            ? run_combinatorial_experiment(job.config, job.policy, scenario,
                                           &pool)
            : run_single_experiment(job.config, job.policy, scenario, &pool);
    ASSERT_EQ(outcome.aggregate.grid().size(),
              replicated.per_slot_regret.length());
    expect_same_bits(outcome.aggregate.expected(), replicated.per_slot_regret);
    expect_same_bits(outcome.aggregate.cumulative(),
                     replicated.cumulative_regret);
    expect_same_bits(outcome.aggregate.final_cumulative(),
                     replicated.final_cumulative);
    EXPECT_EQ(outcome.aggregate.optimal_per_slot(),
              replicated.optimal_per_slot);
  }
}

TEST(ShardedReplication, RunSingleExperimentPoolInvariant) {
  ExperimentConfig config;
  config.num_arms = 12;
  config.horizon = 150;
  config.replications = 6;
  const auto sequential =
      run_single_experiment(config, "dfl-sso", Scenario::kSso);
  ThreadPool pool(4);
  const auto pooled =
      run_single_experiment(config, "dfl-sso", Scenario::kSso, &pool);
  EXPECT_EQ(sequential.final_cumulative.mean(), pooled.final_cumulative.mean());
  EXPECT_EQ(sequential.cumulative_regret.means(),
            pooled.cumulative_regret.means());
}

// ------------------------------------------------------------- emitters ---

TEST(JsonNumber, ShortestRoundTrip) {
  EXPECT_EQ(json_number(0.3), "0.3");
  EXPECT_EQ(json_number(1.0), "1");
  EXPECT_EQ(json_number(-2.5), "-2.5");
  for (const double v : {0.1, 1.0 / 3.0, 1e-17, 123456.789, -0.0625}) {
    EXPECT_EQ(std::stod(json_number(v)), v);
  }
}

TEST(JobRecordJson, RoundTripsThroughParse) {
  const SweepSpec spec = tiny_spec();
  const SweepResult result = run_sweep(spec, SweepRunOptions{});
  ASSERT_EQ(result.outcomes.size(), 2u);
  for (const JobOutcome& outcome : result.outcomes) {
    const JobRecord record = JobRecord::from(outcome.job, outcome.aggregate);
    const std::string line = render_job_json(record);
    const JobRecord parsed = parse_job_json(line);
    EXPECT_EQ(parsed.key, record.key);
    EXPECT_EQ(parsed.policy, record.policy);
    EXPECT_EQ(parsed.scenario, record.scenario);
    EXPECT_EQ(parsed.checkpoints, record.checkpoints);
    EXPECT_EQ(parsed.expected_mean, record.expected_mean);
    EXPECT_EQ(parsed.cumulative_sd, record.cumulative_sd);
    EXPECT_EQ(parsed.final_mean, record.final_mean);
    // Re-rendering the parsed record reproduces the exact bytes.
    EXPECT_EQ(render_job_json(parsed), line);
  }
}

TEST(JobRecordJson, PreservesSeedsAbove2Pow53) {
  // Integer fields must not round-trip through double: 2^53 + 1 is the
  // first integer a double cannot hold.
  SweepSpec spec = tiny_spec();
  spec.seed = 9007199254740993ull;
  spec.policies = {"ucb1"};
  spec.horizons = {30};
  spec.replications = 2;
  const SweepResult result = run_sweep(spec, SweepRunOptions{});
  ASSERT_EQ(result.outcomes.size(), 1u);
  const JobRecord record = JobRecord::from(result.outcomes[0].job,
                                           result.outcomes[0].aggregate);
  const JobRecord parsed = parse_job_json(render_job_json(record));
  EXPECT_EQ(parsed.seed, 9007199254740993ull);
  EXPECT_EQ(render_job_json(parsed), render_job_json(record));
}

TEST(JobRecordJson, ParseRejectsGarbage) {
  EXPECT_THROW((void)parse_job_json("{}"), std::invalid_argument);
  EXPECT_THROW((void)parse_job_json("not json"), std::invalid_argument);
}

TEST(SweepEmitters, LoadJobLinesScansAndTolleratesTruncation) {
  const SweepSpec spec = tiny_spec();
  const SweepResult result = run_sweep(spec, SweepRunOptions{});
  std::vector<std::string> lines;
  for (const JobOutcome& outcome : result.outcomes) {
    lines.push_back(
        render_job_json(JobRecord::from(outcome.job, outcome.aggregate)));
  }
  const std::string path =
      testing::TempDir() + "/ncb_sweep_test_output.json";
  write_file(path, render_sweep_json(spec, lines));

  const auto loaded = load_job_lines(path);
  ASSERT_EQ(loaded.size(), 2u);
  for (const std::string& line : lines) {
    const JobRecord record = parse_job_json(line);
    ASSERT_TRUE(loaded.count(record.key));
    EXPECT_EQ(loaded.at(record.key), line);
  }

  // A mid-line truncation (crash during write) must drop only that record.
  const std::string full = render_sweep_json(spec, lines);
  const std::size_t cut = full.rfind("\"final_mean\"");
  write_file(path, full.substr(0, cut));
  const auto partial = load_job_lines(path);
  EXPECT_EQ(partial.size(), 1u);

  EXPECT_TRUE(load_job_lines(path + ".does-not-exist").empty());
}

// ------------------------------------------- instance cache + interrupt ---

TEST(InstanceCache, ReusesMatchingBuildsAcrossPolicyAxis) {
  const SweepSpec spec = tiny_spec();
  const auto jobs = spec.expand();  // two policies over one instance
  ASSERT_EQ(jobs.size(), 2u);
  InstanceCache cache;
  // Hold shared_ptr copies: get() returns a reference into the cache slot.
  const auto first = cache.get(jobs[0].config, false).instance;
  const auto second = cache.get(jobs[1].config, false).instance;
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);

  // Horizon is not an instance coordinate — still a hit.
  ExperimentConfig horizon_only = jobs[0].config;
  horizon_only.horizon = 999;
  EXPECT_EQ(cache.get(horizon_only, false).instance.get(), first.get());

  // Any instance coordinate change rebuilds.
  ExperimentConfig changed = jobs[0].config;
  changed.edge_probability = 0.25;
  const auto third = cache.get(changed, false).instance;
  EXPECT_NE(third.get(), first.get());
  EXPECT_EQ(cache.misses(), 2u);
}

TEST(InstanceCache, CombinatorialEntryCarriesFamilyAndKeysOnIt) {
  SweepSpec spec = tiny_spec();
  spec.scenario = Scenario::kCso;
  spec.strategy_size = 2;
  const auto jobs = spec.expand();
  InstanceCache cache;
  const auto entry = cache.get(jobs[0].config, true);
  ASSERT_NE(entry.family, nullptr);
  ExperimentConfig bigger = jobs[0].config;
  bigger.strategy_size = 3;
  const auto rebuilt = cache.get(bigger, true);
  EXPECT_NE(rebuilt.instance.get(), entry.instance.get());
}

TEST(InstanceCache, SharedCacheDoesNotChangeBytes) {
  const SweepSpec spec = tiny_spec();
  const SweepResult shared = run_sweep(spec, SweepRunOptions{});
  const auto jobs = spec.expand();
  ASSERT_EQ(shared.outcomes.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    SweepRunOptions solo;  // no shared cache → fresh build per job
    const JobOutcome outcome = run_sweep_job(jobs[i], spec.checkpoints, solo);
    EXPECT_EQ(render_job_json(JobRecord::from(outcome.job, outcome.aggregate)),
              render_job_json(JobRecord::from(shared.outcomes[i].job,
                                              shared.outcomes[i].aggregate)));
  }
}

TEST(SweepRunner, ShouldStopBetweenJobsReportsPending) {
  const SweepSpec spec = tiny_spec();  // two jobs
  std::size_t completed = 0;
  SweepRunOptions options;
  options.on_job = [&](const JobOutcome&) { ++completed; };
  options.should_stop = [&] { return completed >= 1; };
  const SweepResult result = run_sweep(spec, options);
  EXPECT_TRUE(result.interrupted);
  EXPECT_EQ(result.outcomes.size(), 1u);
  EXPECT_EQ(result.pending, 1u);
}

TEST(SweepRunner, ShouldStopMidJobDropsTheIncompleteAggregate) {
  SweepSpec spec = tiny_spec();
  spec.policies = {"moss"};  // one job, five reps
  SweepRunOptions options;
  options.shard_size = 1;  // five single-rep shards, run inline
  int calls = 0;
  // Call sequence without a pool: pre-job check, then one check per shard.
  // Allowing two calls lets exactly one shard run before cancellation.
  options.should_stop = [&] { return ++calls > 2; };
  const SweepResult result = run_sweep(spec, options);
  EXPECT_TRUE(result.interrupted);
  EXPECT_TRUE(result.outcomes.empty());  // incomplete job is dropped
  EXPECT_EQ(result.pending, 1u);
}

TEST(SweepEmitters, CsvHasRowPerCheckpoint) {
  const SweepSpec spec = tiny_spec();
  const SweepResult result = run_sweep(spec, SweepRunOptions{});
  std::vector<JobRecord> records;
  std::size_t expected_rows = 0;
  for (const JobOutcome& outcome : result.outcomes) {
    records.push_back(JobRecord::from(outcome.job, outcome.aggregate));
    expected_rows += records.back().checkpoints.size();
  }
  const std::string csv = render_sweep_csv(records);
  std::size_t newlines = 0;
  for (const char c : csv) newlines += c == '\n';
  EXPECT_EQ(newlines, expected_rows + 1);  // + header
  EXPECT_EQ(csv.compare(0, 4, "key,"), 0);
}

}  // namespace
}  // namespace ncb::exp
