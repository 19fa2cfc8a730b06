// The replicated-run entry point, exp::run_job_replications: its counts and
// series lengths, its determinism over thread counts (and no pool at all),
// its seed sensitivity, and its combinatorial path.
#include <gtest/gtest.h>

#include "exp/sweep_runner.hpp"
#include "graph/generators.hpp"
#include "sequential_reference.hpp"
#include "sim/experiment.hpp"

namespace ncb {
namespace {

constexpr std::uint64_t kSeed = 1234;

exp::InstanceCache::Entry small_instance() {
  Xoshiro256 rng(42);
  return {std::make_shared<const BanditInstance>(
              random_bernoulli_instance(erdos_renyi(8, 0.4, rng), rng)),
          nullptr};
}

/// `policy` replicated on `built` through run_job_replications, aggregated
/// on the dense grid 1..horizon.
exp::JobAggregate replicate(const std::string& policy, Scenario scenario,
                            const exp::InstanceCache::Entry& built,
                            std::size_t reps, TimeSlot horizon,
                            ThreadPool* pool = nullptr,
                            std::uint64_t seed = kSeed) {
  const std::vector<TimeSlot> grid = exp::checkpoint_grid(horizon, 0);
  exp::JobAggregate aggregate(grid);
  exp::SweepRunOptions options;
  options.pool = pool;
  exp::run_job_replications(
      policy, scenario, horizon, seed, built, grid,
      exp::plan_shards(reps, horizon), options,
      [&aggregate](exp::RepSample&& s) { aggregate.add_rep(s); });
  return aggregate;
}

TEST(Replication, CountsAndSeriesLengths) {
  const auto built = small_instance();
  const auto result = replicate("dfl-sso", Scenario::kSso, built, 5, 200);
  EXPECT_EQ(result.replications(), 5u);
  EXPECT_EQ(result.expected().length(), 200u);
  EXPECT_EQ(result.cumulative().length(), 200u);
  EXPECT_EQ(result.final_cumulative().count(), 5u);
  EXPECT_DOUBLE_EQ(result.optimal_per_slot(), built.instance->best_mean());
}

/// Every slot's mean and variance of both series, plus the final
/// cumulative regret, must match bit for bit (EXPECT_EQ, not NEAR).
void expect_same_bits(const exp::JobAggregate& a, const exp::JobAggregate& b) {
  ASSERT_EQ(a.replications(), b.replications());
  const auto same_series = [](const SeriesStat& x, const SeriesStat& y,
                              const char* name) {
    ASSERT_EQ(x.length(), y.length()) << name;
    for (std::size_t i = 0; i < x.length(); ++i) {
      EXPECT_EQ(x.at(i).mean(), y.at(i).mean()) << name << " slot " << i;
      EXPECT_EQ(x.at(i).variance(), y.at(i).variance())
          << name << " slot " << i;
    }
  };
  same_series(a.expected(), b.expected(), "expected");
  same_series(a.cumulative(), b.cumulative(), "cumulative");
  EXPECT_EQ(a.final_cumulative().mean(), b.final_cumulative().mean());
  EXPECT_EQ(a.final_cumulative().variance(), b.final_cumulative().variance());
  EXPECT_EQ(a.optimal_per_slot(), b.optimal_per_slot());
}

TEST(Replication, DeterministicRegardlessOfThreads) {
  // No pool runs the shards inline; a pool of any size must not move a bit.
  const auto built = small_instance();
  const auto sequential = replicate("dfl-sso", Scenario::kSso, built, 12, 300);
  for (const std::size_t threads : {1u, 3u, 4u}) {
    SCOPED_TRACE(threads);
    ThreadPool pool(threads);
    expect_same_bits(sequential, replicate("dfl-sso", Scenario::kSso, built,
                                           12, 300, &pool));
  }
}

TEST(Replication, RunSingleExperimentMatchesSequentialReplication) {
  // A single-play experiment is one dense sweep job. n = 2000 plans shards
  // of 8 replications: 20 reps → shards 8, 8, 4.
  exp::SweepSpec spec;
  spec.policies = {"dfl-sso"};
  spec.arms = {12};
  spec.horizons = {2000};
  spec.replications = 20;
  spec.seed = 77;
  spec.checkpoints = 0;
  const exp::SweepJob job = spec.expand().at(0);
  const ExperimentConfig& config = job.config;
  const SequentialReplications sequential = replicate_sequentially(
      "dfl-sso", Scenario::kSso, config.horizon, config.seed,
      config.replications,
      std::make_shared<const BanditInstance>(build_instance(config)));
  ThreadPool pool(3);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    exp::SweepRunOptions run;
    run.pool = p;
    const exp::JobAggregate aggregate =
        exp::run_sweep_job(job, spec.checkpoints, run).aggregate;
    ASSERT_EQ(aggregate.expected().length(), 2000u);
    for (std::size_t i = 0; i < 2000; ++i) {
      EXPECT_EQ(aggregate.expected().at(i).mean(),
                sequential.per_slot.at(i).mean());
      EXPECT_EQ(aggregate.cumulative().at(i).variance(),
                sequential.cumulative.at(i).variance());
    }
    EXPECT_EQ(aggregate.final_cumulative().mean(),
              sequential.final_cumulative.mean());
    EXPECT_EQ(aggregate.final_cumulative().variance(),
              sequential.final_cumulative.variance());
  }
}

TEST(Replication, DifferentSeedsGiveDifferentResults) {
  const auto built = small_instance();
  const auto r1 = replicate("dfl-sso", Scenario::kSso, built, 4, 200);
  const auto r2 =
      replicate("dfl-sso", Scenario::kSso, built, 4, 200, nullptr, 9999);
  EXPECT_NE(r1.final_cumulative().mean(), r2.final_cumulative().mean());
}

TEST(Replication, CombinatorialDriverWorks) {
  exp::InstanceCache::Entry built = small_instance();
  built.family = std::make_shared<const FeasibleSet>(make_subset_family(
      std::make_shared<const Graph>(built.instance->graph()), 2));
  ThreadPool pool(2);
  const auto result =
      replicate("dfl-cso", Scenario::kCso, built, 4, 150, &pool);
  EXPECT_EQ(result.replications(), 4u);
  EXPECT_EQ(result.expected().length(), 150u);
  EXPECT_GT(result.optimal_per_slot(), 0.0);
  // A combinatorial scenario without a family is refused up front.
  EXPECT_THROW(replicate("dfl-cso", Scenario::kCso, small_instance(), 4, 150),
               std::invalid_argument);
}

TEST(Replication, PseudoRegretDecreasesForLearningPolicy) {
  // On an easy instance the average pseudo-regret over the last tenth must
  // be far below the first tenth.
  const auto pseudo = replicate_sequentially("dfl-sso", Scenario::kSso, 2000,
                                             kSeed, 10,
                                             small_instance().instance)
                          .pseudo.means();
  double head = 0.0, tail = 0.0;
  for (std::size_t i = 0; i < 200; ++i) {
    head += pseudo[i];
    tail += pseudo[pseudo.size() - 1 - i];
  }
  EXPECT_LT(tail, head * 0.5);
}

}  // namespace
}  // namespace ncb
