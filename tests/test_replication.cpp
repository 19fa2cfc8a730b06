#include "sim/replication.hpp"

#include <gtest/gtest.h>

#include "core/dfl_cso.hpp"
#include "core/dfl_sso.hpp"
#include "core/moss.hpp"
#include "core/policy_registry.hpp"
#include "exp/sweep_runner.hpp"
#include "graph/generators.hpp"
#include "sim/experiment.hpp"

namespace ncb {
namespace {

BanditInstance small_instance() {
  Xoshiro256 rng(42);
  return random_bernoulli_instance(erdos_renyi(8, 0.4, rng), rng);
}

ReplicationOptions quick_options(std::size_t reps, TimeSlot horizon,
                                 ThreadPool* pool = nullptr) {
  ReplicationOptions o;
  o.replications = reps;
  o.master_seed = 1234;
  o.runner.horizon = horizon;
  o.pool = pool;
  return o;
}

SinglePolicyFactory sso_factory() {
  return [](std::uint64_t seed) -> std::unique_ptr<SinglePlayPolicy> {
    return std::make_unique<DflSso>(DflSsoOptions{.seed = seed});
  };
}

TEST(Replication, CountsAndSeriesLengths) {
  const auto inst = small_instance();
  const auto result = run_replicated_single(sso_factory(), inst,
                                            Scenario::kSso,
                                            quick_options(5, 200));
  EXPECT_EQ(result.replications, 5u);
  EXPECT_EQ(result.per_slot_regret.length(), 200u);
  EXPECT_EQ(result.cumulative_regret.length(), 200u);
  EXPECT_EQ(result.final_cumulative.count(), 5u);
  EXPECT_DOUBLE_EQ(result.optimal_per_slot, inst.best_mean());
}

/// Every slot's mean and variance of all three series, plus the final
/// cumulative regret, must match bit for bit (EXPECT_EQ, not NEAR).
void expect_same_bits(const ReplicatedResult& a, const ReplicatedResult& b) {
  ASSERT_EQ(a.replications, b.replications);
  const auto same_series = [](const SeriesStat& x, const SeriesStat& y,
                              const char* name) {
    ASSERT_EQ(x.length(), y.length()) << name;
    for (std::size_t i = 0; i < x.length(); ++i) {
      EXPECT_EQ(x.at(i).mean(), y.at(i).mean()) << name << " slot " << i;
      EXPECT_EQ(x.at(i).variance(), y.at(i).variance())
          << name << " slot " << i;
    }
  };
  same_series(a.per_slot_regret, b.per_slot_regret, "per_slot_regret");
  same_series(a.cumulative_regret, b.cumulative_regret, "cumulative_regret");
  same_series(a.per_slot_pseudo_regret, b.per_slot_pseudo_regret,
              "per_slot_pseudo_regret");
  EXPECT_EQ(a.final_cumulative.count(), b.final_cumulative.count());
  EXPECT_EQ(a.final_cumulative.mean(), b.final_cumulative.mean());
  EXPECT_EQ(a.final_cumulative.variance(), b.final_cumulative.variance());
  EXPECT_EQ(a.optimal_per_slot, b.optimal_per_slot);
}

TEST(Replication, DeterministicRegardlessOfThreads) {
  const auto inst = small_instance();
  const auto sequential = run_replicated_single(
      sso_factory(), inst, Scenario::kSso, quick_options(12, 300));
  for (const std::size_t threads : {1u, 3u, 4u}) {
    SCOPED_TRACE(threads);
    ThreadPool pool(threads);
    const auto parallel = run_replicated_single(
        sso_factory(), inst, Scenario::kSso, quick_options(12, 300, &pool));
    expect_same_bits(sequential, parallel);
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
  const BanditInstance instance = build_instance(config);
  ReplicationOptions options;
  options.replications = config.replications;
  options.master_seed = config.seed;
  options.runner.horizon = config.horizon;
  const auto sequential = run_replicated_single(
      [&](std::uint64_t seed) {
        return PolicyRegistry::instance().make_single_play(
            "dfl-sso", config.horizon, seed);
      },
      instance, Scenario::kSso, options);
  ThreadPool pool(3);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    exp::SweepRunOptions run;
    run.pool = p;
    const exp::JobAggregate aggregate =
        exp::run_sweep_job(job, spec.checkpoints, run).aggregate;
    ASSERT_EQ(aggregate.expected().length(), 2000u);
    for (std::size_t i = 0; i < 2000; ++i) {
      EXPECT_EQ(aggregate.expected().at(i).mean(),
                sequential.per_slot_regret.at(i).mean());
      EXPECT_EQ(aggregate.cumulative().at(i).variance(),
                sequential.cumulative_regret.at(i).variance());
    }
    EXPECT_EQ(aggregate.final_cumulative().mean(),
              sequential.final_cumulative.mean());
    EXPECT_EQ(aggregate.final_cumulative().variance(),
              sequential.final_cumulative.variance());
  }
}

TEST(Replication, DifferentSeedsGiveDifferentResults) {
  const auto inst = small_instance();
  auto opts1 = quick_options(4, 200);
  auto opts2 = quick_options(4, 200);
  opts2.master_seed = 9999;
  const auto r1 = run_replicated_single(sso_factory(), inst, Scenario::kSso, opts1);
  const auto r2 = run_replicated_single(sso_factory(), inst, Scenario::kSso, opts2);
  EXPECT_NE(r1.final_cumulative.mean(), r2.final_cumulative.mean());
}

TEST(Replication, AverageRegretIsCumulativeOverT) {
  const auto inst = small_instance();
  const auto result = run_replicated_single(sso_factory(), inst,
                                            Scenario::kSso,
                                            quick_options(3, 100));
  const auto cum = result.cumulative_regret.means();
  const auto avg = result.average_regret();
  ASSERT_EQ(avg.size(), 100u);
  for (std::size_t i = 0; i < avg.size(); ++i) {
    EXPECT_NEAR(avg[i], cum[i] / static_cast<double>(i + 1), 1e-12);
  }
}

TEST(Replication, NullFactoryThrows) {
  const auto inst = small_instance();
  EXPECT_THROW((void)run_replicated_single(nullptr, inst, Scenario::kSso,
                                           quick_options(2, 10)),
               std::invalid_argument);
}

TEST(Replication, CombinatorialDriverWorks) {
  const auto inst = small_instance();
  const auto family = std::make_shared<const FeasibleSet>(make_subset_family(
      std::make_shared<const Graph>(inst.graph()), 2));
  ThreadPool pool(2);
  auto opts = quick_options(4, 150, &pool);
  const auto result = run_replicated_combinatorial(
      [family](std::uint64_t seed) -> std::unique_ptr<CombinatorialPolicy> {
        return std::make_unique<DflCso>(family, DflCsoOptions{.seed = seed});
      },
      inst, *family, Scenario::kCso, opts);
  EXPECT_EQ(result.replications, 4u);
  EXPECT_EQ(result.per_slot_regret.length(), 150u);
  EXPECT_GT(result.optimal_per_slot, 0.0);
}

TEST(Replication, PseudoRegretDecreasesForLearningPolicy) {
  // On an easy instance the average pseudo-regret over the last tenth must
  // be far below the first tenth.
  const auto inst = small_instance();
  const auto result = run_replicated_single(sso_factory(), inst,
                                            Scenario::kSso,
                                            quick_options(10, 2000));
  const auto pseudo = result.per_slot_pseudo_regret.means();
  double head = 0.0, tail = 0.0;
  for (std::size_t i = 0; i < 200; ++i) {
    head += pseudo[i];
    tail += pseudo[pseudo.size() - 1 - i];
  }
  EXPECT_LT(tail, head * 0.5);
}

}  // namespace
}  // namespace ncb
