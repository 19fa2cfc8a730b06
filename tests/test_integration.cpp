// Cross-module integration tests: the paper's qualitative claims.
//
// Integration.* asserts the *shape* results the figures show — convergence
// to zero per-slot regret, DFL-SSO dominating MOSS — on small, fast
// instances.
//
// PaperClaims.* runs the checked-in specs/*.sweep files at the paper's
// sizes through exp::run_sweep, the run `ncb_sweep --spec specs/<name>.sweep`
// makes, and asserts each figure's shape criterion on separated 95% CIs of
// the final cumulative regret R_n, or a theorem bound above the measured
// R_n. Every spec it runs merges one row per job (final mean and 95% CI
// half-width) into claims.tsv in the working directory: the table a golden
// re-pin is checked against.
#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <map>
#include <set>
#include <sstream>
#include <utility>

#include "core/policy_registry.hpp"
#include "exp/emitters.hpp"
#include "exp/sweep_runner.hpp"
#include "graph/clique_cover.hpp"
#include "graph/generators.hpp"
#include "graph/partition.hpp"
#include "sim/experiment.hpp"
#include "sim/replication.hpp"
#include "strategy/strategy_graph.hpp"
#include "theory/bounds.hpp"

namespace ncb {
namespace {

BanditInstance er_instance(std::size_t k, double p, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  return random_bernoulli_instance(erdos_renyi(k, p, rng), rng);
}

ReplicationOptions opts(std::size_t reps, TimeSlot horizon) {
  ReplicationOptions o;
  o.replications = reps;
  o.master_seed = 777;
  o.runner.horizon = horizon;
  return o;
}

SinglePolicyFactory named_factory(const std::string& name, TimeSlot horizon) {
  return [name, horizon](std::uint64_t seed) {
    return PolicyRegistry::instance().make_single_play(name, horizon, seed);
  };
}

/// A combinatorial policy replicated on `config`'s instance and family.
ReplicatedResult run_combinatorial(const ExperimentConfig& config,
                                   const std::string& policy,
                                   Scenario scenario) {
  const BanditInstance instance = build_instance(config);
  const auto family = build_family(config, instance.graph());
  ReplicationOptions options;
  options.replications = config.replications;
  options.master_seed = config.seed;
  options.runner.horizon = config.horizon;
  return run_replicated_combinatorial(
      [&](std::uint64_t seed) {
        return PolicyRegistry::instance().make_combinatorial(policy, family,
                                                             seed);
      },
      instance, *family, scenario, options);
}

double tail_mean(const std::vector<double>& series, std::size_t window) {
  double total = 0.0;
  for (std::size_t i = 0; i < window; ++i) {
    total += series[series.size() - 1 - i];
  }
  return total / static_cast<double>(window);
}

TEST(Integration, DflSsoBeatsMossOnConnectedGraph) {
  // Fig. 3's claim on a reduced instance: K = 30, n = 3000.
  const auto inst = er_instance(30, 0.3, 11);
  const TimeSlot n = 3000;
  const auto sso = run_replicated_single(named_factory("dfl-sso", n), inst,
                                         Scenario::kSso, opts(10, n));
  const auto moss = run_replicated_single(named_factory("moss", n), inst,
                                          Scenario::kSso, opts(10, n));
  EXPECT_LT(sso.final_cumulative.mean(), moss.final_cumulative.mean());
}

TEST(Integration, DflSsoEqualsMossShapeOnEmptyGraph) {
  // Without edges there is no side information: both anytime-MOSS-style
  // policies should end with comparable cumulative regret (within 2x).
  const auto inst = er_instance(10, 0.0, 13);
  const TimeSlot n = 2000;
  const auto sso = run_replicated_single(named_factory("dfl-sso", n), inst,
                                         Scenario::kSso, opts(10, n));
  const auto moss = run_replicated_single(named_factory("moss-anytime", n),
                                          inst, Scenario::kSso, opts(10, n));
  const double a = sso.final_cumulative.mean();
  const double b = moss.final_cumulative.mean();
  EXPECT_LT(a, 2.0 * b + 50.0);
  EXPECT_LT(b, 2.0 * a + 50.0);
}

TEST(Integration, DflSsoZeroRegretTrend) {
  // R_t/t must shrink substantially from t = 100 to t = n.
  const auto inst = er_instance(20, 0.3, 17);
  const TimeSlot n = 4000;
  const auto result = run_replicated_single(named_factory("dfl-sso", n), inst,
                                            Scenario::kSso, opts(10, n));
  const auto avg = result.average_regret();
  EXPECT_LT(avg.back(), 0.5 * avg[99]);
}

TEST(Integration, DflSsrConvergesToZeroPerSlotRegret) {
  // Fig. 5's claim: expected regret → 0.
  const auto inst = er_instance(15, 0.3, 19);
  const TimeSlot n = 4000;
  const auto result = run_replicated_single(named_factory("dfl-ssr", n), inst,
                                            Scenario::kSsr, opts(10, n));
  const auto pseudo = result.per_slot_pseudo_regret.means();
  EXPECT_LT(tail_mean(pseudo, 200), 0.15);
}

TEST(Integration, DflCsoConvergesOnDenseGraph) {
  // Fig. 4(b)'s claim on a reduced instance.
  ExperimentConfig c;
  c.num_arms = 10;
  c.edge_probability = 0.6;
  c.horizon = 3000;
  c.replications = 6;
  c.strategy_size = 2;
  const auto result = run_combinatorial(c, "dfl-cso", Scenario::kCso);
  const auto pseudo = result.per_slot_pseudo_regret.means();
  EXPECT_LT(tail_mean(pseudo, 150), 0.2);
}

TEST(Integration, DflCsrConvergesToZeroPerSlotRegret) {
  // Fig. 6's claim on a reduced instance.
  ExperimentConfig c;
  c.num_arms = 10;
  c.edge_probability = 0.3;
  c.horizon = 3000;
  c.replications = 6;
  c.strategy_size = 2;
  const auto result = run_combinatorial(c, "dfl-csr", Scenario::kCsr);
  const auto pseudo = result.per_slot_pseudo_regret.means();
  EXPECT_LT(tail_mean(pseudo, 150), 0.25);
}

TEST(Integration, SidePoliciesBeatRandom) {
  const auto inst = er_instance(15, 0.4, 23);
  const TimeSlot n = 2000;
  const auto random = run_replicated_single(named_factory("random", n), inst,
                                            Scenario::kSso, opts(6, n));
  for (const char* name : {"dfl-sso", "ucb-n", "ucb1", "thompson"}) {
    const auto result = run_replicated_single(named_factory(name, n), inst,
                                              Scenario::kSso, opts(6, n));
    EXPECT_LT(result.final_cumulative.mean(),
              0.8 * random.final_cumulative.mean())
        << name;
  }
}

TEST(Integration, UcbNBenefitsFromSideObservations) {
  const auto inst = er_instance(25, 0.4, 29);
  const TimeSlot n = 2500;
  const auto ucb_n = run_replicated_single(named_factory("ucb-n", n), inst,
                                           Scenario::kSso, opts(8, n));
  const auto ucb1 = run_replicated_single(named_factory("ucb1", n), inst,
                                          Scenario::kSso, opts(8, n));
  EXPECT_LT(ucb_n.final_cumulative.mean(), ucb1.final_cumulative.mean());
}

TEST(Integration, DenserGraphsHelpDflSso) {
  // Side observation grows with density; cumulative regret should drop.
  const TimeSlot n = 2500;
  const auto sparse = run_replicated_single(
      named_factory("dfl-sso", n), er_instance(30, 0.1, 31), Scenario::kSso,
      opts(8, n));
  const auto dense = run_replicated_single(
      named_factory("dfl-sso", n), er_instance(30, 0.8, 31), Scenario::kSso,
      opts(8, n));
  EXPECT_LT(dense.final_cumulative.mean(), sparse.final_cumulative.mean());
}

TEST(Integration, SsrOptimumDiffersFromSsoOptimum) {
  // A concrete instance where maximizing side reward changes the target,
  // and DFL-SSR finds it: star whose hub has a poor direct mean.
  const Graph g = star_graph(5);
  auto inst = bernoulli_instance(g, {0.1, 0.9, 0.5, 0.5, 0.5});
  ASSERT_EQ(inst.best_arm(), 1);
  ASSERT_EQ(inst.best_side_reward_arm(), 0);
  const TimeSlot n = 3000;
  const auto result = run_replicated_single(named_factory("dfl-ssr", n), inst,
                                            Scenario::kSsr, opts(6, n));
  const auto pseudo = result.per_slot_pseudo_regret.means();
  EXPECT_LT(tail_mean(pseudo, 100), 0.2);
}

// ------------------------------------------------------- paper claims ---

/// Merges `name`'s jobs into claims.tsv, one row per job keyed by (spec,
/// job index), so a rerun or another test process replaces rows instead of
/// duplicating them. ctest runs each test in its own process, so flock
/// serializes the read-modify-write.
void record_claims(const std::string& name, const exp::SweepResult& result) {
  struct File {  // closing releases the flock too
    int fd = ::open("claims.tsv", O_RDWR | O_CREAT, 0644);
    ~File() {
      if (fd >= 0) ::close(fd);
    }
  } file;
  ASSERT_GE(file.fd, 0) << "cannot open claims.tsv";
  ASSERT_EQ(::flock(file.fd, LOCK_EX), 0);
  std::string text;
  char buffer[4096];
  for (ssize_t got; (got = ::read(file.fd, buffer, sizeof buffer)) > 0;) {
    text.append(buffer, static_cast<std::size_t>(got));
  }
  const std::string header = "spec\tjob\tkey\treplications\tfinal_mean\tci95";
  std::map<std::pair<std::string, std::size_t>, std::string> rows;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    const std::size_t tab = line.find('\t');
    if (tab == std::string::npos || line == header) continue;
    const std::string spec = line.substr(0, tab);
    if (spec != name) rows[{spec, std::stoul(line.substr(tab + 1))}] = line;
  }
  for (const exp::JobOutcome& outcome : result.outcomes) {
    const RunningStat& final_stat = outcome.aggregate.final_cumulative();
    rows[{name, outcome.job.index}] =
        name + '\t' + std::to_string(outcome.job.index) + '\t' +
        outcome.job.key + '\t' + std::to_string(final_stat.count()) + '\t' +
        exp::json_number(final_stat.mean()) + '\t' +
        exp::json_number(final_stat.ci95_halfwidth());
  }
  std::string out = header + '\n';
  for (const auto& [key, line] : rows) out += line + '\n';
  EXPECT_EQ(::ftruncate(file.fd, 0), 0);
  EXPECT_EQ(::pwrite(file.fd, out.data(), out.size(), 0),
            static_cast<ssize_t>(out.size()));
}

/// Runs specs/<name>.sweep (once per process) and records its rows.
const exp::SweepResult& run_spec(const std::string& name) {
  static std::map<std::string, exp::SweepResult> done;
  const auto it = done.find(name);
  if (it != done.end()) return it->second;
  const exp::SweepSpec spec = exp::SweepSpec::parse_file(
      std::string(NCB_SPECS_DIR) + "/" + name + ".sweep");
  ThreadPool pool;
  exp::SweepRunOptions options;
  options.pool = &pool;
  exp::SweepResult result = exp::run_sweep(spec, options);
  record_claims(name, result);
  return done.emplace(name, std::move(result)).first->second;
}

/// The one job of `result` whose key contains `needle`.
const exp::JobOutcome& find_job(const exp::SweepResult& result,
                                const std::string& needle) {
  const exp::JobOutcome* found = nullptr;
  for (const exp::JobOutcome& outcome : result.outcomes) {
    if (outcome.job.key.find(needle) == std::string::npos) continue;
    EXPECT_EQ(found, nullptr) << "'" << needle << "' matches two jobs";
    found = &outcome;
  }
  if (found == nullptr) throw std::logic_error("no job matches " + needle);
  return *found;
}

double ci_low(const exp::JobOutcome& outcome) {
  const RunningStat& r = outcome.aggregate.final_cumulative();
  return r.mean() - r.ci95_halfwidth();
}

double ci_high(const exp::JobOutcome& outcome) {
  const RunningStat& r = outcome.aggregate.final_cumulative();
  return r.mean() + r.ci95_halfwidth();
}

/// `lower`'s 95% CI of R_n lies wholly below `higher`'s.
void expect_separated(const exp::JobOutcome& lower,
                      const exp::JobOutcome& higher) {
  EXPECT_LT(ci_high(lower), ci_low(higher))
      << lower.job.key << ": R_n in [" << ci_low(lower) << ", "
      << ci_high(lower) << "]; " << higher.job.key << ": R_n in ["
      << ci_low(higher) << ", " << ci_high(higher) << "]";
}

// Fig. 3: DFL-SSO's accumulated regret grows far slower than MOSS's.
TEST(PaperClaims, Fig3DflSsoRegretBelowMoss) {
  const exp::SweepResult& fig3 = run_spec("fig3");
  expect_separated(find_job(fig3, ":dfl-sso@"), find_job(fig3, ":moss@"));
}

// Fig. 4: the dense graph (more side observation) ends with less regret.
TEST(PaperClaims, Fig4DenseGraphRegretBelowSparse) {
  const exp::SweepResult& fig4 = run_spec("fig4");
  expect_separated(find_job(fig4, ",p=0.6,"), find_job(fig4, ",p=0.3,"));
}

// Theorem 1's clique-cover term: one clique of 48 arms beats 48 singletons.
TEST(PaperClaims, CliqueCoverOneCliqueRegretBelowNoEdges) {
  const exp::SweepResult& cover = run_spec("ablation_clique_cover");
  expect_separated(find_job(cover, ",fp=1,"), find_job(cover, ",fp=48,"));
}

// Density: the complete graph (p = 1) beats the empty one (p = 0).
TEST(PaperClaims, DensityCompleteGraphRegretBelowEmpty) {
  const exp::SweepResult& density = run_spec("ablation_density");
  expect_separated(find_job(density, ",p=1,"), find_job(density, ",p=0,"));
}

// §IX heuristic ablation: DFL-SSO beats UCB-MaxN on the Fig. 3 instance.
TEST(PaperClaims, NeighborHeuristicDflSsoRegretBelowUcbMaxN) {
  const exp::SweepResult& panel = run_spec("ablation_neighbor_heuristic");
  expect_separated(find_job(panel, ":dfl-sso@"), find_job(panel, ":ucb-maxn@"));
}

// Theorems 1–4 bound the expected regret of Figs. 3–6, and the MOSS bound
// 49·sqrt(nK) Fig. 3's baseline. The bounds are worst-case and loose, so
// the upper CI end is checked: R_n above its bound means a broken policy,
// runner or bound.
TEST(PaperClaims, TheoremBoundsCoverMeasuredRegret) {
  const auto expect_bounded = [](const exp::JobOutcome& outcome,
                                 double bound) {
    EXPECT_LE(ci_high(outcome), bound) << outcome.job.key;
  };
  const exp::SweepResult& fig3 = run_spec("fig3");
  {
    const exp::JobOutcome& sso = find_job(fig3, ":dfl-sso@");
    const ExperimentConfig& c = sso.job.config;
    const BanditInstance instance = build_instance(c);
    const ThresholdPartition part = threshold_partition(
        instance.graph(), gaps_from_means(instance.means()),
        default_delta0(c.num_arms, c.horizon));
    expect_bounded(sso, theorem1_bound(c.horizon, c.num_arms,
                                       part.clique_cover_size()));
    expect_bounded(find_job(fig3, ":moss@"),
                   moss_bound(c.horizon, c.num_arms));
  }
  for (const exp::JobOutcome& cso : run_spec("fig4").outcomes) {
    const ExperimentConfig& c = cso.job.config;
    const BanditInstance instance = build_instance(c);
    const auto family = build_family(c, instance.graph());
    const Graph sg = build_strategy_graph(*family);
    expect_bounded(cso, theorem2_bound(c.horizon, family->size(),
                                       greedy_clique_cover(sg).size()));
  }
  for (const exp::JobOutcome& ssr : run_spec("fig5").outcomes) {
    const ExperimentConfig& c = ssr.job.config;
    expect_bounded(ssr, theorem3_bound(c.horizon, c.num_arms));
  }
  for (const exp::JobOutcome& csr : run_spec("fig6").outcomes) {
    const ExperimentConfig& c = csr.job.config;
    const BanditInstance instance = build_instance(c);
    const auto family = build_family(c, instance.graph());
    expect_bounded(csr, theorem4_bound(c.horizon, c.num_arms,
                                       family->max_neighborhood_size()));
  }
}

// Specs whose criterion does not hold at every seed (or that have none) are
// tabulated only: they must run complete and land in claims.tsv.
const char* const kTableOnlySpecs[] = {
    "ablation_csr_oracle", "ablation_exploration", "ablation_ssr_estimator",
    "baseline_panel", "scaling_horizon",
};

class PaperTable : public ::testing::TestWithParam<const char*> {};

TEST_P(PaperTable, RunsCompleteAndTabulates) {
  const exp::SweepResult& result = run_spec(GetParam());
  ASSERT_FALSE(result.outcomes.empty());
  EXPECT_EQ(result.pending, 0u);
  for (const exp::JobOutcome& outcome : result.outcomes) {
    EXPECT_EQ(outcome.aggregate.replications(),
              outcome.job.config.replications)
        << outcome.job.key;
    EXPECT_TRUE(std::isfinite(outcome.aggregate.final_cumulative().mean()))
        << outcome.job.key;
  }
}

INSTANTIATE_TEST_SUITE_P(Specs, PaperTable,
                         ::testing::ValuesIn(kTableOnlySpecs),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

// A new spec must join a claim or the table above; scaling_k is a K = 10^4
// scaling workload, not a paper figure, and the sweep smoke covers it.
TEST(PaperClaims, EverySpecIsClaimedOrTabulated) {
  std::set<std::string> covered = {
      "fig3", "fig4", "fig5", "fig6", "ablation_clique_cover",
      "ablation_density", "ablation_neighbor_heuristic", "scaling_k"};
  covered.insert(std::begin(kTableOnlySpecs), std::end(kTableOnlySpecs));
  std::size_t specs = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(NCB_SPECS_DIR)) {
    if (entry.path().extension() != ".sweep") continue;
    ++specs;
    EXPECT_TRUE(covered.count(entry.path().stem().string()))
        << entry.path() << " is neither claimed nor tabulated";
  }
  EXPECT_EQ(specs, covered.size());
}

}  // namespace
}  // namespace ncb
