// Counterfactual replay & offline policy evaluation (src/replay/).
//
// The load-bearing pins:
//  - the IPS estimate of the *logging* policy replayed at matched
//    graph/seed/epsilon equals the log's own empirical mean reward
//    EXACTLY (bitwise), with ESS == n and every weight == 1.0;
//  - importance weights are bounded by the epsilon propensity floor the
//    engine logs (p >= eps/K), which bounds the estimator variance;
//  - a candidate's replay estimate agrees with an exact on-policy run of
//    that candidate at matched seeds (statistically, within its own SE);
//  - replaying the same log twice is bit-identical, down to the rendered
//    panel JSON bytes.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "exp/emitters.hpp"
#include "replay/estimators.hpp"
#include "replay/replay.hpp"
#include "serve/decision_engine.hpp"
#include "serve/event_log.hpp"
#include "sim/experiment.hpp"
#include "util/rng.hpp"
#include "util/running_stat.hpp"

namespace ncb {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  fs::path path;
  TempDir() {
    std::string tmpl =
        (fs::temp_directory_path() / "ncb_replay_XXXXXX").string();
    char* made = ::mkdtemp(tmpl.data());
    EXPECT_NE(made, nullptr);
    path = tmpl;
  }
  ~TempDir() {
    std::error_code ignored;
    fs::remove_all(path, ignored);
  }
  [[nodiscard]] std::string file(const std::string& name) const {
    return (path / name).string();
  }
};

/// Deterministic per-arm Bernoulli means spread over [0.15, 0.85].
double arm_mean(ArmId arm) {
  const std::uint64_t h = (static_cast<std::uint64_t>(arm) + 1) * 2654435761ULL;
  return 0.15 + 0.7 * static_cast<double>(h % 97) / 96.0;
}

struct ServeSetup {
  std::string policy_spec = "eps-greedy:eps=0";
  double epsilon = 0.2;
  std::uint64_t seed = 99;
  std::size_t arms = 30;
  double edge_prob = 0.3;
  std::size_t horizon = 4000;
  std::size_t num_keys = 16;
  std::uint64_t reward_seed = 4242;
};

Graph make_graph(const ServeSetup& setup) {
  ExperimentConfig config;
  config.graph_family = GraphFamily::kErdosRenyi;
  config.num_arms = setup.arms;
  config.edge_probability = setup.edge_prob;
  config.seed = setup.seed;
  return build_graph(config);
}

/// Drives one policy online (the exact serve decide/report loop) and logs
/// to `log_path` when non-empty. Returns the run's empirical mean reward
/// (sum/n) and, when `rewards` is non-null, also feeds it the reward
/// sequence in report order. Rewards are Bernoulli(arm_mean(action)) drawn
/// from a counter-based stream keyed by decision_id, so two runs at
/// matched seeds face the same reward randomness per decision.
double drive_engine(const ServeSetup& setup, const std::string& policy_spec,
                    const std::string& log_path,
                    RunningStat* rewards = nullptr) {
  const Graph graph = make_graph(setup);
  std::unique_ptr<serve::EventLog> log;
  if (!log_path.empty()) {
    log = std::make_unique<serve::EventLog>(
        serve::EventLog::Options{log_path, 64 * 1024, 50});
  }
  serve::EngineOptions options;
  options.policy_spec = policy_spec;
  options.epsilon = setup.epsilon;
  options.seed = setup.seed;
  serve::DecisionEngine engine(graph, options, log.get());
  double reward_sum = 0.0;
  for (std::size_t i = 0; i < setup.horizon; ++i) {
    const std::string key = "user" + std::to_string(i % setup.num_keys);
    const serve::Decision decision = engine.decide(key);
    Xoshiro256 reward_rng(derive_seed_at(setup.reward_seed,
                                         decision.decision_id));
    const double reward =
        reward_rng.bernoulli(arm_mean(decision.action)) ? 1.0 : 0.0;
    engine.report(decision.decision_id, reward);
    reward_sum += reward;
    if (rewards != nullptr) rewards->add(reward);
  }
  if (log) log->close();
  return reward_sum / static_cast<double>(setup.horizon);
}

TEST(EventLogJoin, JoinsOrphansAndDuplicates) {
  TempDir tmp;
  const std::string path = tmp.file("join.ncbl");
  {
    serve::EventLog log({path, 64 * 1024, 50});
    log.append_decision(1, "alice", 3, 0.5);
    log.append_decision(2, "bob", 4, 0.25);
    log.append_feedback(1, 1.0);
    log.append_feedback(1, 0.0);   // duplicate
    log.append_feedback(99, 1.0);  // orphan
    log.close();
  }
  const serve::EventLogScan scan = serve::read_event_log(path);
  const serve::EventLogJoin join = serve::join_event_log(scan);
  EXPECT_EQ(join.decisions, 2u);
  EXPECT_EQ(join.joined, 1u);
  EXPECT_EQ(join.orphan_feedbacks, 1u);
  EXPECT_EQ(join.duplicate_feedbacks, 1u);
  EXPECT_EQ(join.min_propensity, 0.25);
  ASSERT_EQ(join.events.size(), 2u);
  EXPECT_EQ(join.events[0].key, "alice");
  EXPECT_TRUE(join.events[0].has_reward);
  EXPECT_EQ(join.events[0].reward, 1.0);  // first feedback wins
  EXPECT_FALSE(join.events[1].has_reward);
}

/// A decision_id issued again while its first decision is still open stays
/// with the first: the feedback credits the earlier decision everywhere —
/// in join_event_log (hence the DR model), in the empirical pass, and in
/// every candidate's walk.
TEST(EventLogJoin, ReissuedOpenIdKeepsTheFirstDecision) {
  TempDir tmp;
  const std::string path = tmp.file("reissue.ncbl");
  {
    serve::EventLog log({path, 64 * 1024, 50});
    log.append_decision(1, "alice", 3, 0.5);
    log.append_decision(1, "bob", 4, 0.5);  // id 1 still open
    log.append_feedback(1, 1.0);
    log.append_decision(2, "carol", 0, 0.5);  // separates arm 4's fallback
    log.append_feedback(2, 0.0);
    log.close();
  }
  const serve::EventLogScan scan = serve::read_event_log(path);
  const serve::EventLogJoin join = serve::join_event_log(scan);
  ASSERT_EQ(join.events.size(), 3u);
  EXPECT_TRUE(join.events[0].has_reward);
  EXPECT_EQ(join.events[0].reward, 1.0);
  EXPECT_FALSE(join.events[1].has_reward);
  EXPECT_EQ(join.joined, 2u);

  ExperimentConfig config;
  config.graph_family = GraphFamily::kComplete;
  config.num_arms = 6;
  replay::ReplayOptions options;
  options.epsilon = 0.5;
  const replay::PanelResult panel = replay::replay_panel(
      build_graph(config), scan, {"ucb1", "random"}, options);
  EXPECT_EQ(panel.arm_model.at(3), 1.0);  // the reward went to arm 3
  EXPECT_EQ(panel.arm_model.at(4), 0.5);  // arm 4: global-mean fallback
  EXPECT_EQ(panel.arm_model.at(0), 0.0);
  EXPECT_EQ(panel.empirical_mean, 0.5);
  for (const replay::CandidateSummary& candidate : panel.candidates) {
    EXPECT_EQ(candidate.events, panel.joined) << candidate.spec;
  }
}

TEST(EventLogJoin, NonPositivePropensityThrows) {
  TempDir tmp;
  const std::string path = tmp.file("bad.ncbl");
  {
    serve::EventLog log({path, 64 * 1024, 50});
    log.append_decision(1, "alice", 0, 0.0);
    log.close();
  }
  const serve::EventLogScan scan = serve::read_event_log(path);
  EXPECT_THROW((void)serve::join_event_log(scan), std::invalid_argument);
}

TEST(Estimators, AccumulatorFormulas) {
  replay::EstimatorAccumulator acc;
  acc.add(/*weight=*/2.0, /*reward=*/1.0, /*direct=*/0.5, /*model=*/0.25);
  acc.add(/*weight=*/0.5, /*reward=*/0.0, /*direct=*/0.5, /*model=*/0.75);
  EXPECT_EQ(acc.events(), 2u);
  EXPECT_DOUBLE_EQ(acc.ips().mean(), (2.0 * 1.0 + 0.5 * 0.0) / 2.0);
  EXPECT_DOUBLE_EQ(acc.snips(), (2.0 * 1.0) / 2.5);
  EXPECT_DOUBLE_EQ(acc.ess(), 2.5 * 2.5 / (4.0 + 0.25));
  EXPECT_DOUBLE_EQ(acc.max_weight(), 2.0);
  // DR terms: 0.5 + 2*(1-0.25) = 2.0 and 0.5 + 0.5*(0-0.75) = 0.125.
  EXPECT_DOUBLE_EQ(acc.dr().mean(), (2.0 + 0.125) / 2.0);
}

TEST(Estimators, RewardModelFallsBackToGlobalMean) {
  replay::RewardModel model(3);
  model.observe(0, 1.0);
  model.observe(0, 0.0);
  model.observe(1, 1.0);
  EXPECT_DOUBLE_EQ(model.value(0), 0.5);
  EXPECT_DOUBLE_EQ(model.value(1), 1.0);
  // Arm 2 never rewarded: global mean of {1, 0, 1}.
  EXPECT_DOUBLE_EQ(model.value(2), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(model.arm_average(), (0.5 + 1.0 + 2.0 / 3.0) / 3.0);
}

/// The construction identity: the logging policy replayed at matched
/// graph/seed/epsilon reprices every logged action at its logged
/// propensity, so every weight is exactly 1.0 and IPS collapses onto the
/// log's own empirical reward sequence — equal to the last bit.
TEST(ReplayPanel, LoggingPolicyIpsIdentityIsExact) {
  TempDir tmp;
  ServeSetup setup;
  const std::string path = tmp.file("serve.ncbl");
  RunningStat online;
  const double online_mean =
      drive_engine(setup, setup.policy_spec, path, &online);

  const serve::EventLogScan scan = serve::read_event_log(path);
  EXPECT_FALSE(scan.truncated_tail);
  replay::ReplayOptions options;
  options.epsilon = setup.epsilon;
  options.seed = setup.seed;
  const replay::PanelResult panel = replay::replay_panel(
      make_graph(setup), scan, {setup.policy_spec}, options);

  EXPECT_EQ(panel.joined, setup.horizon);
  // The empirical pass is a Welford accumulator over the logged rewards,
  // so it must equal the same accumulator fed the online reward sequence.
  EXPECT_EQ(panel.empirical_mean, online.mean());
  EXPECT_EQ(panel.empirical_variance, online.variance());
  const replay::CandidateSummary& logger = panel.candidates.at(0);
  EXPECT_EQ(logger.events, setup.horizon);
  // Bitwise, not approximate: == on doubles is the point of the test.
  EXPECT_EQ(logger.ips_mean, panel.empirical_mean);
  EXPECT_EQ(logger.ips_variance, panel.empirical_variance);
  // Every weight is exactly 1.0, so SNIPS is the online loop's own sum/n.
  EXPECT_EQ(logger.snips, online_mean);
  EXPECT_EQ(logger.ess, static_cast<double>(setup.horizon));
  EXPECT_EQ(logger.max_weight, 1.0);
  // The replayed sampled-action stream reproduces the served actions.
  EXPECT_EQ(logger.matched, setup.horizon);
}

/// Engine-logged propensities sit on the eps/K floor, which caps every
/// importance weight at (1 - eps + eps/K) / (eps/K) and therefore bounds
/// the per-term magnitude and the sample variance of any candidate.
TEST(ReplayPanel, WeightsAndVarianceBoundedByPropensityFloor) {
  TempDir tmp;
  ServeSetup setup;
  const std::string path = tmp.file("serve.ncbl");
  (void)drive_engine(setup, setup.policy_spec, path);

  const serve::EventLogScan scan = serve::read_event_log(path);
  replay::ReplayOptions options;
  options.epsilon = setup.epsilon;
  options.seed = setup.seed;
  const replay::PanelResult panel = replay::replay_panel(
      make_graph(setup), scan, {"ucb1", "dfl-sso", "random"}, options);

  const double floor =
      options.epsilon / static_cast<double>(setup.arms);
  EXPECT_GE(panel.min_propensity, floor);
  const double max_q = 1.0 - options.epsilon + floor;
  const double weight_cap = max_q / floor;
  for (const replay::CandidateSummary& candidate : panel.candidates) {
    EXPECT_EQ(candidate.events, setup.horizon) << candidate.spec;
    EXPECT_LE(candidate.max_weight, weight_cap) << candidate.spec;
    EXPECT_GT(candidate.ess, 0.0) << candidate.spec;
    EXPECT_LE(candidate.ess, static_cast<double>(setup.horizon))
        << candidate.spec;
    // Rewards are {0,1}, so every IPS term lies in [0, weight_cap] and the
    // sample variance cannot exceed the squared range.
    EXPECT_LE(candidate.ips_variance, weight_cap * weight_cap)
        << candidate.spec;
    EXPECT_TRUE(std::isfinite(candidate.dr_mean)) << candidate.spec;
    EXPECT_TRUE(std::isfinite(candidate.snips)) << candidate.spec;
  }
}

/// Cross-check against ground truth: run the candidate on-policy at the
/// same seeds (same per-decision reward streams) and compare with its
/// replay estimate off the logging policy's traffic. `random` is
/// state-free, so the only gap is importance-weighting noise — the
/// estimate must land within a few of its own standard errors.
TEST(ReplayPanel, CandidateMatchesOnPolicyRunAtMatchedSeeds) {
  TempDir tmp;
  ServeSetup setup;
  setup.arms = 12;
  setup.edge_prob = 0.4;
  setup.epsilon = 0.3;
  setup.horizon = 20000;
  const std::string path = tmp.file("serve.ncbl");
  (void)drive_engine(setup, setup.policy_spec, path);
  const double on_policy_mean = drive_engine(setup, "random", "");

  const serve::EventLogScan scan = serve::read_event_log(path);
  replay::ReplayOptions options;
  options.epsilon = setup.epsilon;
  options.seed = setup.seed;
  const replay::PanelResult panel =
      replay::replay_panel(make_graph(setup), scan, {"random"}, options);

  const replay::CandidateSummary& candidate = panel.candidates.at(0);
  EXPECT_NEAR(candidate.ips_mean, on_policy_mean,
              5.0 * candidate.ips_se + 1e-3);
  EXPECT_NEAR(candidate.dr_mean, on_policy_mean,
              5.0 * candidate.dr_se + 1e-3);
  EXPECT_NEAR(candidate.snips, on_policy_mean, 0.1);
}

TEST(ReplayPanel, RepeatedReplayIsBitIdentical) {
  TempDir tmp;
  ServeSetup setup;
  setup.horizon = 1500;
  const std::string path = tmp.file("serve.ncbl");
  (void)drive_engine(setup, setup.policy_spec, path);
  const serve::EventLogScan scan = serve::read_event_log(path);
  replay::ReplayOptions options;
  options.epsilon = setup.epsilon;
  options.seed = setup.seed;
  const std::vector<std::string> specs{setup.policy_spec, "ucb1", "thompson"};

  const replay::PanelResult a =
      replay::replay_panel(make_graph(setup), scan, specs, options);
  const replay::PanelResult b =
      replay::replay_panel(make_graph(setup), scan, specs, options);
  ASSERT_EQ(a.candidates.size(), b.candidates.size());
  for (std::size_t i = 0; i < a.candidates.size(); ++i) {
    const replay::CandidateSummary& x = a.candidates[i];
    const replay::CandidateSummary& y = b.candidates[i];
    EXPECT_EQ(x.ips_mean, y.ips_mean) << x.spec;
    EXPECT_EQ(x.ips_variance, y.ips_variance) << x.spec;
    EXPECT_EQ(x.snips, y.snips) << x.spec;
    EXPECT_EQ(x.dr_mean, y.dr_mean) << x.spec;
    EXPECT_EQ(x.ess, y.ess) << x.spec;
    EXPECT_EQ(x.matched, y.matched) << x.spec;
    // Down to the rendered panel bytes.
    exp::ReplayRecord rx, ry;
    rx.policy = x.spec;
    rx.ips_mean = x.ips_mean;
    rx.dr_mean = x.dr_mean;
    ry.policy = y.spec;
    ry.ips_mean = y.ips_mean;
    ry.dr_mean = y.dr_mean;
    EXPECT_EQ(exp::render_replay_json(rx), exp::render_replay_json(ry));
  }
}

TEST(ReplayPanel, RejectsBadInputsUpFront) {
  TempDir tmp;
  ServeSetup setup;
  setup.horizon = 50;
  const std::string path = tmp.file("serve.ncbl");
  (void)drive_engine(setup, setup.policy_spec, path);
  const serve::EventLogScan scan = serve::read_event_log(path);
  const Graph graph = make_graph(setup);
  replay::ReplayOptions options;
  options.epsilon = setup.epsilon;
  options.seed = setup.seed;

  EXPECT_THROW((void)replay::replay_panel(graph, scan, {"no-such-policy"},
                                          options),
               std::invalid_argument);
  replay::ReplayOptions bad_eps = options;
  bad_eps.epsilon = 1.5;
  EXPECT_THROW((void)replay::replay_panel(graph, scan, {"ucb1"}, bad_eps),
               std::invalid_argument);
  // A graph smaller than the logged action range is a flag mismatch.
  ExperimentConfig tiny;
  tiny.graph_family = GraphFamily::kComplete;
  tiny.num_arms = 2;
  EXPECT_THROW((void)replay::replay_panel(build_graph(tiny), scan, {"ucb1"},
                                          options),
               std::invalid_argument);
}

TEST(ReplayEmitters, PanelDocumentShapeAndDeterminism) {
  exp::ReplayRecord record;
  record.policy = "ucb1";
  record.description = "UCB1(c=2)";
  record.epsilon = 0.1;
  record.seed = 7;
  record.decisions = 100;
  record.events = 90;
  record.matched = 12;
  record.ips_mean = 0.5;
  record.ips_se = 0.01;
  record.snips = 0.49;
  record.dr_mean = 0.51;
  record.dr_se = 0.008;
  record.ess = 42.5;
  record.max_weight = 9.5;
  const std::string line = exp::render_replay_json(record);
  EXPECT_NE(line.find("\"policy\":\"ucb1\""), std::string::npos);
  EXPECT_NE(line.find("\"ips_mean\":0.5"), std::string::npos);
  EXPECT_NE(line.find("\"ess\":42.5"), std::string::npos);
  EXPECT_NE(line.find("\"logging\":false"), std::string::npos);

  exp::ReplayPanelMeta meta;
  meta.log_path = "build/serve.ncbl";
  meta.decisions = 100;
  meta.feedbacks = 95;
  meta.joined = 90;
  meta.arms = 30;
  meta.graph = "er";
  meta.min_propensity = 0.00666;
  meta.empirical_mean = 0.5;
  const std::string doc = exp::render_replay_panel_json(meta, {line, line});
  EXPECT_NE(doc.find("\"schema\": 1"), std::string::npos);
  EXPECT_NE(doc.find("\"engine\": \"ncb_replay\""), std::string::npos);
  EXPECT_NE(doc.find("\"policies\": [\n"), std::string::npos);
  EXPECT_EQ(doc, exp::render_replay_panel_json(meta, {line, line}));
}

}  // namespace
}  // namespace ncb
