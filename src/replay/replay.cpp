#include "replay/replay.hpp"

#include <stdexcept>

#include "core/policy_registry.hpp"
#include "obs/metrics.hpp"
#include "serve/decision_engine.hpp"

namespace ncb::replay {

PanelResult panel_base(const Graph& graph, const serve::EventLogScan& scan) {
  const std::size_t num_arms = graph.num_vertices();
  if (num_arms == 0) {
    throw std::invalid_argument("replay: empty graph");
  }

  PanelResult result;
  result.decisions = scan.decisions;
  result.feedbacks = scan.feedbacks;
  result.truncated_tail = scan.truncated_tail;

  // Join, DR baseline model, and join diagnostics. The log's own reward
  // statistics accumulate over joined feedbacks in stream order — the
  // exact sequence every candidate's IPS accumulator sees (score_candidate
  // walks the same JoinWalker), so the logging-policy identity holds
  // bitwise.
  RunningStat empirical;
  const serve::EventLogJoin join = serve::join_event_log(
      scan, [&](const serve::JoinedEvent& event) {
        empirical.add(event.reward);
      });
  result.joined = join.joined;
  result.orphan_feedbacks = join.orphan_feedbacks;
  result.duplicate_feedbacks = join.duplicate_feedbacks;
  result.min_propensity = join.min_propensity;
  RewardModel model(num_arms);
  for (const serve::JoinedEvent& event : join.events) {
    if (static_cast<std::size_t>(event.action) >= num_arms) {
      throw std::invalid_argument(
          "replay: logged action " + std::to_string(event.action) +
          " is outside the graph's " + std::to_string(num_arms) +
          " arms — graph flags must match the serving run");
    }
    if (event.has_reward) model.observe(event.action, event.reward);
  }
  result.arm_model.reserve(num_arms);
  for (std::size_t arm = 0; arm < num_arms; ++arm) {
    result.arm_model.push_back(model.value(static_cast<ArmId>(arm)));
  }
  result.model_arm_average = model.arm_average();

  result.empirical_mean = empirical.mean();
  result.empirical_variance = empirical.variance();
  result.empirical_se = empirical.stderr_mean();
  return result;
}

CandidateSummary score_candidate(const Graph& graph,
                                 const std::vector<serve::EventRecord>& records,
                                 const std::string& spec,
                                 const ReplayOptions& options,
                                 const std::vector<double>& arm_model,
                                 double model_arm_average) {
  serve::Explorer explorer(graph, spec, options.epsilon, options.seed,
                           options.horizon);
  EstimatorAccumulator accumulator;
  CandidateSummary summary;
  summary.spec = spec;
  summary.description = explorer.description();

  /// What a feedback needs from its decision, indexed by decision ordinal.
  struct Decided {
    ArmId action = kNoArm;  ///< Logged action.
    bool matched = false;   ///< Candidate's sampled action == logged action.
    double weight = 0.0;    ///< q(logged action) / logged propensity.
    double direct = 0.0;    ///< Direct term E_q[m] at decision time.
  };
  std::vector<Decided> decided;

  const double uniform_direct = options.epsilon * model_arm_average;
  serve::JoinWalker walker;
  for (const serve::EventRecord& record : records) {
    const std::size_t ordinal = walker.next(record);
    if (record.type == serve::EventType::kDecision) {
      // Replays the engine's decide(): same clock, draw and propensity.
      const serve::Explorer::Choice choice =
          explorer.choose(serve::fnv1a_key(record.key));
      ++summary.decisions;
      decided.push_back(
          {record.action, choice.sampled == record.action,
           explorer.propensity(record.action, choice.greedy) /
               record.propensity,
           uniform_direct +
               (1.0 - options.epsilon) *
                   arm_model[static_cast<std::size_t>(choice.greedy)]});
    } else if (ordinal != serve::JoinWalker::kUnjoined) {
      // Replays the engine's report(): the logged action's reward is the
      // only one the service ever saw.
      const Decided& joined = decided[ordinal];
      explorer.learn(joined.action, record.reward);
      accumulator.add(joined.weight, record.reward, joined.direct,
                      arm_model[static_cast<std::size_t>(joined.action)]);
      if (joined.matched) ++summary.matched;
    }
  }

  summary.ips_stat = accumulator.ips();
  summary.dr_stat = accumulator.dr();
  summary.weight_sum = accumulator.weight_sum();
  summary.weight_sq_sum = accumulator.weight_sq_sum();
  summary.weighted_reward_sum = accumulator.weighted_reward_sum();
  summary.max_weight = accumulator.max_weight();
  // Bulk-increment outside the replay loop: one registry touch per
  // candidate, not per record.
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  registry.counter("replay.events.scored").inc(summary.ips_stat.count());
  registry.counter("replay.candidates.scored").inc();
  return summary;
}

void finalize_candidate(CandidateSummary& summary) {
  summary.events = summary.ips_stat.count();
  summary.ips_mean = summary.ips_stat.mean();
  summary.ips_variance = summary.ips_stat.variance();
  summary.ips_se = summary.ips_stat.stderr_mean();
  summary.dr_mean = summary.dr_stat.mean();
  summary.dr_variance = summary.dr_stat.variance();
  summary.dr_se = summary.dr_stat.stderr_mean();
  summary.snips = summary.weight_sum > 0.0
                      ? summary.weighted_reward_sum / summary.weight_sum
                      : 0.0;
  summary.ess = summary.weight_sq_sum > 0.0
                    ? summary.weight_sum * summary.weight_sum /
                          summary.weight_sq_sum
                    : 0.0;
}

PanelResult replay_panel(const Graph& graph, const serve::EventLogScan& scan,
                         const std::vector<std::string>& specs,
                         const ReplayOptions& options) {
  if (!(options.epsilon >= 0.0 && options.epsilon <= 1.0)) {
    throw std::invalid_argument("replay: epsilon must be in [0, 1]");
  }
  // Reject every bad spec before touching the (possibly huge) log.
  for (const std::string& spec : specs) {
    PolicyRegistry::instance().check_single_play(spec);
  }

  PanelResult result = panel_base(graph, scan);
  result.candidates.reserve(specs.size());
  for (const std::string& spec : specs) {
    CandidateSummary summary =
        score_candidate(graph, scan.records, spec, options, result.arm_model,
                        result.model_arm_average);
    finalize_candidate(summary);
    result.candidates.push_back(std::move(summary));
  }
  return result;
}

}  // namespace ncb::replay
