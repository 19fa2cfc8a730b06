// pb_layers — per-layer timings for the repo benchmark's traced runs.
//
// Times calls into each module's public functions over inputs generated
// from --seed, at the sizes the benchmark workloads run at:
//
//   obs       Counter::inc, ScopedTimer
//   dist      DecideRequest / Feedback decode through FrameDecoder, and
//             DecideReply encode + append_frame (the reactor's calls)
//   serve     DecisionEngine decide/report (no log) per serving policy;
//             EventLog append and flush throughput
//   core      select/observe under bandit feedback at K = 10^4, and observe
//             with a closed neighbourhood of side observations at K = 20
//   replay    read_event_log, panel_base, score_candidate over a log the
//             serving engine writes here, and the core select/observe time
//             of the same record stream (so score − core = estimate cost)
//   sim       run_single_play / run_combinatorial per slot, each scenario
//   strategy  ExactCoverageOracle::select
//   exp       run_sweep_job over the given sweep specs (2-thread pool)
//
// Prints one JSON object of named values on stdout. Times are medians of
// three repetitions where a single repetition is short.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/policy_registry.hpp"
#include "dist/protocol.hpp"
#include "env/environment.hpp"
#include "exp/emitters.hpp"
#include "exp/sweep_runner.hpp"
#include "exp/sweep_spec.hpp"
#include "obs/metrics.hpp"
#include "obs/scoped_timer.hpp"
#include "replay/replay.hpp"
#include "serve/decision_engine.hpp"
#include "serve/event_log.hpp"
#include "sim/experiment.hpp"
#include "sim/runner.hpp"
#include "sim/thread_pool.hpp"
#include "strategy/oracle.hpp"
#include "util/arg_parse.hpp"
#include "util/rng.hpp"

namespace {

using namespace ncb;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Median of `repeats` timings of `body`, in seconds.
template <typename Body>
double median_seconds(int repeats, Body body) {
  std::vector<double> samples;
  for (int r = 0; r < repeats; ++r) {
    const auto start = Clock::now();
    body();
    samples.push_back(seconds_since(start));
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

/// Keeps a computed value alive so the optimizer cannot drop its producer.
template <typename T>
void keep(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

double noisy_reward(double mean, Xoshiro256& rng) {
  return std::min(1.0, std::max(0.0, mean + (rng.uniform() - 0.5) * 0.2));
}

class Report {
 public:
  void add(const std::string& name, double value) {
    json_ += (json_.empty() ? "{" : ", ") + std::string("\"") + name +
             "\": " + exp::json_number(value);
    std::cerr << "  " << name << " = " << value << '\n';
  }
  [[nodiscard]] std::string finish() const { return json_ + "}"; }

 private:
  std::string json_;
};

struct Inputs {
  std::uint64_t seed = 0;
  double scale = 1.0;
  int repeats = 3;
  std::string work_dir;
  ExperimentConfig serve_config;  ///< The serve/replay instance (K = 10^4).
  ExperimentConfig paper_config;  ///< The sweep instance (K = 20, M = 3).
  std::vector<std::string> keys;

  [[nodiscard]] std::size_t n(double base) const {
    return std::max<std::size_t>(1, static_cast<std::size_t>(base * scale));
  }
};

void time_obs(const Inputs& in, Report& report) {
  obs::MetricsRegistry registry;
  obs::Counter& counter = registry.counter("bench.events");
  const std::size_t incs = in.n(2e7);
  const double inc_s = median_seconds(in.repeats, [&] {
    for (std::size_t i = 0; i < incs; ++i) counter.inc();
  });
  keep(counter.value());
  report.add("obs.counter_inc_ns", inc_s * 1e9 / static_cast<double>(incs));

  obs::Histogram& histogram = registry.histogram("bench.span_us");
  const std::size_t spans = in.n(2e6);
  const double span_s = median_seconds(in.repeats, [&] {
    for (std::size_t i = 0; i < spans; ++i) {
      const obs::ScopedTimer timer(histogram);
      keep(timer);
    }
  });
  report.add("obs.scoped_timer_ns", span_s * 1e9 / static_cast<double>(spans));
}

void time_codec(const Inputs& in, Report& report) {
  Xoshiro256 rng(derive_seed_at(in.seed, 11));
  const std::size_t batch = 4096;
  std::string requests;
  std::string feedbacks;
  for (std::size_t i = 0; i < batch; ++i) {
    dist::DecideRequestMsg request;
    request.request_id = i;
    request.slot = i;
    request.user_key = in.keys[rng.uniform_int(in.keys.size())];
    dist::append_frame(requests, dist::MsgType::kDecideRequest,
                       dist::encode_decide_request(request));
    dist::FeedbackMsg feedback;
    feedback.decision_id = i + 1;
    feedback.reward = rng.uniform();
    dist::append_frame(feedbacks, dist::MsgType::kFeedback,
                       dist::encode_feedback(feedback));
  }
  const std::size_t rounds = in.n(200);
  const auto decode_all = [&](const std::string& bytes, auto decode) {
    return median_seconds(in.repeats, [&] {
      for (std::size_t r = 0; r < rounds; ++r) {
        dist::FrameDecoder decoder;
        decoder.feed(bytes.data(), bytes.size());
        while (auto frame = decoder.next()) keep(decode(frame->payload));
      }
    });
  };
  const double per = static_cast<double>(rounds * batch);
  report.add("dist.codec.decode_request_ns",
             decode_all(requests, dist::decode_decide_request) * 1e9 / per);
  report.add("dist.codec.decode_feedback_ns",
             decode_all(feedbacks, dist::decode_feedback) * 1e9 / per);

  const double encode_s = median_seconds(in.repeats, [&] {
    std::string out;
    for (std::size_t r = 0; r < rounds; ++r) {
      out.clear();
      for (std::size_t i = 0; i < batch; ++i) {
        dist::DecideReplyMsg reply;
        reply.request_id = i;
        reply.slot = i;
        reply.decision_id = r * batch + i;
        reply.action = static_cast<std::uint32_t>(i % 10000);
        reply.propensity = 0.95;
        dist::append_frame(out, dist::MsgType::kDecideReply,
                           dist::encode_decide_reply(reply));
      }
      keep(out);
    }
  });
  report.add("dist.codec.encode_reply_ns", encode_s * 1e9 / per);
}

/// DecisionEngine decide/report without an event log, past its first K
/// decisions, for one serving policy.
void time_engine(const Inputs& in, const Graph& graph,
                 const std::vector<double>& means, const std::string& policy,
                 const std::string& label, std::size_t measured,
                 Report& report) {
  obs::MetricsRegistry registry;
  serve::EngineOptions options;
  options.policy_spec = policy;
  options.epsilon = 0.05;
  options.seed = in.seed;
  options.metrics = &registry;
  serve::DecisionEngine engine(graph, options, nullptr);
  Xoshiro256 rng(derive_seed_at(in.seed, 12));
  const std::size_t warmup = graph.num_vertices() + graph.num_vertices() / 5;
  for (std::size_t i = 0; i < warmup; ++i) {
    const serve::Decision d =
        engine.decide(in.keys[rng.uniform_int(in.keys.size())]);
    engine.report(d.decision_id, noisy_reward(means[d.action], rng));
  }
  double decide_s = 0.0;
  double report_s = 0.0;
  for (std::size_t i = 0; i < measured; ++i) {
    const std::string& key = in.keys[rng.uniform_int(in.keys.size())];
    const auto t0 = Clock::now();
    const serve::Decision d = engine.decide(key);
    const auto t1 = Clock::now();
    const double reward = noisy_reward(means[d.action], rng);
    const auto t2 = Clock::now();
    engine.report(d.decision_id, reward);
    const auto t3 = Clock::now();
    decide_s += std::chrono::duration<double>(t1 - t0).count();
    report_s += std::chrono::duration<double>(t3 - t2).count();
  }
  const double per = static_cast<double>(measured);
  report.add("serve.engine.decide_ns." + label, decide_s * 1e9 / per);
  report.add("serve.engine.report_ns." + label, report_s * 1e9 / per);
}

void time_event_log(const Inputs& in, Report& report) {
  Xoshiro256 rng(derive_seed_at(in.seed, 13));
  const std::size_t decisions = in.n(200000);
  obs::MetricsRegistry registry;
  serve::EventLog::Options options;
  options.path = in.work_dir + "/layers_append.ncbl";
  options.metrics = &registry;
  double append_s = 0.0;
  std::uint64_t bytes = 0;
  {
    serve::EventLog log(options);
    const auto start = Clock::now();
    for (std::size_t i = 1; i <= decisions; ++i) {
      log.append_decision(i, in.keys[i % in.keys.size()],
                          static_cast<ArmId>(i % 10000), 0.95);
      log.append_feedback(i, 0.5);
    }
    append_s = seconds_since(start);
    log.close();
    bytes = log.bytes_written() - 8;  // minus the file header
  }
  report.add("serve.log.append_ns", append_s * 1e9 / static_cast<double>(decisions));
  report.add("serve.log.bytes_per_decision",
             static_cast<double>(bytes) / static_cast<double>(decisions));

  // Flush throughput: buffer a batch with both flush triggers out of reach,
  // then time one explicit flush() of it.
  options.path = in.work_dir + "/layers_flush.ncbl";
  options.flush_bytes = std::size_t{1} << 40;
  options.flush_ms = 1000000;
  std::vector<double> rates;
  for (int r = 0; r < in.repeats; ++r) {
    serve::EventLog log(options);
    for (std::size_t i = 1; i <= decisions; ++i) {
      log.append_decision(i, in.keys[rng.uniform_int(in.keys.size())],
                          static_cast<ArmId>(i % 10000), 0.95);
      log.append_feedback(i, rng.uniform());
    }
    const auto start = Clock::now();
    log.flush();
    const double seconds = seconds_since(start);
    rates.push_back(static_cast<double>(log.bytes_written() - 8) / 1e6 / seconds);
    log.close();
  }
  std::sort(rates.begin(), rates.end());
  report.add("serve.log.flush_mb_per_s", rates[rates.size() / 2]);
}

/// select/observe per call under bandit feedback (only the played arm's
/// reward is revealed), past the first K slots.
void time_core(const Inputs& in, const Graph& graph,
               const std::vector<double>& means, const std::string& spec,
               const std::string& label, std::size_t measured,
               Report& report) {
  auto policy = PolicyRegistry::instance().make_single_play(spec, 1000000, in.seed);
  policy->reset(graph);
  Xoshiro256 rng(derive_seed_at(in.seed, 14));
  TimeSlot t = 0;
  const std::size_t warmup = graph.num_vertices() + graph.num_vertices() / 5;
  for (std::size_t i = 0; i < warmup; ++i) {
    const ArmId a = policy->select(++t);
    policy->observe(a, t, {{a, noisy_reward(means[a], rng)}});
  }
  double select_s = 0.0;
  double observe_s = 0.0;
  for (std::size_t i = 0; i < measured; ++i) {
    const auto t0 = Clock::now();
    const ArmId a = policy->select(++t);
    const auto t1 = Clock::now();
    const double reward = noisy_reward(means[a], rng);
    const auto t2 = Clock::now();
    policy->observe(a, t, {{a, reward}});
    const auto t3 = Clock::now();
    select_s += std::chrono::duration<double>(t1 - t0).count();
    observe_s += std::chrono::duration<double>(t3 - t2).count();
  }
  const double per = static_cast<double>(measured);
  report.add("core.select_ns." + label, select_s * 1e9 / per);
  report.add("core.observe_ns." + label, observe_s * 1e9 / per);
}

/// DFL-SSO observe with the played arm's closed neighbourhood revealed (the
/// side-observation regime the sweep runs in).
void time_observe_side(const Inputs& in, Report& report) {
  const BanditInstance instance = build_instance(in.paper_config);
  Environment env(instance, derive_seed_at(in.seed, 15));
  auto policy = PolicyRegistry::instance().make_single_play("dfl-sso", 1000000, in.seed);
  policy->reset(instance.graph());
  ObservationBatch batch;
  double observe_s = 0.0;
  const std::size_t slots = in.n(200000);
  for (TimeSlot t = 1; t <= static_cast<TimeSlot>(slots); ++t) {
    const std::vector<double>& row = env.advance();
    const ArmId a = policy->select(t);
    batch.clear();
    for (const ArmId j : instance.graph().closed_neighborhood(a)) {
      batch.add(j, row[j]);
    }
    const auto t0 = Clock::now();
    policy->observe(a, t, batch.span());
    observe_s += seconds_since(t0);
  }
  report.add("core.observe_side_ns", observe_s * 1e9 / static_cast<double>(slots));
}

/// Writes a serving log (engine + event log, lockstep decide → report)
/// and times the replay passes over it.
void time_replay(const Inputs& in, const Graph& graph,
                 const std::vector<double>& means, Report& report) {
  const std::string path = in.work_dir + "/layers_replay.ncbl";
  {
    obs::MetricsRegistry registry;
    serve::EventLog::Options log_options;
    log_options.path = path;
    log_options.metrics = &registry;
    serve::EventLog log(log_options);
    serve::EngineOptions options;
    options.policy_spec = "eps-greedy:eps=0";
    options.epsilon = 0.05;
    options.seed = in.seed;
    options.metrics = &registry;
    serve::DecisionEngine engine(graph, options, &log);
    Xoshiro256 rng(derive_seed_at(in.seed, 16));
    const std::size_t decisions = in.n(20000);
    for (std::size_t i = 0; i < decisions; ++i) {
      const serve::Decision d =
          engine.decide(in.keys[rng.uniform_int(in.keys.size())]);
      engine.report(d.decision_id, noisy_reward(means[d.action], rng));
    }
    log.close();
  }

  serve::EventLogScan scan;
  const double scan_s = median_seconds(in.repeats, [&] {
    scan = serve::read_event_log(path);
  });
  const double records = static_cast<double>(scan.records.size());
  report.add("replay.scan_ns_per_record", scan_s * 1e9 / records);
  replay::PanelResult base;
  const double join_s = median_seconds(in.repeats, [&] {
    base = replay::panel_base(graph, scan);
  });
  report.add("replay.join_ns_per_record", join_s * 1e9 / records);

  replay::ReplayOptions options;
  options.epsilon = 0.05;
  options.seed = in.seed;
  const std::vector<std::string> panel{"eps-greedy:eps=0", "eps-greedy:eps=0.1",
                                       "dfl-sso"};
  double score_s = 0.0;
  double core_s = 0.0;
  std::uint64_t matched = 0;
  std::uint64_t events = 0;
  std::vector<ArmId> logged(scan.records.size() + 1, kNoArm);
  for (const std::string& spec : panel) {
    auto start = Clock::now();
    const replay::CandidateSummary summary = replay::score_candidate(
        graph, scan.records, spec, options, base.arm_model,
        base.model_arm_average);
    score_s += seconds_since(start);
    matched += summary.matched;
    events += summary.ips_stat.count();

    // The same stream through the bare policy: select per decision record,
    // observe of the logged action per feedback record.
    auto policy = PolicyRegistry::instance().make_single_play(spec, 0, in.seed);
    policy->reset(graph);
    TimeSlot t = 0;
    start = Clock::now();
    for (const serve::EventRecord& record : scan.records) {
      if (record.type == serve::EventType::kDecision) {
        keep(policy->select(++t));
        if (record.decision_id < logged.size()) {
          logged[record.decision_id] = record.action;
        }
      } else if (record.decision_id < logged.size()) {
        const ArmId a = logged[record.decision_id];
        policy->observe(a, t, {{a, record.reward}});
      }
    }
    core_s += seconds_since(start);
  }
  const double candidate_records = records * static_cast<double>(panel.size());
  report.add("replay.score_ns_per_record", score_s * 1e9 / candidate_records);
  report.add("replay.estimate_ns_per_record",
             (score_s - core_s) * 1e9 / candidate_records);
  report.add("replay.match_frac",
             events ? static_cast<double>(matched) / static_cast<double>(events)
                    : 0.0);
}

void time_slots(const Inputs& in, Report& report) {
  auto instance =
      std::make_shared<const BanditInstance>(build_instance(in.paper_config));
  const auto family = build_family(in.paper_config, instance->graph());
  const struct {
    Scenario scenario;
    const char* label;
    const char* policy;
    double slots;
  } runs[] = {{Scenario::kSso, "sso", "dfl-sso", 200000},
              {Scenario::kSsr, "ssr", "dfl-ssr", 200000},
              {Scenario::kCso, "cso", "dfl-cso", 20000},
              {Scenario::kCsr, "csr", "dfl-csr", 20000}};
  for (const auto& run : runs) {
    RunnerOptions options;
    options.horizon = static_cast<TimeSlot>(in.n(run.slots));
    options.record_series = false;
    Environment env(instance, derive_seed_at(in.seed, 17));
    double seconds = 0.0;
    if (run.scenario == Scenario::kSso || run.scenario == Scenario::kSsr) {
      auto policy = PolicyRegistry::instance().make_single_play(
          run.policy, options.horizon, in.seed);
      const auto start = Clock::now();
      keep(run_single_play(*policy, env, run.scenario, options));
      seconds = seconds_since(start);
    } else {
      auto policy = PolicyRegistry::instance().make_combinatorial(
          run.policy, family, in.seed);
      const auto start = Clock::now();
      keep(run_combinatorial(*policy, *family, env, run.scenario, options));
      seconds = seconds_since(start);
    }
    report.add(std::string("sim.slot_ns.") + run.label,
               seconds * 1e9 / static_cast<double>(options.horizon));
  }

  Xoshiro256 rng(derive_seed_at(in.seed, 18));
  std::vector<double> scores(instance->num_arms());
  const ExactCoverageOracle oracle;
  const std::size_t calls = in.n(20000);
  double oracle_s = 0.0;
  for (std::size_t i = 0; i < calls; ++i) {
    for (double& s : scores) s = rng.uniform();
    const auto start = Clock::now();
    keep(oracle.select(*family, scores));
    oracle_s += seconds_since(start);
  }
  report.add("strategy.oracle_ns", oracle_s * 1e9 / static_cast<double>(calls));
}

/// Σ in-process run_sweep_job wall time over every job of the given specs,
/// on a 2-thread pool (one sweep worker's share of the machine).
void time_sweep_jobs(const std::vector<std::string>& spec_paths,
                     Report& report) {
  ThreadPool pool(2);
  exp::SweepRunOptions options;
  options.pool = &pool;
  double total_s = 0.0;
  for (const std::string& path : spec_paths) {
    const exp::SweepSpec spec = exp::SweepSpec::parse_file(path);
    for (const exp::SweepJob& job : spec.expand()) {
      const auto start = Clock::now();
      keep(exp::run_sweep_job(job, spec.checkpoints, options));
      total_s += seconds_since(start);
    }
  }
  report.add("exp.sweep_job_s", total_s);
}

std::vector<std::string> split_commas(const std::string& text) {
  std::vector<std::string> items;
  std::istringstream in(text);
  std::string item;
  while (std::getline(in, item, ',')) {
    if (!item.empty()) items.push_back(item);
  }
  return items;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const ArgParse args(argc, argv);
    Inputs in;
    in.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    in.scale = args.get_double("scale", 1.0);
    in.work_dir = args.get_string("work-dir", ".");
    in.serve_config.num_arms = static_cast<std::size_t>(args.get_int("arms", 10000));
    in.serve_config.edge_probability = 0.001;  // as run.py serves with
    in.serve_config.seed = in.seed;
    in.paper_config.num_arms = 20;
    in.paper_config.edge_probability = 0.3;
    in.paper_config.strategy_size = 3;
    in.paper_config.seed = in.seed;
    for (std::size_t k = 0; k < 1024; ++k) {
      in.keys.push_back("user-" + std::to_string(k));
    }

    Report report;
    time_obs(in, report);
    time_codec(in, report);
    const BanditInstance serve_instance = build_instance(in.serve_config);
    const Graph& graph = serve_instance.graph();
    const std::vector<double>& means = serve_instance.means();
    time_engine(in, graph, means, "eps-greedy:eps=0", "eps-greedy",
                in.n(200000), report);
    time_engine(in, graph, means, "dfl-sso", "dfl-sso", in.n(1500), report);
    time_event_log(in, report);
    time_core(in, graph, means, "eps-greedy:eps=0", "eps-greedy", in.n(200000),
              report);
    time_core(in, graph, means, "ucb1", "ucb1", in.n(1500), report);
    time_core(in, graph, means, "dfl-sso", "dfl-sso", in.n(1500), report);
    time_core(in, graph, means, "moss", "moss", in.n(1500), report);
    time_observe_side(in, report);
    time_replay(in, graph, means, report);
    time_slots(in, report);
    const std::vector<std::string> specs =
        split_commas(args.get_string("sweep-specs", ""));
    if (!specs.empty()) time_sweep_jobs(specs, report);
    std::cout << report.finish() << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << (argc > 0 ? argv[0] : "pb_layers") << ": error: " << e.what()
              << '\n';
    return 2;
  }
}
