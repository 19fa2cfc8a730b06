// ncb_replay — counterfactual replay & offline policy evaluation.
//
// Scans an ncb_serve event log, joins decisions to rewards, and prices a
// panel of candidate policy specs on the logged traffic via IPS, SNIPS,
// and doubly-robust estimation (src/replay/). One logged run evaluates an
// arbitrary panel without re-serving; the panel JSON merges with sweep
// emitter output downstream.
//
// The graph flags must match the serving run (the log stores traffic, not
// the graph), and --epsilon/--seed must match it for --logging-policy to
// reproduce the served actions exactly. With those matched, the logging
// policy's IPS estimate equals the log's empirical mean reward bitwise and
// its replayed draws match every served action — ncb_replay verifies that
// identity and fails loudly when it breaks.
//
// With --workers/--listen, SIGINT/SIGTERM stop the panel gracefully: no
// candidate is assigned after the signal, in-flight ones drain, no partial
// panel is written, and the exit code is 130.
//
// Usage:
//   ncb_replay --log <file> --policies 'ucb1;eps-greedy:eps=0.1'
//              [--logging-policy 'eps-greedy:eps=0'] [--epsilon 0.05]
//              [--arms 100] [--graph er] [--edge-prob 0.3]
//              [--family-param 4] [--seed N] [--horizon N]
//              [--workers N | --listen host:port [--port-file F]]
//              [--out panel.json]
#include <signal.h>
#include <unistd.h>

#include <csignal>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "dist/process.hpp"
#include "exp/emitters.hpp"
#include "exp/sweep_spec.hpp"
#include "net/tcp.hpp"
#include "net/transport.hpp"
#include "obs/metrics.hpp"
#include "replay/dispatch.hpp"
#include "replay/replay.hpp"
#include "serve/event_log.hpp"
#include "sim/experiment.hpp"
#include "util/arg_parse.hpp"

namespace {

using namespace ncb;

// SIGINT/SIGTERM during a distributed panel: the pool stops assigning,
// drains in-flight candidates, and the run exits 130 without a panel.
volatile std::sig_atomic_t g_stop = 0;

void handle_stop_signal(int) { g_stop = 1; }

void install_stop_handlers() {
  struct sigaction action {};
  action.sa_handler = handle_stop_signal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // no SA_RESTART: poll/read see EINTR promptly
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);
}

int usage(const char* program) {
  std::cerr
      << "usage: " << program << " --log <file> --policies 'spec;spec;...'\n"
         "  --log <file>        ncb_serve event log to replay\n"
         "  --policies <list>   ';'-separated candidate policy specs\n"
         "                      (specs may contain commas: 'ucb1;moss:horizon=auto')\n"
         "  --logging-policy S  the spec the log was served with; replayed as\n"
         "                      a candidate and pinned: its IPS estimate must\n"
         "                      equal the log's empirical mean exactly\n"
         "  --epsilon E         engine-level exploration assumed for every\n"
         "                      candidate (match the serving run; default 0.05)\n"
         "  --arms K            number of arms (default: 100)\n"
         "  --graph <family>    er|complete|empty|star|cycle|cliques|ba|ws\n"
         "  --edge-prob P       ER edge probability / WS beta (default: 0.3)\n"
         "  --family-param N    cliques count / BA attach / WS k (default: 4)\n"
         "  --seed N            master seed (match the serving run)\n"
         "  --horizon N         horizon hint for policy builders (0 = anytime)\n"
         "  --workers N         shard the panel across N spawned worker\n"
         "                      processes (0 = single process; output is\n"
         "                      byte-identical either way)\n"
         "  --listen H:P        accept TCP replay workers instead of spawning\n"
         "                      (port 0 = kernel-assigned; exclusive with\n"
         "                      --workers)\n"
         "  --port-file F       write the bound host:port to F (with --listen)\n"
         "  --out <file>        write the panel JSON document\n"
         "  --metrics-out <f>   write a final metrics-registry snapshot\n"
         "                      (JSON: replay.* and, with --workers, the\n"
         "                      dist.workers.*/dist.bytes.* fleet counters)\n"
         "(--worker-fd N and --worker-connect H:P are internal: they run the\n"
         " replay worker loop over an inherited fd / a TCP connection)\n";
  return 2;
}

/// Splits the --policies list on ';' (specs contain commas, so the sweep
/// comma convention cannot apply here). Empty segments are dropped.
std::vector<std::string> split_panel(const std::string& text) {
  std::vector<std::string> specs;
  std::istringstream in(text);
  std::string item;
  while (std::getline(in, item, ';')) {
    if (!item.empty()) specs.push_back(item);
  }
  return specs;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const ArgParse args = parse_flags(
        argc, argv,
        {"arms", "edge-prob", "epsilon", "family-param", "graph", "help",
         "horizon", "listen", "log", "logging-policy", "metrics-out", "out",
         "policies", "port-file", "seed", "worker-connect", "worker-fd",
         "workers"});
    if (args.has("help")) return usage(args.program().c_str());

    // Internal worker modes: everything (graph config, event stream,
    // candidate assignments) arrives over the wire, so no other flags.
    if (args.has("worker-fd")) {
      replay::ReplayWorkerOptions worker;
      worker.fd = static_cast<int>(args.get_int("worker-fd", -1));
      return replay::run_replay_worker(worker);
    }
    if (args.has("worker-connect")) {
      const net::HostPort address = net::parse_host_port(
          args.get_string("worker-connect", ""), "--worker-connect");
      replay::ReplayWorkerOptions worker;
      worker.fd = net::tcp_connect_retry(address, 5000, 10000);
      const int code = replay::run_replay_worker(worker);
      ::close(worker.fd);
      return code;
    }

    const std::string log_path = args.get_string("log", "");
    if (log_path.empty()) return usage(args.program().c_str());

    const auto reject = [&](const std::string& message) {
      std::cerr << args.program() << ": error: " << message << '\n';
      return 2;
    };
    const int workers = args.get_int("workers", 0);
    if (workers < 0) return reject("--workers must be >= 0 (0 = in-process)");
    const std::string listen_text = args.get_string("listen", "");
    const std::string port_file = args.get_string("port-file", "");
    if (!listen_text.empty() && workers > 0) {
      return reject(
          "--listen and --workers are mutually exclusive: a TCP fleet is "
          "whoever connects, not a spawned count");
    }
    if (!port_file.empty() && listen_text.empty()) {
      return reject("--port-file requires --listen");
    }
    net::HostPort listen_address;
    if (!listen_text.empty()) {
      listen_address = net::parse_host_port(listen_text, "--listen");
    }

    const std::string logging_spec = args.get_string("logging-policy", "");
    std::vector<std::string> specs = split_panel(args.get_string("policies", ""));
    // The logging policy rides at the front of the panel (once).
    if (!logging_spec.empty()) {
      std::vector<std::string> panel{logging_spec};
      for (const std::string& spec : specs) {
        if (spec != logging_spec) panel.push_back(spec);
      }
      specs = std::move(panel);
    }
    if (specs.empty()) {
      std::cerr << args.program()
                << ": error: no candidate policies (--policies / "
                   "--logging-policy)\n";
      return 2;
    }

    ExperimentConfig config;
    config.graph_family = exp::parse_family(args.get_string("graph", "er"));
    config.num_arms = static_cast<std::size_t>(args.get_int("arms", 100));
    config.edge_probability = args.get_double("edge-prob", 0.3);
    config.family_param =
        static_cast<std::size_t>(args.get_int("family-param", 4));
    config.seed = static_cast<std::uint64_t>(args.get_int("seed", 20170605));

    replay::ReplayOptions options;
    options.epsilon = args.get_double("epsilon", 0.05);
    options.seed = config.seed;
    options.horizon = args.get_int("horizon", 0);

    const serve::EventLogScan scan = serve::read_event_log(log_path);
    std::cout << "ncb_replay: " << log_path << ": " << scan.decisions
              << " decisions, " << scan.feedbacks << " feedbacks"
              << (scan.truncated_tail ? " (truncated tail — replaying the "
                                        "intact prefix)"
                                      : "")
              << '\n';

    const Graph graph = build_graph(config);
    replay::PanelResult panel;
    if (workers > 0 || !listen_text.empty()) {
      // Distributed path: one candidate per worker assignment; the merged
      // panel is byte-identical to the in-process one (replay/dispatch.hpp).
      install_stop_handlers();
      std::unique_ptr<net::StreamTransport> transport;
      if (!listen_text.empty()) {
        auto tcp = std::make_unique<net::TcpServerTransport>(listen_address);
        const std::string bound = net::format_host_port(tcp->bound());
        std::cout << "ncb_replay: " << specs.size()
                  << " candidates, listening on " << bound
                  << " (start workers with --worker-connect " << bound
                  << ")\n";
        if (!port_file.empty()) exp::write_file(port_file, bound + "\n");
        transport = std::move(tcp);
      } else {
        transport = std::make_unique<net::ProcessTransport>(
            std::vector<std::string>{dist::self_exe_path(args.program())});
        std::cout << "ncb_replay: " << specs.size() << " candidates across "
                  << workers << " workers" << std::endl;
      }
      replay::ReplayDispatchOptions dispatch;
      dispatch.transport = transport.get();
      dispatch.workers = static_cast<std::size_t>(workers);
      dispatch.graph_config = &config;
      dispatch.should_stop = [] { return g_stop != 0; };
      const replay::DistPanelSummary summary =
          replay::run_distributed_panel(graph, scan, specs, options, dispatch);
      if (summary.interrupted) {
        std::cout << "interrupted: in-flight candidates drained, no panel "
                     "written\n";
        return 130;
      }
      panel = summary.panel;
      if (summary.requeues > 0) {
        std::cout << "(requeued " << summary.requeues
                  << " candidates after worker loss — output unaffected)\n";
      }
      for (const net::WorkerSummary& w : summary.workers) {
        std::cout << "  worker " << w.id << " (" << w.where;
        if (!w.host.empty()) {
          std::cout << ", " << w.host << "/" << w.remote_pid;
        }
        std::cout << "): " << w.tasks_done << " candidates, "
                  << exp::json_number(w.seconds) << "s, " << w.bytes_out
                  << "B out / " << w.bytes_in << "B in"
                  << (w.lost_in_flight ? "  [lost mid-candidate]"
                                       : (w.lost ? "  [lost]" : ""))
                  << "\n";
      }
    } else {
      panel = replay::replay_panel(graph, scan, specs, options);
    }

    std::cout << "ncb_replay: joined " << panel.joined << "/"
              << panel.decisions << ", empirical mean "
              << exp::json_number(panel.empirical_mean) << " +/- "
              << exp::json_number(panel.empirical_se)
              << ", propensity floor "
              << exp::json_number(panel.min_propensity) << '\n';

    std::vector<std::string> lines;
    lines.reserve(panel.candidates.size());
    for (const replay::CandidateSummary& candidate : panel.candidates) {
      exp::ReplayRecord record;
      record.policy = candidate.spec;
      record.description = candidate.description;
      record.logging =
          !logging_spec.empty() && candidate.spec == logging_spec;
      record.epsilon = options.epsilon;
      record.seed = options.seed;
      record.decisions = candidate.decisions;
      record.events = candidate.events;
      record.matched = candidate.matched;
      record.ips_mean = candidate.ips_mean;
      record.ips_se = candidate.ips_se;
      record.snips = candidate.snips;
      record.dr_mean = candidate.dr_mean;
      record.dr_se = candidate.dr_se;
      record.ess = candidate.ess;
      record.max_weight = candidate.max_weight;
      lines.push_back(exp::render_replay_json(record));

      const double match_pct =
          candidate.events
              ? 100.0 * static_cast<double>(candidate.matched) /
                    static_cast<double>(candidate.events)
              : 0.0;
      std::cout << "  " << candidate.spec << ": ips="
                << exp::json_number(candidate.ips_mean) << " +/- "
                << exp::json_number(candidate.ips_se)
                << " snips=" << exp::json_number(candidate.snips)
                << " dr=" << exp::json_number(candidate.dr_mean) << " +/- "
                << exp::json_number(candidate.dr_se)
                << " ess=" << exp::json_number(candidate.ess) << "/"
                << candidate.events << " match=" << match_pct << "%\n";
    }

    const std::string out_path = args.get_string("out", "");
    if (!out_path.empty()) {
      exp::ReplayPanelMeta meta;
      meta.log_path = log_path;
      meta.decisions = panel.decisions;
      meta.feedbacks = panel.feedbacks;
      meta.joined = panel.joined;
      meta.truncated_tail = panel.truncated_tail;
      meta.arms = config.num_arms;
      meta.graph = exp::family_token(config.graph_family);
      meta.min_propensity = panel.min_propensity;
      meta.empirical_mean = panel.empirical_mean;
      meta.empirical_se = panel.empirical_se;
      exp::write_file(out_path, exp::render_replay_panel_json(meta, lines));
      std::cout << "ncb_replay: wrote " << out_path << " ("
                << panel.candidates.size() << " policies)\n";
    }

    const std::string metrics_path = args.get_string("metrics-out", "");
    if (!metrics_path.empty()) {
      // Before the identity pin: a broken identity should still leave the
      // snapshot behind for diagnosis.
      exp::write_file(metrics_path,
                      obs::MetricsRegistry::global().snapshot().render_json());
      std::cout << "ncb_replay: wrote " << metrics_path << '\n';
    }

    // The identity pin: the logging policy replayed at matched seeds must
    // price itself at exactly the log's empirical mean (weight 1.0 on every
    // event, so the IPS accumulator saw the raw reward sequence), and its
    // own exploration draws must reproduce every served action.
    if (!logging_spec.empty()) {
      const replay::CandidateSummary& logger = panel.candidates.front();
      const bool identity =
          logger.ips_mean == panel.empirical_mean &&
          logger.ips_variance == panel.empirical_variance &&
          logger.ess == static_cast<double>(logger.events) &&
          logger.matched == logger.events;
      if (!identity) {
        std::cerr << "ncb_replay: LOGGING IDENTITY BROKEN: ips="
                  << exp::json_number(logger.ips_mean) << " empirical="
                  << exp::json_number(panel.empirical_mean)
                  << " ess=" << exp::json_number(logger.ess) << "/"
                  << logger.events << " matched=" << logger.matched << "/"
                  << logger.events
                  << " — graph/seed/epsilon flags do not match the serving "
                     "run, or the estimator drifted\n";
        return 1;
      }
      std::cout << "ncb_replay: logging identity OK: ips == empirical mean == "
                << exp::json_number(logger.ips_mean) << " over "
                << logger.events << " events, all served actions matched\n";
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << (argc > 0 ? argv[0] : "ncb_replay") << ": error: " << e.what()
              << '\n';
    return 2;
  }
}
