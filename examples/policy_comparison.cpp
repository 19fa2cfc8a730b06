// CLI playground: run any policy on any graph family under any scenario.
//
//   ./policy_comparison --scenario=sso --policy=dfl-sso --arms=50 --p=0.4
//   ./policy_comparison --scenario=csr --policy=dfl-csr --arms=15 --m=2
//   ./policy_comparison --scenario=cso --family=is --arms=12   # Fig 2 style
//   ./policy_comparison --policy=eps-greedy:eps=0.05,ucb1:c=4  # param specs
//   ./policy_comparison --list            # registry names + docs + params
//
// Flags: --scenario {sso,ssr,cso,csr}, --policy NAME (repeatable via comma
// list), --arms K, --p density, --m strategy size, --family {subsets,is},
// --horizon N, --reps R, --graph {er,complete,empty,star,cycle,cliques,
// ba,ws}, --seed S.
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "core/policy_registry.hpp"
#include "sim/experiment.hpp"
#include "sim/replication.hpp"
#include "util/arg_parse.hpp"
#include "util/ascii_plot.hpp"

namespace {

// Splits the --policy list on commas, except that a segment containing '='
// but no ':' continues the previous spec's parameter list ("a:x=1,y=2,b"
// → {"a:x=1,y=2", "b"}; policy names never contain '=').
std::vector<std::string> split_policy_list(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  std::string item;
  while (std::getline(in, item, ',')) {
    if (item.empty()) continue;
    const bool continues_params = !out.empty() &&
                                  item.find('=') != std::string::npos &&
                                  item.find(':') == std::string::npos;
    if (continues_params) {
      out.back() += ',' + item;
    } else {
      out.push_back(item);
    }
  }
  return out;
}

int run(int argc, char** argv) {
  using namespace ncb;
  const ArgParse args(argc, argv);

  if (args.has("list") || args.has("list-policies")) {
    std::cout << PolicyRegistry::instance().render_listing()
              << "scenarios: sso ssr cso csr\n";
    return 0;
  }

  const std::string scenario_text = args.get_string("scenario", "sso");
  Scenario scenario = Scenario::kSso;
  if (scenario_text == "ssr") scenario = Scenario::kSsr;
  else if (scenario_text == "cso") scenario = Scenario::kCso;
  else if (scenario_text == "csr") scenario = Scenario::kCsr;
  else if (scenario_text != "sso") {
    std::cerr << "unknown scenario: " << scenario_text << '\n';
    return 1;
  }

  ExperimentConfig config;
  config.name = "policy-comparison";
  config.num_arms = static_cast<std::size_t>(
      args.get_int("arms", is_combinatorial(scenario) ? 15 : 50));
  config.edge_probability = args.get_double("p", 0.3);
  config.horizon = args.get_int("horizon", 5000);
  config.replications = static_cast<std::size_t>(args.get_int("reps", 10));
  config.strategy_size = static_cast<std::size_t>(args.get_int("m", 2));
  config.seed = static_cast<std::uint64_t>(args.get_int("seed", 20170605));

  const std::string graph_text = args.get_string("graph", "er");
  if (graph_text == "complete") config.graph_family = GraphFamily::kComplete;
  else if (graph_text == "empty") config.graph_family = GraphFamily::kEmpty;
  else if (graph_text == "star") config.graph_family = GraphFamily::kStar;
  else if (graph_text == "cycle") config.graph_family = GraphFamily::kCycle;
  else if (graph_text == "cliques") {
    config.graph_family = GraphFamily::kDisjointCliques;
    config.family_param = 5;
  } else if (graph_text == "ba") {
    config.graph_family = GraphFamily::kBarabasiAlbert;
    config.family_param = 2;
  } else if (graph_text == "ws") {
    config.graph_family = GraphFamily::kWattsStrogatz;
    config.family_param = 2;
  }

  const std::string default_policy =
      is_combinatorial(scenario) ? "dfl-cso" : "dfl-sso";
  const auto policies =
      split_policy_list(args.get_string("policy", default_policy));

  std::cout << config.describe() << "  scenario=" << scenario_name(scenario)
            << '\n';

  // Optional independent-set family (the paper's Fig. 2 setting) instead of
  // the default ≤M-subset family.
  const bool use_is_family = args.get_string("family", "subsets") == "is";
  std::shared_ptr<const FeasibleSet> family;
  BanditInstance instance = build_instance(config);
  if (is_combinatorial(scenario)) {
    if (use_is_family) {
      family = std::make_shared<const FeasibleSet>(make_independent_set_family(
          std::make_shared<const Graph>(instance.graph()),
          config.strategy_size));
    } else {
      family = build_family(config, instance.graph());
    }
    std::cout << "feasible family: " << (use_is_family ? "independent sets"
                                                       : "subsets")
              << ", |F| = " << family->size() << '\n';
  }

  std::cout << "\npolicy,final_cumulative_regret,ci95,final_avg_regret\n";
  ThreadPool pool;
  std::vector<PlotSeries> figure;
  for (const auto& policy : policies) {
    ReplicationOptions ro;
    ro.replications = config.replications;
    ro.master_seed = config.seed;
    ro.runner.horizon = config.horizon;
    ro.pool = &pool;
    const ReplicatedResult result =
        is_combinatorial(scenario)
            ? run_replicated_combinatorial(
                  [&](std::uint64_t seed) {
                    return PolicyRegistry::instance().make_combinatorial(
                        policy, family, seed);
                  },
                  instance, *family, scenario, ro)
            : run_replicated_single(
                  [&](std::uint64_t seed) {
                    return PolicyRegistry::instance().make_single_play(
                        policy, config.horizon, seed);
                  },
                  instance, scenario, ro);
    // Multi-param specs contain commas; CSV-quote them to keep 4 columns.
    const bool needs_quoting = policy.find(',') != std::string::npos;
    std::cout << (needs_quoting ? "\"" + policy + "\"" : policy) << ','
              << result.final_cumulative.mean() << ','
              << result.final_cumulative.ci95_halfwidth() << ','
              << result.final_cumulative.mean() /
                     static_cast<double>(config.horizon)
              << '\n';
    figure.push_back({policy, result.accumulated_regret()});
  }

  PlotOptions opts;
  opts.title = "accumulated regret";
  opts.y_zero = true;
  opts.height = 14;
  for (auto& s : figure) s.values = downsample(s.values, 72);
  std::cout << '\n' << render_plot(figure, opts);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::invalid_argument& e) {
    std::cerr << (argc > 0 ? argv[0] : "policy_comparison")
              << ": error: " << e.what() << '\n';
    return 2;
  }
}
