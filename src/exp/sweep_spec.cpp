#include "exp/sweep_spec.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/policy_registry.hpp"
#include "exp/emitters.hpp"

namespace ncb::exp {
namespace {

constexpr struct {
  GraphFamily family;
  const char* token;
} kFamilyTokens[] = {
    {GraphFamily::kErdosRenyi, "er"},
    {GraphFamily::kComplete, "complete"},
    {GraphFamily::kEmpty, "empty"},
    {GraphFamily::kStar, "star"},
    {GraphFamily::kCycle, "cycle"},
    {GraphFamily::kDisjointCliques, "cliques"},
    {GraphFamily::kBarabasiAlbert, "ba"},
    {GraphFamily::kWattsStrogatz, "ws"},
};

/// Families whose construction reads edge_probability.
bool uses_p(GraphFamily family) {
  return family == GraphFamily::kErdosRenyi ||
         family == GraphFamily::kWattsStrogatz;
}

/// Families whose construction reads family_param.
bool uses_family_param(GraphFamily family) {
  return family == GraphFamily::kDisjointCliques ||
         family == GraphFamily::kBarabasiAlbert ||
         family == GraphFamily::kWattsStrogatz;
}

std::string trim(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::vector<std::string> split_list(const std::string& value) {
  std::vector<std::string> items;
  std::string item;
  std::istringstream in(value);
  while (std::getline(in, item, ',')) {
    item = trim(item);
    if (!item.empty()) items.push_back(item);
  }
  return items;
}

[[noreturn]] void fail(std::size_t line, const std::string& what) {
  throw std::invalid_argument("sweep spec line " + std::to_string(line) +
                              ": " + what);
}

std::uint64_t parse_u64(const std::string& text, std::size_t line,
                        const char* key) {
  try {
    std::size_t used = 0;
    if (!text.empty() && text[0] == '-') throw std::invalid_argument("neg");
    const std::uint64_t v = std::stoull(text, &used);
    if (used != text.size()) throw std::invalid_argument("trailing");
    return v;
  } catch (const std::exception&) {
    fail(line, std::string(key) + ": expected a non-negative integer, got '" +
                   text + "'");
  }
}

double parse_dbl(const std::string& text, std::size_t line, const char* key) {
  try {
    std::size_t used = 0;
    const double v = std::stod(text, &used);
    if (used != text.size()) throw std::invalid_argument("trailing");
    if (!std::isfinite(v)) throw std::invalid_argument("non-finite");
    return v;
  } catch (const std::exception&) {
    fail(line, std::string(key) + ": expected a finite number, got '" + text +
                   "'");
  }
}

bool parse_bool(const std::string& text, std::size_t line, const char* key) {
  if (text == "true" || text == "1" || text == "yes") return true;
  if (text == "false" || text == "0" || text == "no") return false;
  fail(line, std::string(key) + ": expected true/false, got '" + text + "'");
}

template <typename T, typename Fn>
std::vector<T> parse_list(const std::string& value, std::size_t line,
                          const char* key, const Fn& one) {
  std::vector<T> out;
  for (const std::string& item : split_list(value)) {
    out.push_back(one(item, line, key));
  }
  if (out.empty()) fail(line, std::string(key) + ": empty list");
  return out;
}

}  // namespace

const char* family_token(GraphFamily family) {
  for (const auto& entry : kFamilyTokens) {
    if (entry.family == family) return entry.token;
  }
  return "?";
}

GraphFamily parse_family(const std::string& token) {
  for (const auto& entry : kFamilyTokens) {
    if (token == entry.token) return entry.family;
  }
  throw std::invalid_argument(
      "unknown graph family '" + token +
      "' (use er|complete|empty|star|cycle|cliques|ba|ws)");
}

const char* scenario_token(Scenario scenario) {
  switch (scenario) {
    case Scenario::kSso: return "sso";
    case Scenario::kCso: return "cso";
    case Scenario::kSsr: return "ssr";
    case Scenario::kCsr: return "csr";
  }
  return "?";
}

Scenario parse_scenario(const std::string& token) {
  if (token == "sso") return Scenario::kSso;
  if (token == "cso") return Scenario::kCso;
  if (token == "ssr") return Scenario::kSsr;
  if (token == "csr") return Scenario::kCsr;
  throw std::invalid_argument("unknown scenario '" + token +
                              "' (use sso|cso|ssr|csr)");
}

SweepSpec SweepSpec::parse(std::istream& in) {
  SweepSpec spec;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    line = trim(line);
    if (line.empty()) continue;
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) fail(line_no, "expected 'key = value'");
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    if (value.empty()) fail(line_no, key + ": empty value");

    const auto as_size = [&](const std::string& t, std::size_t l,
                             const char* k) {
      return static_cast<std::size_t>(parse_u64(t, l, k));
    };
    const auto as_slot = [&](const std::string& t, std::size_t l,
                             const char* k) {
      const std::uint64_t v = parse_u64(t, l, k);
      if (v == 0) fail(l, std::string(k) + ": must be positive");
      return static_cast<TimeSlot>(v);
    };

    if (key == "name") {
      spec.name = value;
    } else if (key == "scenario") {
      try {
        spec.scenario = parse_scenario(value);
      } catch (const std::invalid_argument& e) {
        fail(line_no, e.what());
      }
    } else if (key == "policies") {
      spec.policies = split_list(value);
      if (spec.policies.empty()) fail(line_no, "policies: empty list");
    } else if (key == "graphs") {
      spec.graphs.clear();
      for (const std::string& token : split_list(value)) {
        try {
          spec.graphs.push_back(parse_family(token));
        } catch (const std::invalid_argument& e) {
          fail(line_no, e.what());
        }
      }
      if (spec.graphs.empty()) fail(line_no, "graphs: empty list");
    } else if (key == "arms") {
      spec.arms = parse_list<std::size_t>(value, line_no, "arms", as_size);
    } else if (key == "p") {
      spec.edge_probabilities =
          parse_list<double>(value, line_no, "p", parse_dbl);
      for (const double p : spec.edge_probabilities) {
        if (!(p >= 0.0 && p <= 1.0)) fail(line_no, "p: outside [0, 1]");
      }
    } else if (key == "family-param" || key == "family-params") {
      spec.family_params =
          parse_list<std::size_t>(value, line_no, "family-param", as_size);
    } else if (key == "horizons" || key == "horizon") {
      spec.horizons = parse_list<TimeSlot>(value, line_no, "horizons", as_slot);
    } else if (key == "replications") {
      spec.replications = as_size(value, line_no, "replications");
      if (spec.replications == 0) fail(line_no, "replications: must be positive");
    } else if (key == "seed") {
      spec.seed = parse_u64(value, line_no, "seed");
    } else if (key == "checkpoints") {
      spec.checkpoints = as_size(value, line_no, "checkpoints");
    } else if (key == "strategy-size") {
      spec.strategy_size = as_size(value, line_no, "strategy-size");
      if (spec.strategy_size == 0) fail(line_no, "strategy-size: must be positive");
    } else if (key == "exact-size") {
      spec.exact_size_strategies = parse_bool(value, line_no, "exact-size");
    } else if (key == "shard-size") {
      spec.shard_size = as_size(value, line_no, "shard-size");
    } else {
      fail(line_no, "unknown key '" + key + "'");
    }
  }
  return spec;
}

SweepSpec SweepSpec::parse_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::invalid_argument("cannot open sweep spec '" + path + "'");
  }
  return parse(in);
}

std::vector<SweepJob> SweepSpec::expand() const {
  if (policies.empty()) {
    throw std::invalid_argument("SweepSpec: no policies");
  }
  if (graphs.empty() || arms.empty() || edge_probabilities.empty() ||
      family_params.empty() || horizons.empty()) {
    throw std::invalid_argument("SweepSpec: empty axis");
  }
  // Reject a bad policy spec, or one the scenario does not support, here,
  // before any job runs: --list, --dry-run, in-process and distributed
  // runs all expand first.
  const PolicyRegistry& registry = PolicyRegistry::instance();
  for (const std::string& policy : policies) {
    ScenarioMask supported = 0;
    try {
      supported = is_combinatorial(scenario)
                      ? registry.check_combinatorial(policy).scenarios
                      : registry.check_single_play(policy).scenarios;
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument("SweepSpec: policy '" + policy +
                                  "': " + e.what());
    }
    if (!mask_supports(supported, scenario)) {
      throw std::invalid_argument(
          "SweepSpec: policy '" + policy + "' does not support scenario " +
          scenario_name(scenario) + " (supports " +
          scenario_mask_names(supported) + ")");
    }
  }
  std::vector<SweepJob> jobs;
  for (const GraphFamily family : graphs) {
    // Collapse axes this family does not consume so the grid holds no
    // duplicate workloads.
    const std::size_t p_count = uses_p(family) ? edge_probabilities.size() : 1;
    const std::size_t fp_count =
        uses_family_param(family) ? family_params.size() : 1;
    for (const std::size_t k : arms) {
      for (std::size_t pi = 0; pi < p_count; ++pi) {
        for (std::size_t fi = 0; fi < fp_count; ++fi) {
          for (const TimeSlot horizon : horizons) {
            for (const std::string& policy : policies) {
              SweepJob job;
              job.index = jobs.size();
              job.policy = policy;
              job.scenario = scenario;
              job.config.graph_family = family;
              job.config.num_arms = k;
              job.config.horizon = horizon;
              job.config.replications = replications;
              job.config.seed = seed;
              job.config.strategy_size = strategy_size;
              job.config.exact_size_strategies = exact_size_strategies;
              std::string key = std::string(scenario_token(scenario)) + ":" +
                                policy + "@" + family_token(family) +
                                ",K=" + std::to_string(k);
              if (uses_p(family)) {
                job.config.edge_probability = edge_probabilities[pi];
                key += ",p=" + json_number(edge_probabilities[pi]);
              }
              if (uses_family_param(family)) {
                job.config.family_param = family_params[fi];
                key += ",fp=" + std::to_string(family_params[fi]);
              }
              key += ",n=" + std::to_string(horizon);
              if (is_combinatorial(scenario)) {
                key += ",M=" + std::to_string(strategy_size);
                if (exact_size_strategies) key += ",exact";
              }
              job.key = std::move(key);
              job.config.name = job.key;
              jobs.push_back(std::move(job));
            }
          }
        }
      }
    }
  }
  return jobs;
}

std::string SweepSpec::canonical() const {
  std::ostringstream out;
  out << "{\"name\":\"" << json_escape(name) << "\",\"scenario\":\""
      << scenario_token(scenario) << "\",\"policies\":[";
  for (std::size_t i = 0; i < policies.size(); ++i) {
    out << (i ? "," : "") << '"' << json_escape(policies[i]) << '"';
  }
  out << "],\"graphs\":[";
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    out << (i ? "," : "") << '"' << family_token(graphs[i]) << '"';
  }
  out << "],\"arms\":[";
  for (std::size_t i = 0; i < arms.size(); ++i) {
    out << (i ? "," : "") << arms[i];
  }
  out << "],\"p\":[";
  for (std::size_t i = 0; i < edge_probabilities.size(); ++i) {
    out << (i ? "," : "") << json_number(edge_probabilities[i]);
  }
  out << "],\"family_params\":[";
  for (std::size_t i = 0; i < family_params.size(); ++i) {
    out << (i ? "," : "") << family_params[i];
  }
  out << "],\"horizons\":[";
  for (std::size_t i = 0; i < horizons.size(); ++i) {
    out << (i ? "," : "") << horizons[i];
  }
  out << "],\"replications\":" << replications << ",\"seed\":" << seed
      << ",\"checkpoints\":" << checkpoints
      << ",\"strategy_size\":" << strategy_size << ",\"exact_size\":"
      << (exact_size_strategies ? "true" : "false")
      << ",\"shard_size\":" << shard_size << "}";
  return out.str();
}

}  // namespace ncb::exp
