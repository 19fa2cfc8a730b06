#include "core/policy_registry.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace ncb {
namespace {

[[nodiscard]] std::string quoted(const std::string& text) {
  return "\"" + text + "\"";
}

[[nodiscard]] std::int64_t parse_int(const std::string& key,
                                     const std::string& text) {
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE) {
    throw std::invalid_argument("policy param " + quoted(key) +
                                ": expected an integer, got " + quoted(text));
  }
  return static_cast<std::int64_t>(v);
}

[[nodiscard]] double parse_double(const std::string& key,
                                  const std::string& text) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE) {
    throw std::invalid_argument("policy param " + quoted(key) +
                                ": expected a number, got " + quoted(text));
  }
  return v;
}

[[nodiscard]] bool parse_bool(const std::string& key,
                              const std::string& text) {
  if (text == "true" || text == "1" || text == "yes" || text == "on") {
    return true;
  }
  if (text == "false" || text == "0" || text == "no" || text == "off") {
    return false;
  }
  throw std::invalid_argument("policy param " + quoted(key) +
                              ": expected a boolean, got " + quoted(text));
}

/// Classic dynamic-programming Levenshtein distance (small strings only).
[[nodiscard]] std::size_t edit_distance(const std::string& a,
                                        const std::string& b) {
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diagonal = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t substitution =
          diagonal + (a[i - 1] == b[j - 1] ? 0 : 1);
      diagonal = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1, substitution});
    }
  }
  return row[b.size()];
}

[[nodiscard]] const ParamSpec* find_spec(const PolicyDescriptor& descriptor,
                                         const std::string& key) {
  for (const ParamSpec& spec : descriptor.params) {
    if (spec.key == key) return &spec;
  }
  return nullptr;
}

[[nodiscard]] std::string valid_keys(const PolicyDescriptor& descriptor) {
  if (descriptor.params.empty()) return "none";
  std::string out;
  for (const ParamSpec& spec : descriptor.params) {
    if (!out.empty()) out += ", ";
    out += spec.key;
  }
  return out;
}

}  // namespace

bool PolicyParams::is_auto(const std::string& key) const {
  const auto it = values_.find(key);
  return it != values_.end() && it->second == "auto";
}

double PolicyParams::get_double(const std::string& key, double fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end() || it->second == "auto") return fallback;
  return parse_double(key, it->second);
}

std::int64_t PolicyParams::get_int(const std::string& key,
                                   std::int64_t fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end() || it->second == "auto") return fallback;
  return parse_int(key, it->second);
}

bool PolicyParams::get_bool(const std::string& key, bool fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end() || it->second == "auto") return fallback;
  return parse_bool(key, it->second);
}

PolicyRegistry& PolicyRegistry::instance() {
  static PolicyRegistry registry;
  return registry;
}

void PolicyRegistry::add(PolicyDescriptor descriptor) {
  if (descriptor.name.empty()) {
    throw std::logic_error("PolicyRegistry: descriptor without a name");
  }
  if (static_cast<bool>(descriptor.make_single) ==
      static_cast<bool>(descriptor.make_combinatorial)) {
    throw std::logic_error("PolicyRegistry: " + quoted(descriptor.name) +
                           " must set exactly one builder");
  }
  const std::string name = descriptor.name;
  if (!by_name_.emplace(name, std::move(descriptor)).second) {
    throw std::logic_error("PolicyRegistry: duplicate name " + quoted(name));
  }
}

const PolicyDescriptor* PolicyRegistry::find(const std::string& name) const {
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : &it->second;
}

std::vector<const PolicyDescriptor*> PolicyRegistry::descriptors() const {
  std::vector<const PolicyDescriptor*> out;
  out.reserve(by_name_.size());
  for (const auto& [name, descriptor] : by_name_) out.push_back(&descriptor);
  return out;
}

std::vector<std::string> PolicyRegistry::single_play_names() const {
  std::vector<std::string> out;
  for (const auto& [name, descriptor] : by_name_) {
    if (!descriptor.is_combinatorial()) out.push_back(name);
  }
  return out;
}

std::vector<std::string> PolicyRegistry::combinatorial_names() const {
  std::vector<std::string> out;
  for (const auto& [name, descriptor] : by_name_) {
    if (descriptor.is_combinatorial()) out.push_back(name);
  }
  return out;
}

std::string PolicyRegistry::nearest_name(const std::string& name) const {
  std::string best;
  std::size_t best_distance = std::numeric_limits<std::size_t>::max();
  for (const auto& [candidate, descriptor] : by_name_) {
    const std::size_t d = edit_distance(name, candidate);
    if (d < best_distance) {
      best_distance = d;
      best = candidate;
    }
  }
  return best;
}

const PolicyDescriptor& PolicyRegistry::resolve(const std::string& spec,
                                                bool want_combinatorial,
                                                PolicyParams& params) const {
  const std::size_t colon = spec.find(':');
  const std::string name = spec.substr(0, colon);
  const char* kind = want_combinatorial ? "combinatorial" : "single-play";

  const PolicyDescriptor* descriptor = find(name);
  if (!descriptor) {
    std::string message =
        std::string("unknown ") + kind + " policy: " + quoted(name);
    const std::string suggestion = nearest_name(name);
    if (!suggestion.empty()) {
      message += " (did you mean " + quoted(suggestion) + "?)";
    }
    throw std::invalid_argument(message);
  }
  if (descriptor->is_combinatorial() != want_combinatorial) {
    throw std::invalid_argument(
        "policy " + quoted(name) + " is " +
        (descriptor->is_combinatorial() ? "combinatorial-play"
                                        : "single-play") +
        "; it cannot be built as a " + kind + " policy");
  }

  if (colon != std::string::npos) {
    std::istringstream in(spec.substr(colon + 1));
    std::string item;
    while (std::getline(in, item, ',')) {
      if (item.empty()) continue;
      const std::size_t eq = item.find('=');
      if (eq == std::string::npos || eq == 0) {
        throw std::invalid_argument("policy " + quoted(name) +
                                    ": malformed param " + quoted(item) +
                                    " (expected key=value)");
      }
      const std::string key = item.substr(0, eq);
      const std::string value = item.substr(eq + 1);
      const ParamSpec* param = find_spec(*descriptor, key);
      if (!param) {
        throw std::invalid_argument("policy " + quoted(name) +
                                    ": unknown param " + quoted(key) +
                                    " (valid: " + valid_keys(*descriptor) +
                                    ")");
      }
      if (!params.values_.emplace(key, value).second) {
        throw std::invalid_argument("policy " + quoted(name) +
                                    ": duplicate param " + quoted(key));
      }
      if (value == "auto") {
        if (!param->allow_auto) {
          throw std::invalid_argument("policy param " + quoted(key) +
                                      ": \"auto\" is not accepted here");
        }
        continue;
      }
      // Type-check eagerly so bad specs fail at parse time, not mid-run.
      switch (param->kind) {
        case ParamKind::kInt: (void)parse_int(key, value); break;
        case ParamKind::kDouble: (void)parse_double(key, value); break;
        case ParamKind::kBool: (void)parse_bool(key, value); break;
      }
    }
  }
  return *descriptor;
}

std::unique_ptr<SinglePlayPolicy> PolicyRegistry::make_single_play(
    const std::string& spec, TimeSlot horizon, std::uint64_t seed) const {
  PolicyParams params;
  const PolicyDescriptor& descriptor = resolve(spec, false, params);
  PolicyBuildContext context;
  context.horizon = horizon;
  context.seed = seed;
  return descriptor.make_single(params, context);
}

const PolicyDescriptor& PolicyRegistry::check_single_play(
    const std::string& spec) const {
  PolicyParams params;
  return resolve(spec, false, params);
}

std::unique_ptr<CombinatorialPolicy> PolicyRegistry::make_combinatorial(
    const std::string& spec, std::shared_ptr<const FeasibleSet> family,
    std::uint64_t seed) const {
  PolicyParams params;
  const PolicyDescriptor& descriptor = resolve(spec, true, params);
  PolicyBuildContext context;
  context.seed = seed;
  context.family = std::move(family);
  return descriptor.make_combinatorial(params, context);
}

const PolicyDescriptor& PolicyRegistry::check_combinatorial(
    const std::string& spec) const {
  PolicyParams params;
  return resolve(spec, true, params);
}

std::string PolicyRegistry::render_listing() const {
  std::ostringstream out;
  const auto render = [&out](const PolicyDescriptor& descriptor) {
    out << "  " << descriptor.name;
    for (std::size_t pad = descriptor.name.size(); pad < 20; ++pad) out << ' ';
    out << '[' << scenario_mask_names(descriptor.scenarios) << "]  "
        << descriptor.description << '\n';
    for (const ParamSpec& param : descriptor.params) {
      out << "      :" << param.key << "=<";
      switch (param.kind) {
        case ParamKind::kInt: out << "int"; break;
        case ParamKind::kDouble: out << "double"; break;
        case ParamKind::kBool: out << "bool"; break;
      }
      if (param.allow_auto) out << "|auto";
      out << ">  " << param.doc;
      if (!param.default_text.empty()) {
        out << " (default " << param.default_text << ')';
      }
      out << '\n';
    }
  };
  out << "single-play policies:\n";
  for (const PolicyDescriptor* d : descriptors()) {
    if (!d->is_combinatorial()) render(*d);
  }
  out << "combinatorial policies:\n";
  for (const PolicyDescriptor* d : descriptors()) {
    if (d->is_combinatorial()) render(*d);
  }
  out << "spec grammar: name[:key=value[,key=value]...]   e.g. "
         "\"eps-greedy:eps=0.05\"\n";
  return out.str();
}

}  // namespace ncb
