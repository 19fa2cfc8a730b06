// Self-registering policy registry: the single place policy *names* resolve.
//
// Each policy translation unit registers one PolicyDescriptor per public
// name at static-initialization time (see the PolicyRegistration statics at
// the bottom of the core/*.cpp files), carrying a doc string, the scenarios
// the learner targets, and a typed parameter schema. Spec strings of the
// form
//
//     name                       e.g.  "dfl-sso"
//     name:key=value[,key=value] e.g.  "eps-greedy:eps=0.05"
//                                      "moss:horizon=auto"
//
// parse uniformly: keys are validated against the schema, values are
// type-checked (int / double / bool; "auto" where the schema allows it),
// and unknown policy names fail with a nearest-name suggestion. New
// policies plug in by registering a descriptor — no central factory edit.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/policy.hpp"
#include "strategy/feasible_set.hpp"

namespace ncb {

/// Value kinds a policy parameter can take.
enum class ParamKind { kInt, kDouble, kBool };

/// Schema entry for one `key=value` parameter of a policy spec.
struct ParamSpec {
  std::string key;
  ParamKind kind = ParamKind::kDouble;
  std::string doc;
  /// Human-readable default shown in listings (e.g. "0.1", "run horizon").
  std::string default_text;
  /// Accept the sentinel value "auto" (resolved by the builder).
  bool allow_auto = false;
};

/// Parsed, schema-validated `key=value` pairs handed to a builder.
class PolicyParams {
 public:
  [[nodiscard]] bool has(const std::string& key) const {
    return values_.count(key) != 0;
  }
  /// True when the key was given the sentinel value "auto".
  [[nodiscard]] bool is_auto(const std::string& key) const;
  [[nodiscard]] double get_double(const std::string& key,
                                  double fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& key,
                                     std::int64_t fallback) const;
  [[nodiscard]] bool get_bool(const std::string& key, bool fallback) const;

 private:
  friend class PolicyRegistry;
  std::map<std::string, std::string> values_;
};

/// Build-time context a policy may need beyond its own parameters.
struct PolicyBuildContext {
  /// Run horizon n; 0 when unknown (anytime).
  TimeSlot horizon = 0;
  /// Replication seed for the policy's private RNG stream.
  std::uint64_t seed = 0;
  /// Feasible strategy family (combinatorial builders only).
  std::shared_ptr<const FeasibleSet> family;
};

using SinglePlayBuilder = std::function<std::unique_ptr<SinglePlayPolicy>(
    const PolicyParams&, const PolicyBuildContext&)>;
using CombinatorialBuilder =
    std::function<std::unique_ptr<CombinatorialPolicy>(
        const PolicyParams&, const PolicyBuildContext&)>;

/// Everything the registry knows about one public policy name.
struct PolicyDescriptor {
  std::string name;
  std::string description;
  ScenarioMask scenarios = 0;
  std::vector<ParamSpec> params;
  /// Exactly one of the two builders is set.
  SinglePlayBuilder make_single;
  CombinatorialBuilder make_combinatorial;

  [[nodiscard]] bool is_combinatorial() const {
    return static_cast<bool>(make_combinatorial);
  }
};

class PolicyRegistry {
 public:
  /// The process-wide registry (populated during static initialization).
  [[nodiscard]] static PolicyRegistry& instance();

  /// Registers a descriptor. Throws std::logic_error on a duplicate name or
  /// a descriptor without exactly one builder.
  void add(PolicyDescriptor descriptor);

  /// Descriptor for `name` (exact match, no params), or nullptr.
  [[nodiscard]] const PolicyDescriptor* find(const std::string& name) const;

  /// All descriptors, sorted by name.
  [[nodiscard]] std::vector<const PolicyDescriptor*> descriptors() const;

  /// Sorted names of the single-play / combinatorial policies.
  [[nodiscard]] std::vector<std::string> single_play_names() const;
  [[nodiscard]] std::vector<std::string> combinatorial_names() const;

  /// Builds a single-play policy from a spec string ("name" or
  /// "name:key=value,..."). Throws std::invalid_argument on unknown names
  /// (with a nearest-name suggestion), unknown keys, or bad values.
  [[nodiscard]] std::unique_ptr<SinglePlayPolicy> make_single_play(
      const std::string& spec, TimeSlot horizon, std::uint64_t seed) const;

  /// Validates a single-play spec string (name, parameter keys, value
  /// types) without building the policy, throwing exactly what
  /// make_single_play would. Lets batch consumers (the replay panel, sweep
  /// expansion) reject a bad spec up front instead of mid-scan. Returns the
  /// resolved descriptor.
  const PolicyDescriptor& check_single_play(const std::string& spec) const;

  /// Combinatorial counterpart; `family` is forwarded to the builder.
  [[nodiscard]] std::unique_ptr<CombinatorialPolicy> make_combinatorial(
      const std::string& spec, std::shared_ptr<const FeasibleSet> family,
      std::uint64_t seed) const;

  /// check_single_play's combinatorial counterpart: throws exactly what
  /// make_combinatorial would on a bad spec.
  const PolicyDescriptor& check_combinatorial(const std::string& spec) const;

  /// Registered name closest to `name` in edit distance ("" when empty).
  [[nodiscard]] std::string nearest_name(const std::string& name) const;

  /// Multi-line human listing (names, scenario support, descriptions,
  /// parameter schemas) for the --list-policies CLI flag.
  [[nodiscard]] std::string render_listing() const;

 private:
  const PolicyDescriptor& resolve(const std::string& spec,
                                  bool want_combinatorial,
                                  PolicyParams& params) const;

  std::map<std::string, PolicyDescriptor> by_name_;
};

/// Static-initialization helper:
///   namespace { const PolicyRegistration reg{{.name = "...", ...}}; }
struct PolicyRegistration {
  explicit PolicyRegistration(PolicyDescriptor descriptor) {
    PolicyRegistry::instance().add(std::move(descriptor));
  }
};

}  // namespace ncb
