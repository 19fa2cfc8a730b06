#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>
#include <stdexcept>
#include <vector>

#include "core/policy_registry.hpp"
#include "graph/generators.hpp"
#include "sim/experiment.hpp"
#include "util/rng.hpp"

namespace ncb {
namespace {

// Every policy name the pre-registry factory recognized; all of them must
// keep resolving through the registry.
const std::vector<std::string> kLegacySingleNames{
    "dfl-sso",  "dfl-sso-greedy", "dfl-ssr",   "dfl-ssr-meansum",
    "moss",     "moss-anytime",   "ucb1",      "ucb-n",
    "ucb-maxn", "kl-ucb",         "kl-ucb-n",  "eps-greedy",
    "eps-greedy-side", "thompson", "thompson-side", "exp3",
    "exp3-set", "sw-dfl-sso",     "d-dfl-sso", "random"};

const std::vector<std::string> kLegacyCombinatorialNames{
    "dfl-cso", "dfl-cso-observable", "dfl-csr", "dfl-csr-greedy", "cucb"};

[[nodiscard]] std::string thrown_message(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(PolicyRegistry, EnumerationMatchesDescriptors) {
  const PolicyRegistry& registry = PolicyRegistry::instance();
  const auto descriptors = registry.descriptors();

  std::set<std::string> names;
  for (const PolicyDescriptor* d : descriptors) {
    EXPECT_TRUE(names.insert(d->name).second) << "duplicate " << d->name;
    EXPECT_FALSE(d->description.empty()) << d->name;
    EXPECT_NE(d->scenarios, 0) << d->name << " advertises no scenario";
    EXPECT_NE(static_cast<bool>(d->make_single),
              static_cast<bool>(d->make_combinatorial))
        << d->name << " must set exactly one builder";
    EXPECT_NE(registry.find(d->name), nullptr);
  }

  // The name lists partition the descriptor set.
  std::set<std::string> listed;
  for (const auto& n : registry.single_play_names()) {
    ASSERT_NE(registry.find(n), nullptr) << n;
    EXPECT_FALSE(registry.find(n)->is_combinatorial()) << n;
    listed.insert(n);
  }
  for (const auto& n : registry.combinatorial_names()) {
    ASSERT_NE(registry.find(n), nullptr) << n;
    EXPECT_TRUE(registry.find(n)->is_combinatorial()) << n;
    listed.insert(n);
  }
  EXPECT_EQ(listed, names);

  // All pre-registry factory names are still registered.
  for (const auto& n : kLegacySingleNames) {
    ASSERT_NE(registry.find(n), nullptr) << "legacy name lost: " << n;
    EXPECT_FALSE(registry.find(n)->is_combinatorial()) << n;
  }
  for (const auto& n : kLegacyCombinatorialNames) {
    ASSERT_NE(registry.find(n), nullptr) << "legacy name lost: " << n;
    EXPECT_TRUE(registry.find(n)->is_combinatorial()) << n;
  }
}

TEST(PolicyRegistry, EveryDescriptorBuilds) {
  const PolicyRegistry& registry = PolicyRegistry::instance();
  const Graph g = path_graph(6);
  ExperimentConfig config;
  config.num_arms = 6;
  config.strategy_size = 2;
  const auto family = build_family(config, g);

  for (const PolicyDescriptor* d : registry.descriptors()) {
    if (d->is_combinatorial()) {
      const auto policy = registry.make_combinatorial(d->name, family, 7);
      ASSERT_NE(policy, nullptr) << d->name;
      policy->reset();
      const StrategyId x = policy->select(1);
      EXPECT_GE(x, 0) << d->name;
      EXPECT_LT(static_cast<std::size_t>(x), family->size()) << d->name;
      EXPECT_NE(policy->scenarios() & kCombinatorialScenarios, 0) << d->name;
    } else {
      const auto policy = registry.make_single_play(d->name, 1000, 7);
      ASSERT_NE(policy, nullptr) << d->name;
      policy->reset(g);
      const ArmId a = policy->select(1);
      EXPECT_GE(a, 0) << d->name;
      EXPECT_LT(a, 6) << d->name;
      EXPECT_NE(policy->scenarios() & kSinglePlayScenarios, 0) << d->name;
      EXPECT_FALSE(policy->describe().empty()) << d->name;
    }
  }
}

TEST(PolicyRegistry, UnknownNameSuggestsNearest) {
  const PolicyRegistry& registry = PolicyRegistry::instance();
  const std::string msg = thrown_message(
      [&] { (void)registry.make_single_play("dfl-ss0", 100, 1); });
  EXPECT_NE(msg.find("unknown single-play policy"), std::string::npos) << msg;
  EXPECT_NE(msg.find("did you mean"), std::string::npos) << msg;
  EXPECT_NE(msg.find("dfl-sso"), std::string::npos) << msg;

  EXPECT_EQ(registry.nearest_name("ucb-nn"), "ucb-n");
  EXPECT_EQ(registry.nearest_name("thomson"), "thompson");
  EXPECT_THROW((void)registry.make_single_play("nope", 100, 1),
               std::invalid_argument);
}

TEST(PolicyRegistry, WrongKindIsExplained) {
  const PolicyRegistry& registry = PolicyRegistry::instance();
  const std::string msg = thrown_message(
      [&] { (void)registry.make_single_play("dfl-cso", 100, 1); });
  EXPECT_NE(msg.find("combinatorial"), std::string::npos) << msg;
}

TEST(PolicyRegistry, ParamSpecsRoundTripIntoDescribe) {
  const PolicyRegistry& registry = PolicyRegistry::instance();
  const auto eps = registry.make_single_play("eps-greedy:eps=0.05", 1000, 7);
  EXPECT_NE(eps->describe().find("eps=0.05"), std::string::npos)
      << eps->describe();

  const auto ucb = registry.make_single_play("ucb1:c=4", 1000, 7);
  EXPECT_NE(ucb->describe().find("c=4"), std::string::npos) << ucb->describe();

  // "auto" selects the anytime variant regardless of the run horizon.
  const auto anytime = registry.make_single_play("moss:horizon=auto", 5000, 7);
  EXPECT_EQ(anytime->name(), "MOSS-anytime");
  const auto fixed = registry.make_single_play("moss:horizon=500", 5000, 7);
  EXPECT_NE(fixed->describe().find("horizon=500"), std::string::npos)
      << fixed->describe();
  // Bare "moss" inherits the run horizon (legacy behavior).
  const auto moss = registry.make_single_play("moss", 5000, 7);
  EXPECT_NE(moss->describe().find("horizon=5000"), std::string::npos)
      << moss->describe();

  const auto sw = registry.make_single_play("sw-dfl-sso:window=250", 5000, 7);
  EXPECT_NE(sw->name().find("w=250"), std::string::npos) << sw->name();

  const auto combo = registry.make_combinatorial(
      "cucb:c=3",
      [] {
        ExperimentConfig config;
        config.num_arms = 6;
        config.strategy_size = 2;
        return build_family(config, path_graph(6));
      }(),
      7);
  EXPECT_NE(combo->describe().find("c=3"), std::string::npos)
      << combo->describe();
}

TEST(PolicyRegistry, MalformedSpecsThrow) {
  const PolicyRegistry& registry = PolicyRegistry::instance();
  // Unknown key, naming the valid ones.
  const std::string unknown_key = thrown_message([&] {
    (void)registry.make_single_play("eps-greedy:epsilon=0.5", 100, 1);
  });
  EXPECT_NE(unknown_key.find("unknown param"), std::string::npos);
  EXPECT_NE(unknown_key.find("eps"), std::string::npos);

  EXPECT_THROW((void)registry.make_single_play("ucb1:c=abc", 100, 1),
               std::invalid_argument);
  EXPECT_THROW((void)registry.make_single_play("ucb1:c=1,c=2", 100, 1),
               std::invalid_argument);
  EXPECT_THROW((void)registry.make_single_play("ucb1:c", 100, 1),
               std::invalid_argument);
  // "auto" only where the schema allows it.
  EXPECT_THROW((void)registry.make_single_play("ucb1:c=auto", 100, 1),
               std::invalid_argument);
  EXPECT_THROW(
      (void)registry.make_single_play("sw-dfl-sso:window=2.5", 100, 1),
      std::invalid_argument);
  // Well-formed "auto" accepted where allowed.
  EXPECT_NO_THROW(
      (void)registry.make_single_play("sw-dfl-sso:window=auto", 100, 1));
}

// The batched span delivery must be behaviorally identical to handing the
// same slot's pairs over one edge at a time: identical selections, hence
// identical regret trajectories, for a fixed seed. (Holds for every learner
// whose update is additive over observations and does not require the
// played arm in each chunk.)
TEST(PolicyRegistry, BatchedMatchesPerEdgeTrajectories) {
  for (const std::string name :
       {"dfl-sso", "ucb-n", "eps-greedy-side", "thompson-side", "exp3-set",
        "dfl-ssr"}) {
    Xoshiro256 graph_rng(123);
    const Graph g = erdos_renyi(12, 0.4, graph_rng);
    const auto batched =
        PolicyRegistry::instance().make_single_play(name, 300, 42);
    const auto per_edge =
        PolicyRegistry::instance().make_single_play(name, 300, 42);
    batched->reset(g);
    per_edge->reset(g);

    Xoshiro256 env_rng(99);
    std::vector<double> batched_regret, per_edge_regret;
    double batched_cum = 0.0, per_edge_cum = 0.0;
    std::vector<Observation> slot;
    for (TimeSlot t = 1; t <= 300; ++t) {
      const ArmId a = batched->select(t);
      const ArmId b = per_edge->select(t);
      ASSERT_EQ(a, b) << name << " diverged at slot " << t;

      std::vector<double> values(g.num_vertices());
      for (auto& v : values) v = env_rng.uniform();
      slot.clear();
      for (const ArmId j : g.closed_neighborhood(a)) {
        slot.push_back({j, values[static_cast<std::size_t>(j)]});
      }

      batched->observe(a, t, slot);  // one span for the whole slot
      for (const Observation& obs : slot) {
        per_edge->observe(b, t, ObservationSpan(&obs, 1));  // one per edge
      }

      const double regret = 1.0 - values[static_cast<std::size_t>(a)];
      batched_cum += regret;
      per_edge_cum += regret;
      batched_regret.push_back(batched_cum);
      per_edge_regret.push_back(per_edge_cum);
    }
    EXPECT_EQ(batched_regret, per_edge_regret) << name;
  }
}

TEST(PolicyRegistry, ListingNamesEveryPolicy) {
  const std::string listing = PolicyRegistry::instance().render_listing();
  for (const PolicyDescriptor* d : PolicyRegistry::instance().descriptors()) {
    EXPECT_NE(listing.find(d->name), std::string::npos) << d->name;
    EXPECT_NE(listing.find(d->description), std::string::npos) << d->name;
    EXPECT_NE(listing.find(scenario_mask_names(d->scenarios)),
              std::string::npos)
        << d->name;
  }
}

}  // namespace
}  // namespace ncb
