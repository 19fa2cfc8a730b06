// Property: the incremental index cache is always exactly (bitwise, via
// double ==) equal to a from-scratch recompute.
//
// SingleIndexPolicy::select() refreshes only dirty arms plus arms whose
// plateau expired; index(i, t) is the pure from-scratch reference each
// policy must also implement. After any interleaving of selects, batched
// side observations, observe-without-select bursts, sliding-window
// evictions, non-monotone timestamps, and mid-run resets, the two must
// agree on every arm — not approximately, exactly. Any drift means a
// stale cache entry survived (wrong valid_until, missed dirty marking,
// or a hoisted expression that is not bit-identical to the reference).
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/index_policy.hpp"
#include "core/policy_registry.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace ncb {
namespace {

constexpr TimeSlot kHorizon = 200;
constexpr int kSteps = 400;

const std::vector<std::string> kIndexPolicies = {
    "dfl-sso",  "dfl-sso-greedy", "dfl-ssr", "dfl-ssr-meansum",
    "moss",     "moss-anytime",   "ucb1",    "ucb-n",
    "ucb-maxn", "kl-ucb",         "kl-ucb-n", "sw-dfl-sso",
    "d-dfl-sso"};

struct NamedGraph {
  std::string name;
  Graph graph;
};

std::vector<NamedGraph> property_graphs() {
  std::vector<NamedGraph> graphs;
  {
    Xoshiro256 gen(101);
    graphs.push_back({"er", erdos_renyi(40, 0.15, gen)});
  }
  {
    Xoshiro256 gen(102);
    graphs.push_back({"ws", watts_strogatz(40, 4, 0.2, gen)});
  }
  {
    Xoshiro256 gen(103);
    graphs.push_back({"ba", barabasi_albert(40, 3, gen)});
  }
  graphs.push_back({"star", star_graph(40)});
  return graphs;
}

// Deterministic per-cell seed so failures reproduce in isolation.
std::uint64_t fnv_seed(const std::string& a, const std::string& b) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : a + "|" + b) {
    h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    h *= 1099511628211ULL;
  }
  return h;
}

void expect_cache_matches_recompute(SingleIndexPolicy& policy, TimeSlot t,
                                    std::size_t num_arms, int step) {
  const std::vector<double>& cache = policy.cached_indices();
  ASSERT_EQ(cache.size(), num_arms);
  for (std::size_t i = 0; i < num_arms; ++i) {
    const double fresh = policy.index(static_cast<ArmId>(i), t);
    // Exact double equality on purpose (inf == inf holds): the cached
    // entry must be the same value the full recompute would produce.
    EXPECT_EQ(cache[i], fresh)
        << policy.name() << ": arm " << i << " at t=" << t << " (step "
        << step << ") cached " << cache[i] << " vs recomputed " << fresh;
  }
}

void observe_neighborhood(SinglePlayPolicy& policy, const Graph& g, ArmId arm,
                          TimeSlot t, Xoshiro256& rewards,
                          std::vector<Observation>& batch) {
  batch.clear();
  for (const ArmId j : g.closed_neighborhood(arm)) {
    batch.push_back({j, rewards.bernoulli(0.5) ? 1.0 : 0.0});
  }
  policy.observe(arm, t, ObservationSpan(batch.data(), batch.size()));
}

TEST(IndexCacheProperty, CacheEqualsFromScratchRecompute) {
  const auto graphs = property_graphs();
  for (const auto& spec : kIndexPolicies) {
    for (const auto& [gname, g] : graphs) {
      SCOPED_TRACE(spec + " on " + gname);
      const auto policy =
          PolicyRegistry::instance().make_single_play(spec, kHorizon, 7);
      auto* idx = dynamic_cast<SingleIndexPolicy*>(policy.get());
      ASSERT_NE(idx, nullptr);
      policy->reset(g);

      const std::size_t n = g.num_vertices();
      Xoshiro256 actions(9000 + fnv_seed(spec, gname));
      Xoshiro256 rewards(77);
      std::vector<Observation> batch;
      TimeSlot t = 0;
      for (int step = 0; step < kSteps; ++step) {
        const std::uint64_t roll = actions.uniform_int(100);
        if (roll < 6) {
          // Mid-run reset: the cache must rebuild from nothing.
          policy->reset(g);
          t = 0;
          continue;
        }
        if (roll < 20 && t > 0) {
          // Observe-without-select burst: dirty arms accumulate (dedup'd)
          // with no refresh until the next select.
          const ArmId arm =
              static_cast<ArmId>(actions.uniform_int(static_cast<std::uint64_t>(n)));
          observe_neighborhood(*policy, g, arm, t, rewards, batch);
          continue;
        }
        if (roll < 24 && t > 4) {
          // Non-monotone timestamp: forces the full-rebuild path.
          t = 1 + static_cast<TimeSlot>(
                      actions.uniform_int(static_cast<std::uint64_t>(t - 1)));
        } else {
          // Advance 1-3 slots so plateau expiries fire at gaps too.
          t += 1 + static_cast<TimeSlot>(actions.uniform_int(3));
        }
        const ArmId a = policy->select(t);
        ASSERT_GE(a, 0);
        ASSERT_LT(static_cast<std::size_t>(a), n);
        expect_cache_matches_recompute(*idx, t, n, step);
        observe_neighborhood(*policy, g, a, t, rewards, batch);
      }
      // Final sweep after the last observe: one more select so evictions
      // (sw-dfl-sso) and late expiries are folded in, then recheck.
      t += 1;
      (void)policy->select(t);
      expect_cache_matches_recompute(*idx, t, n, kSteps);
    }
  }
}

TEST(IndexCacheProperty, InvalidateForcesExactRebuild) {
  Xoshiro256 gen(55);
  const Graph g = erdos_renyi(30, 0.2, gen);
  for (const auto& spec : kIndexPolicies) {
    SCOPED_TRACE(spec);
    const auto policy =
        PolicyRegistry::instance().make_single_play(spec, kHorizon, 3);
    auto* idx = dynamic_cast<SingleIndexPolicy*>(policy.get());
    ASSERT_NE(idx, nullptr);
    policy->reset(g);
    Xoshiro256 rewards(5);
    std::vector<Observation> batch;
    for (TimeSlot t = 1; t <= 50; ++t) {
      const ArmId a = policy->select(t);
      batch.clear();
      for (const ArmId j : g.closed_neighborhood(a)) {
        batch.push_back({j, rewards.bernoulli(0.5) ? 1.0 : 0.0});
      }
      policy->observe(a, t, ObservationSpan(batch.data(), batch.size()));
    }
    // Invalidate (the bench hook), then re-select: full rebuild must land
    // on exactly the same values as the incremental path maintained.
    const std::vector<double> before = idx->cached_indices();
    idx->invalidate_index_cache();
    (void)policy->select(51);
    const std::vector<double> rebuilt = idx->cached_indices();
    ASSERT_EQ(before.size(), rebuilt.size());
    for (std::size_t i = 0; i < rebuilt.size(); ++i) {
      EXPECT_EQ(rebuilt[i], idx->index(static_cast<ArmId>(i), 51));
    }
  }
}

}  // namespace
}  // namespace ncb
