// Property: the incremental index cache is always exactly (bitwise, via
// double ==) equal to a from-scratch recompute.
//
// SingleIndexPolicy::select() rebuilds every arm once the slot passes the
// one slot the whole cache holds through (hold_through()), and otherwise
// refreshes only the dirty arms; bounded entries are resolved on read.
// index(i, t) is the pure from-scratch reference each policy must also
// implement. After any interleaving of selects, batched side observations,
// observe-without-select bursts, non-monotone timestamps, epoch edges,
// multi-epoch jumps and mid-run resets, the two must agree on every arm —
// not approximately, exactly. Any drift means a stale cache entry survived
// (a wrong hold_through() or exactness test, missed dirty marking, a stale
// per-count width memo, or a hoisted expression that is not bit-identical
// to the reference).
#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/dfl_sso.hpp"
#include "core/index_policy.hpp"
#include "core/policy_registry.hpp"
#include "graph/generators.hpp"
#include "strategy/feasible_set.hpp"
#include "util/argmax.hpp"
#include "util/rng.hpp"

namespace ncb {
namespace {

constexpr TimeSlot kHorizon = 200;
constexpr int kSteps = 400;

// dfl-sso:eta=0 is exact at every slot (no bounds); dfl-sso:eta=-0.5
// caches its non-increasing off-plateau values as bounds.
const std::vector<std::string> kIndexPolicies = {
    "dfl-sso",         "dfl-sso:eta=0.5", "dfl-sso:eta=0",
    "dfl-sso:eta=-0.5", "dfl-sso-greedy", "dfl-ssr",
    "dfl-ssr-meansum", "moss",            "moss-anytime",
    "ucb1",            "ucb-n",           "ucb-maxn",
    "kl-ucb",          "kl-ucb-n"};

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
          // Advance 1-3 slots so epoch ends fall between selects too.
          t += 1 + static_cast<TimeSlot>(actions.uniform_int(3));
        }
        const ArmId a = policy->select(t);
        ASSERT_GE(a, 0);
        ASSERT_LT(static_cast<std::size_t>(a), n);
        expect_cache_matches_recompute(*idx, t, n, step);
        observe_neighborhood(*policy, g, a, t, rewards, batch);
      }
      // Final sweep after the last observe: one more select so late
      // observations are folded in, then recheck.
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

// DFL-CSO's regime: DFL-SSO on a strategy graph SG, run past t = 2|F| so
// com-arms with O_x = 1 and 2 have left their plateaus and are refreshed
// every slot through the per-count width memo.
TEST(IndexCacheProperty, StrategyGraphPastTwicePlateauEqualsRecompute) {
  Xoshiro256 gen(61);
  const FeasibleSet family = make_subset_family(
      std::make_shared<const Graph>(erdos_renyi(12, 0.3, gen)), 2);
  const Graph& sg = family.strategy_graph();
  const std::size_t n = sg.num_vertices();
  const auto last = static_cast<TimeSlot>(2 * n + 50);
  DflSso policy(DflSsoOptions{.seed = 8});
  policy.reset(sg);
  Xoshiro256 rewards(19);
  std::vector<Observation> batch;
  for (TimeSlot t = 1; t <= last; ++t) {
    const ArmId x = policy.select(t);
    expect_cache_matches_recompute(policy, t, n, static_cast<int>(t));
    observe_neighborhood(policy, sg, x, t, rewards, batch);
  }
  // The memo was used off the plateau, and far fewer times than once per
  // off-plateau refresh (at most one evaluation per count per slot).
  EXPECT_GT(policy.width_evaluations(), 0u);
  EXPECT_LT(policy.width_evaluations(), static_cast<std::uint64_t>(last));
}

// The lazy off-plateau regime over many bound horizons: slots advance by
// 1 (bounds reused within a horizon) or by up to 16K (horizons and
// plateaus expire between selects), so t outgrows the counts until
// t > 4K·max O — every arm off its plateau by a factor of four, its
// cached entry a bound resolved only when it reaches the argmax's running
// maximum. cached_indices() must equal index() at every step.
TEST(IndexCacheProperty, FarPastPlateauEqualsRecompute) {
  Xoshiro256 gen(81);
  const Graph g = erdos_renyi(30, 0.2, gen);
  const std::size_t n = g.num_vertices();
  for (const std::string spec : {"dfl-sso", "dfl-sso:eta=0.5", "dfl-ssr"}) {
    SCOPED_TRACE(spec);
    const auto policy =
        PolicyRegistry::instance().make_single_play(spec, kHorizon, 9);
    auto* idx = dynamic_cast<SingleIndexPolicy*>(policy.get());
    ASSERT_NE(idx, nullptr);
    policy->reset(g);
    Xoshiro256 actions(83);
    Xoshiro256 rewards(85);
    std::vector<Observation> batch;
    std::vector<std::int64_t> counts(n, 0);
    std::int64_t max_count = 0;
    TimeSlot t = 0;
    int step = 0;
    for (; step < 20000; ++step) {
      t += actions.bernoulli(0.5)
               ? 1
               : 1 + static_cast<TimeSlot>(actions.uniform_int(16 * n));
      const ArmId a = policy->select(t);
      expect_cache_matches_recompute(*idx, t, n, step);
      observe_neighborhood(*policy, g, a, t, rewards, batch);
      for (const Observation& obs : batch) {
        const auto k = static_cast<std::size_t>(obs.arm);
        max_count = std::max(max_count, ++counts[k]);
      }
      if (step > 2000 && t > 4 * static_cast<TimeSlot>(n) * max_count) break;
    }
    ASSERT_LT(step, 20000) << "t never passed 4K·max O";
    // Bounds were taken and resolved, and many selects skipped a refresh.
    EXPECT_GT(idx->bound_evaluations(), 0u);
    EXPECT_LT(idx->index_refreshes(), static_cast<std::uint64_t>(step) * n);
  }
}

// The slot schedules of ScheduledSelectsEqualExactReference.
// Epoch edges: t = 2^k − 1 (an epoch's last slot), 2^k (a rebuild) and
// 2^k + 1 (the first incremental select of the new epoch).
std::vector<TimeSlot> epoch_edge_slots() {
  std::vector<TimeSlot> slots;
  for (int k = 1; k <= 16; ++k) {
    const TimeSlot edge = TimeSlot{1} << k;
    slots.insert(slots.end(), {edge - 1, edge, edge + 1});
  }
  return slots;
}

// Every slot up to 200, then five jumps of two to six epochs in one step,
// each followed by three consecutive slots.
std::vector<TimeSlot> multi_epoch_jump_slots() {
  std::vector<TimeSlot> slots;
  for (TimeSlot t = 1; t <= 200; ++t) slots.push_back(t);
  Xoshiro256 actions(97);
  TimeSlot t = 200;
  for (int jump = 0; jump < 5; ++jump) {
    t <<= 2 + static_cast<int>(actions.uniform_int(5));
    for (int i = 0; i < 3; ++i) slots.push_back(t++);
  }
  return slots;
}

// A random mix of 1–3-slot steps, epoch-end slots, multi-epoch jumps and
// slots behind the last one.
std::vector<TimeSlot> mixed_slots() {
  std::vector<TimeSlot> slots;
  Xoshiro256 actions(89);
  TimeSlot t = 0;
  int jumps = 0;
  for (int step = 0; step < 1500; ++step) {
    const std::uint64_t roll = actions.uniform_int(100);
    if (roll < 10) {
      TimeSlot edge = 1;
      while (edge <= t) edge <<= 1;
      t = edge - 1;
    } else if (roll < 13 && t > 0 && jumps < 8) {
      t <<= 2 + static_cast<int>(actions.uniform_int(3));
      ++jumps;
    } else if (roll < 16 && t > 4) {
      t = 1 + static_cast<TimeSlot>(
                  actions.uniform_int(static_cast<std::uint64_t>(t - 1)));
    } else {
      t += 1 + static_cast<TimeSlot>(actions.uniform_int(3));
    }
    slots.push_back(t);
  }
  return slots;
}

// At every select of each schedule, cached_indices() must equal index(),
// and the select must consume the tie-break draws — and, for policies
// without a refinement, pick the arm — of the historical loop over the
// exact index() values run with the same seeded RNG. cached_indices()
// resolves every bounded entry, so only the second check sees a bound
// that sits below the exact value: the argmax skips a winner.
TEST(IndexCacheProperty, ScheduledSelectsEqualExactReference) {
  constexpr std::uint64_t kSeed = 13;
  Xoshiro256 gen(87);
  const Graph g = erdos_renyi(30, 0.2, gen);
  const std::size_t n = g.num_vertices();
  const std::vector<std::pair<std::string, std::vector<TimeSlot>>>
      schedules = {{"epoch edges", epoch_edge_slots()},
                   {"multi-epoch jumps", multi_epoch_jump_slots()},
                   {"mixed", mixed_slots()}};
  for (const auto& [schedule, slots] : schedules) {
    for (const auto& spec : kIndexPolicies) {
      SCOPED_TRACE(spec + " over " + schedule);
      // The greedy and MaxN refinements remap the argmax arm.
      const bool refines = spec.find("greedy") != std::string::npos ||
                           spec.find("maxn") != std::string::npos;
      const auto policy =
          PolicyRegistry::instance().make_single_play(spec, kHorizon, kSeed);
      auto* idx = dynamic_cast<SingleIndexPolicy*>(policy.get());
      ASSERT_NE(idx, nullptr);
      policy->reset(g);
      Xoshiro256 mirror(kSeed);
      std::uint64_t draws = 0;
      Xoshiro256 rewards(91);
      std::vector<Observation> batch;
      std::vector<double> exact(n);
      for (std::size_t step = 0; step < slots.size(); ++step) {
        const TimeSlot t = slots[step];
        for (std::size_t i = 0; i < n; ++i) {
          exact[i] = idx->index(static_cast<ArmId>(i), t);
        }
        const std::size_t want =
            reservoir_argmax(exact.data(), n, mirror, &draws);
        const ArmId a = policy->select(t);
        expect_cache_matches_recompute(*idx, t, n, static_cast<int>(step));
        ASSERT_EQ(idx->tie_break_draws(), draws) << "t=" << t;
        if (!refines) {
          ASSERT_EQ(static_cast<std::size_t>(a), want) << "t=" << t;
        }
        observe_neighborhood(*policy, g, a, t, rewards, batch);
      }
    }
  }
}

// reset() onto a graph with another K must leave nothing of the first
// run: a bound memo entry is keyed by (count, horizon T) and its width
// also depends on K, so a stale entry would bound the K = 25 arms with
// K = 40 widths — too low, a skipped winner. Run to slot 300 on K = 40
// (bounds for T = 512), reset onto K = 25 and run slots 300..900 beside a
// policy that never saw K = 40: selections, draws and every work counter
// must agree.
TEST(IndexCacheProperty, ResetOntoOtherArmCountMatchesFreshPolicy) {
  constexpr TimeSlot kT = 300;
  Xoshiro256 gen(71);
  const Graph first = erdos_renyi(40, 0.1, gen);
  const Graph second = erdos_renyi(25, 0.1, gen);
  for (const std::string spec :
       {"dfl-sso", "dfl-sso:eta=0.5", "moss-anytime", "dfl-ssr"}) {
    SCOPED_TRACE(spec);
    const auto reused =
        PolicyRegistry::instance().make_single_play(spec, kHorizon, 4);
    const auto fresh =
        PolicyRegistry::instance().make_single_play(spec, kHorizon, 4);
    auto* a = dynamic_cast<SingleIndexPolicy*>(reused.get());
    auto* b = dynamic_cast<SingleIndexPolicy*>(fresh.get());
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    reused->reset(first);
    Xoshiro256 warm(23);
    std::vector<Observation> batch;
    for (TimeSlot t = 1; t < kT; ++t) {
      observe_neighborhood(*reused, first, reused->select(t), t, warm, batch);
    }
    reused->reset(second);
    fresh->reset(second);
    Xoshiro256 ra(29), rb(29);
    for (TimeSlot t = kT; t <= 3 * kT; ++t) {
      const ArmId x = reused->select(t);
      ASSERT_EQ(x, fresh->select(t)) << "slot " << t;
      observe_neighborhood(*reused, second, x, t, ra, batch);
      observe_neighborhood(*fresh, second, x, t, rb, batch);
    }
    EXPECT_EQ(a->tie_break_draws(), b->tie_break_draws());
    EXPECT_EQ(a->index_refreshes(), b->index_refreshes());
    EXPECT_EQ(a->width_evaluations(), b->width_evaluations());
    EXPECT_EQ(a->bound_evaluations(), b->bound_evaluations());
  }
}

// reset() onto a graph with another K must clear the width memo: a memo
// entry is keyed by (count, slot), and its width also depends on K. Run
// to slot T on K = 40 (leaving entries for slot T), reset onto K = 25,
// observe without selecting, then select at the same slot T.
TEST(IndexCacheProperty, ResetOntoOtherArmCountClearsWidthMemo) {
  constexpr TimeSlot kT = 300;
  Xoshiro256 gen(71);
  const Graph first = erdos_renyi(40, 0.1, gen);
  const Graph second = erdos_renyi(25, 0.1, gen);
  for (const std::string spec :
       {"dfl-sso", "dfl-sso:eta=0.5", "moss-anytime", "dfl-ssr"}) {
    SCOPED_TRACE(spec);
    const auto policy =
        PolicyRegistry::instance().make_single_play(spec, kHorizon, 4);
    auto* idx = dynamic_cast<SingleIndexPolicy*>(policy.get());
    ASSERT_NE(idx, nullptr);
    policy->reset(first);
    Xoshiro256 rewards(23);
    std::vector<Observation> batch;
    for (TimeSlot t = 1; t < kT; ++t) {
      observe_neighborhood(*policy, first, policy->select(t), t, rewards,
                           batch);
    }
    const std::uint64_t before = idx->width_evaluations();
    (void)policy->select(kT);
    ASSERT_GT(idx->width_evaluations(), before) << "no memo entry at slot T";

    policy->reset(second);
    EXPECT_EQ(idx->width_evaluations(), 0u);
    for (int round = 0; round < 2; ++round) {
      for (ArmId a = 0; a < static_cast<ArmId>(second.num_vertices()); ++a) {
        observe_neighborhood(*policy, second, a, kT, rewards, batch);
      }
    }
    (void)policy->select(kT);
    expect_cache_matches_recompute(*idx, kT, second.num_vertices(), 0);
    EXPECT_GT(idx->width_evaluations(), 0u);
  }
}

}  // namespace
}  // namespace ncb
