// Golden select-trace regression for the index-policy hot path.
//
// The incremental dirty-set index cache (SingleIndexPolicy) must be
// behaviorally invisible: for a fixed seed, every policy must select the
// exact same arm sequence AND consume the exact same number of tie-break
// RNG draws as the historical full-recompute scan. The expectations below
// were captured from the pre-refactor implementation (one full index
// recompute + inline reservoir argmax per slot) and must never change —
// a diff here means the cache or the block-skip argmax altered either the
// comparison results or the reservoir draw sequence.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/index_policy.hpp"
#include "core/policy_registry.hpp"
#include "env/environment.hpp"
#include "graph/generators.hpp"
#include "sim/experiment.hpp"
#include "util/rng.hpp"

namespace ncb {
namespace {

struct GoldenTrace {
  const char* policy;
  const char* graph;
  std::uint64_t draws;        // total uniform_int tie-break calls
  std::uint64_t selection_hash;  // FNV-1a over all 300 selections
  std::vector<ArmId> head;    // first 24 selections
};

// Captured from the pre-refactor build: 13 index policies x 3 graphs,
// K = 25, horizon 200, 300 slots, Bernoulli(0.5) rewards seeded per cell.
const GoldenTrace kGoldens[] = {
    {"dfl-sso", "er", 106, 15625136917296196934ULL,
     {5, 13, 18, 7, 17, 11, 4, 22, 22, 0, 7, 11,
      22, 18, 22, 22, 4, 22, 22, 22, 22, 6, 6, 0}},
    {"dfl-sso", "star", 1273, 3990970594933281696ULL,
     {5, 11, 7, 10, 4, 1, 6, 2, 23, 8, 22, 13,
      24, 15, 20, 21, 12, 14, 16, 19, 18, 9, 17, 3}},
    {"dfl-sso", "ws", 131, 4697186604737952841ULL,
     {5, 18, 24, 12, 23, 4, 18, 18, 4, 11, 24, 24,
      11, 11, 17, 18, 18, 11, 4, 4, 15, 24, 18, 18}},
    {"dfl-sso-greedy", "er", 94, 11279579946982139167ULL,
     {5, 13, 20, 16, 2, 6, 5, 5, 5, 16, 16, 16,
      3, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13}},
    {"dfl-sso-greedy", "star", 195, 6624631760003754912ULL,
     {5, 0, 16, 15, 19, 17, 20, 12, 18, 12, 11, 15,
      14, 21, 19, 16, 21, 19, 0, 21, 21, 21, 15, 15}},
    {"dfl-sso-greedy", "ws", 142, 5141797725270707638ULL,
     {5, 7, 10, 23, 18, 23, 15, 18, 18, 23, 23, 23,
      18, 18, 18, 23, 23, 18, 18, 18, 18, 10, 24, 20}},
    {"dfl-ssr", "er", 131, 11873513171556065334ULL,
     {5, 24, 4, 7, 3, 11, 8, 6, 21, 8, 21, 19,
      21, 21, 21, 21, 6, 6, 6, 6, 6, 6, 6, 6}},
    {"dfl-ssr", "star", 272, 16284298950606737687ULL,
     {5, 24, 4, 7, 1, 20, 3, 22, 13, 6, 12, 10,
      16, 2, 11, 14, 0, 0, 0, 0, 0, 0, 0, 0}},
    {"dfl-ssr", "ws", 209, 6191452348577305951ULL,
     {5, 24, 7, 11, 10, 14, 17, 19, 17, 19, 19, 7,
      9, 7, 7, 7, 7, 7, 7, 9, 9, 9, 9, 9}},
    {"dfl-ssr-meansum", "er", 119, 12312371220338669695ULL,
     {5, 24, 4, 7, 3, 11, 16, 6, 6, 13, 6, 6,
      6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6}},
    {"dfl-ssr-meansum", "star", 272, 16284298950606737687ULL,
     {5, 24, 4, 7, 1, 20, 3, 22, 13, 6, 12, 10,
      16, 2, 11, 14, 0, 0, 0, 0, 0, 0, 0, 0}},
    {"dfl-ssr-meansum", "ws", 128, 17962383397423382552ULL,
     {5, 24, 7, 11, 10, 14, 17, 19, 10, 10, 10, 10,
      10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10}},
    {"moss", "er", 1120, 9054969036191151204ULL,
     {5, 24, 4, 7, 1, 20, 3, 22, 13, 6, 12, 10,
      16, 2, 11, 14, 0, 8, 15, 23, 9, 19, 18, 21}},
    {"moss", "star", 1025, 8586567361670371476ULL,
     {5, 24, 4, 7, 1, 20, 3, 22, 13, 6, 12, 10,
      16, 2, 11, 14, 0, 8, 17, 19, 9, 18, 15, 21}},
    {"moss", "ws", 895, 6715307335250529287ULL,
     {5, 24, 4, 7, 1, 20, 3, 22, 13, 6, 12, 10,
      16, 2, 11, 14, 0, 17, 21, 18, 15, 9, 23, 19}},
    {"moss-anytime", "er", 1108, 8413983781299614173ULL,
     {5, 24, 4, 7, 1, 20, 3, 22, 13, 6, 12, 10,
      16, 2, 11, 14, 0, 8, 23, 19, 17, 18, 15, 9}},
    {"moss-anytime", "star", 1207, 16998218973698874616ULL,
     {5, 24, 4, 7, 1, 20, 3, 22, 13, 6, 12, 10,
      16, 2, 11, 14, 0, 9, 21, 19, 15, 17, 8, 18}},
    {"moss-anytime", "ws", 1219, 3738129067412886389ULL,
     {5, 24, 4, 7, 1, 20, 3, 22, 13, 6, 12, 10,
      16, 2, 11, 14, 0, 8, 18, 15, 19, 9, 23, 17}},
    {"ucb1", "er", 1755, 9903405452075667842ULL,
     {5, 24, 4, 7, 1, 20, 3, 22, 13, 6, 12, 10,
      16, 2, 11, 14, 0, 8, 15, 23, 9, 19, 21, 17}},
    {"ucb1", "star", 1546, 2917248459311623084ULL,
     {5, 24, 4, 7, 1, 20, 3, 22, 13, 6, 12, 10,
      16, 2, 11, 14, 0, 8, 18, 15, 19, 9, 17, 23}},
    {"ucb1", "ws", 1473, 11873432958548604553ULL,
     {5, 24, 4, 7, 1, 20, 3, 22, 13, 6, 12, 10,
      16, 2, 11, 14, 0, 8, 17, 19, 9, 15, 18, 21}},
    {"ucb-n", "er", 199, 12534210220346023309ULL,
     {5, 13, 18, 7, 17, 11, 4, 0, 5, 17, 17, 17,
      7, 23, 18, 13, 13, 23, 5, 7, 0, 7, 23, 17}},
    {"ucb-n", "star", 1366, 3593071706144586868ULL,
     {5, 11, 7, 10, 4, 1, 6, 2, 23, 8, 22, 13,
      24, 15, 20, 21, 12, 14, 16, 19, 18, 9, 17, 3}},
    {"ucb-n", "ws", 144, 1025311899393102975ULL,
     {5, 18, 24, 23, 13, 23, 18, 4, 11, 24, 18, 23,
      4, 24, 11, 23, 18, 4, 23, 4, 4, 11, 24, 4}},
    {"ucb-maxn", "er", 116, 5697256251007660468ULL,
     {5, 3, 13, 17, 1, 24, 15, 19, 8, 17, 17, 15,
      8, 19, 21, 13, 19, 15, 13, 15, 17, 13, 17, 13}},
    {"ucb-maxn", "star", 423, 7119602057741339944ULL,
     {5, 0, 9, 22, 11, 10, 17, 2, 7, 13, 4, 23,
      3, 8, 16, 20, 19, 7, 9, 20, 3, 16, 4, 23}},
    {"ucb-maxn", "ws", 114, 8585433191981458715ULL,
     {5, 7, 1, 20, 13, 2, 12, 0, 0, 20, 7, 12,
      20, 0, 16, 13, 0, 9, 0, 16, 20, 20, 24, 4}},
    {"kl-ucb", "er", 1007, 16378383298210177917ULL,
     {5, 24, 4, 7, 1, 20, 3, 22, 13, 6, 12, 10,
      16, 2, 11, 14, 0, 8, 21, 17, 9, 19, 15, 18}},
    {"kl-ucb", "star", 860, 15045435390681784153ULL,
     {5, 24, 4, 7, 1, 20, 3, 22, 13, 6, 12, 10,
      16, 2, 11, 14, 0, 8, 23, 19, 17, 18, 15, 9}},
    {"kl-ucb", "ws", 1057, 3365471839233018851ULL,
     {5, 24, 4, 7, 1, 20, 3, 22, 13, 6, 12, 10,
      16, 2, 11, 14, 0, 8, 15, 23, 9, 19, 17, 18}},
    {"kl-ucb-n", "er", 158, 9069687499416789077ULL,
     {5, 13, 18, 7, 17, 11, 4, 23, 10, 7, 23, 7,
      20, 11, 20, 11, 3, 16, 20, 20, 18, 18, 3, 11}},
    {"kl-ucb-n", "star", 929, 2536625247988525439ULL,
     {5, 11, 7, 10, 4, 1, 6, 2, 23, 8, 22, 13,
      24, 15, 20, 21, 12, 14, 16, 19, 18, 9, 17, 3}},
    {"kl-ucb-n", "ws", 138, 7670111143734666254ULL,
     {5, 18, 24, 12, 23, 13, 4, 23, 23, 14, 4, 4,
      4, 4, 4, 4, 6, 14, 23, 8, 8, 12, 12, 13}},
};

std::uint64_t fnv1a(const std::vector<ArmId>& xs) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const ArmId x : xs) {
    for (int b = 0; b < 4; ++b) {
      h ^= static_cast<std::uint64_t>(
          (static_cast<std::uint32_t>(x) >> (8 * b)) & 0xff);
      h *= 1099511628211ULL;
    }
  }
  return h;
}

// Policy/graph order must match the capture harness: the reward stream for
// cell (pi, gi) is seeded 1000*(pi+1)+gi.
const std::vector<std::string> kPolicies = {
    "dfl-sso",  "dfl-sso-greedy", "dfl-ssr",  "dfl-ssr-meansum",
    "moss",     "moss-anytime",   "ucb1",     "ucb-n",
    "ucb-maxn", "kl-ucb",         "kl-ucb-n"};
const std::vector<std::string> kGraphNames = {"er", "star", "ws"};

Graph make_graph(const std::string& name) {
  if (name == "er") {
    Xoshiro256 gen(11);
    return erdos_renyi(25, 0.3, gen);
  }
  if (name == "star") return star_graph(25);
  Xoshiro256 gen(13);
  return watts_strogatz(25, 4, 0.2, gen);
}

TEST(SelectGoldens, TraceMatchesPreRefactorCapture) {
  constexpr TimeSlot kHorizon = 200;
  constexpr TimeSlot kSlots = 300;
  for (const GoldenTrace& golden : kGoldens) {
    std::size_t pi = 0, gi = 0;
    while (kPolicies[pi] != golden.policy) ++pi;
    while (kGraphNames[gi] != golden.graph) ++gi;
    SCOPED_TRACE(std::string(golden.policy) + " on " + golden.graph);

    const auto policy = PolicyRegistry::instance().make_single_play(
        golden.policy, kHorizon, 123);
    auto* idx = dynamic_cast<SingleIndexPolicy*>(policy.get());
    ASSERT_NE(idx, nullptr);
    const Graph g = make_graph(golden.graph);
    policy->reset(g);

    Xoshiro256 rewards(1000 * (pi + 1) + gi);
    std::vector<Observation> batch;
    std::vector<ArmId> selections;
    selections.reserve(static_cast<std::size_t>(kSlots));
    for (TimeSlot t = 1; t <= kSlots; ++t) {
      const ArmId a = policy->select(t);
      selections.push_back(a);
      batch.clear();
      for (const ArmId j : g.closed_neighborhood(a)) {
        batch.push_back({j, rewards.bernoulli(0.5) ? 1.0 : 0.0});
      }
      policy->observe(a, t, ObservationSpan(batch.data(), batch.size()));
    }

    for (std::size_t i = 0; i < golden.head.size(); ++i) {
      EXPECT_EQ(selections[i], golden.head[i]) << "slot " << (i + 1);
    }
    EXPECT_EQ(fnv1a(selections), golden.selection_hash);
    EXPECT_EQ(idx->tie_break_draws(), golden.draws)
        << "tie-break RNG call count diverged from the full-recompute scan";
  }
}

// The grid above (K = 25, 300 slots) barely leaves the O_i = 1 plateau at
// t = K, so it pins neither the long off-plateau ("hot") regime nor
// DFL-SSR's tracked Ob_i away from its first few values. This case runs
// the sweep-single benchmark instance — K = 20, ER(0.3), Bernoulli μ from
// build_instance, seed 1 — for 20,000 slots, with the rewards drawn by an
// Environment and the played arm's closed neighborhood observed. The
// expectations were captured from the implementation before the
// register-resident reward row, the tracked Ob_i and the bound-gated lazy
// refresh, and must never change.
struct LongRunGolden {
  const char* policy;
  std::uint64_t draws;           // total uniform_int tie-break calls
  std::uint64_t selection_hash;  // FNV-1a over all 20,000 selections
  std::vector<ArmId> tail;       // last 16 selections
};

const LongRunGolden kLongRunGoldens[] = {
    {"dfl-sso", 466, 6719525923534819348ULL,
     {13, 13, 13, 13, 13, 13, 13, 16, 13, 13, 13, 13, 13, 13, 13, 13}},
    {"dfl-sso-greedy", 81, 17641961022826921947ULL,
     {13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13}},
    {"dfl-ssr", 115, 11550671771497589073ULL,
     {10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10}},
    {"dfl-ssr-meansum", 93, 8362515512670334612ULL,
     {10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10}},
    {"moss", 1112, 3083581912319800011ULL,
     {13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13}},
    {"ucb1", 4036, 11148789542633076709ULL,
     {16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16}},
};

constexpr TimeSlot kLongRunSlots = 20000;

BanditInstance benchmark_instance() {
  ExperimentConfig config;
  config.num_arms = 20;
  config.edge_probability = 0.3;
  config.seed = 1;
  return build_instance(config);
}

// Resets `policy` onto the instance's graph and runs it for kLongRunSlots
// slots against an Environment seeded `reward_seed`; returns the
// selections.
std::vector<ArmId> run_long(SinglePlayPolicy& policy,
                            const BanditInstance& instance,
                            std::uint64_t reward_seed) {
  const Graph& g = instance.graph();
  policy.reset(g);
  Environment env(instance, reward_seed);
  std::vector<Observation> batch;
  std::vector<ArmId> selections;
  selections.reserve(static_cast<std::size_t>(kLongRunSlots));
  for (TimeSlot t = 1; t <= kLongRunSlots; ++t) {
    const ArmId a = policy.select(t);
    selections.push_back(a);
    const std::vector<double>& rewards = env.advance();
    batch.clear();
    for (const ArmId j : g.closed_neighborhood(a)) {
      batch.push_back({j, rewards[static_cast<std::size_t>(j)]});
    }
    policy.observe(a, t, ObservationSpan(batch.data(), batch.size()));
  }
  return selections;
}

TEST(SelectGoldens, LongRunOnBenchmarkInstanceMatchesCapture) {
  const BanditInstance instance = benchmark_instance();
  for (std::size_t pi = 0; pi < std::size(kLongRunGoldens); ++pi) {
    const LongRunGolden& golden = kLongRunGoldens[pi];
    SCOPED_TRACE(golden.policy);
    const auto policy = PolicyRegistry::instance().make_single_play(
        golden.policy, kLongRunSlots, 123);
    auto* idx = dynamic_cast<SingleIndexPolicy*>(policy.get());
    ASSERT_NE(idx, nullptr);
    const std::vector<ArmId> selections =
        run_long(*policy, instance, 4000 + pi);
    ASSERT_EQ(golden.tail.size(), 16u);
    for (std::size_t i = 0; i < golden.tail.size(); ++i) {
      const std::size_t slot = selections.size() - golden.tail.size() + i;
      EXPECT_EQ(selections[slot], golden.tail[i]) << "slot " << (slot + 1);
    }
    EXPECT_EQ(fnv1a(selections), golden.selection_hash);
    EXPECT_EQ(idx->tie_break_draws(), golden.draws);
  }
}

// Work counters of the same runs (reward streams 4000 and 4002). Before
// the tracked Ob_i and the lazy refresh the implementation refreshed
// 330,360 (DFL-SSO) and 400,000 (DFL-SSR: every observe flooded the cache)
// arm indices and evaluated the width 170,167 and 79,230 times, with no
// bounds. Holding the whole cache through one power-of-two epoch, instead
// of each arm through its own plateau, bounds the arms whose plateau ends
// inside the epoch: DFL-SSO refreshes 229,837 → 231,448, widths
// 83,532 → 85,068, bounds 812 → 1,001; DFL-SSR refreshes 41,812 → 41,893,
// widths 20,233 → 20,249, bounds 357 unchanged. Selections and draws are
// pinned above and did not move. The counters are reset-scoped.
TEST(SelectGoldens, WorkCountersOnBenchmarkInstance) {
  const BanditInstance instance = benchmark_instance();
  struct Expected {
    const char* policy;
    std::uint64_t reward_seed;
    std::uint64_t index_refreshes;
    std::uint64_t width_evaluations;
    std::uint64_t bound_evaluations;
  };
  for (const Expected& e : {Expected{"dfl-sso", 4000, 231448, 85068, 1001},
                            Expected{"dfl-ssr", 4002, 41893, 20249, 357}}) {
    SCOPED_TRACE(e.policy);
    const auto policy = PolicyRegistry::instance().make_single_play(
        e.policy, kLongRunSlots, 123);
    auto* idx = dynamic_cast<SingleIndexPolicy*>(policy.get());
    ASSERT_NE(idx, nullptr);
    (void)run_long(*policy, instance, e.reward_seed);
    EXPECT_EQ(idx->index_refreshes(), e.index_refreshes);
    EXPECT_EQ(idx->width_evaluations(), e.width_evaluations);
    EXPECT_EQ(idx->bound_evaluations(), e.bound_evaluations);
    policy->reset(instance.graph());
    EXPECT_EQ(idx->index_refreshes(), 0u);
    EXPECT_EQ(idx->width_evaluations(), 0u);
    EXPECT_EQ(idx->bound_evaluations(), 0u);
  }
}

// Every (policy, graph) cell of the capture grid must be present above —
// a silently missing golden would let a policy regress unnoticed.
TEST(SelectGoldens, GridIsComplete) {
  EXPECT_EQ(std::size(kGoldens), kPolicies.size() * kGraphNames.size());
  for (const auto& p : kPolicies) {
    for (const auto& gname : kGraphNames) {
      bool found = false;
      for (const GoldenTrace& golden : kGoldens) {
        if (p == golden.policy && gname == golden.graph) found = true;
      }
      EXPECT_TRUE(found) << p << " on " << gname << " missing";
    }
  }
}

}  // namespace
}  // namespace ncb
