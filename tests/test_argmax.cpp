// Property: reservoir_argmax replays the historical per-arm select loop.
//
// The block-skipping argmax must return the same position, consume the
// same number of tie-break draws, and leave the RNG at the same point as
// the loop it replaced — on every input, not only on typical ones. The
// reference below is that loop verbatim (SingleIndexPolicy::select before
// the index cache), with a draw counter added. Inputs cover random scores,
// rising staircases (DFL-CSO's com-arm indices rise along the array),
// tie plateaus straddling block (256) and sub-block (32) edges, ±inf, NaN
// runs and ±0.0, at sizes around both edges — and, for the resolver path,
// arrays of upper bounds resolved to exact scores on demand.
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "util/argmax.hpp"
#include "util/rng.hpp"

namespace ncb {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

std::size_t historical_argmax(const std::vector<double>& scores,
                              Xoshiro256& rng_, std::uint64_t& draws) {
  const std::size_t num_arms_ = scores.size();
  ArmId best = 0;
  double best_index = -std::numeric_limits<double>::infinity();
  std::size_t ties = 0;
  for (std::size_t i = 0; i < num_arms_; ++i) {
    const double idx = scores[i];
    if (idx > best_index) {
      best_index = idx;
      best = static_cast<ArmId>(i);
      ties = 1;
    } else if (idx == best_index) {
      // Reservoir-style uniform tie-breaking.
      ++ties;
      ++draws;
      if (rng_.uniform_int(ties) == 0) best = static_cast<ArmId>(i);
    }
  }
  return static_cast<std::size_t>(best);
}

void expect_matches_historical(const std::vector<double>& scores,
                               std::uint64_t seed, const std::string& what) {
  SCOPED_TRACE(what + ", n=" + std::to_string(scores.size()) +
               ", seed=" + std::to_string(seed));
  Xoshiro256 ref_rng(seed);
  Xoshiro256 rng(seed);
  std::uint64_t ref_draws = 0;
  std::uint64_t draws = 0;
  const std::size_t expected = historical_argmax(scores, ref_rng, ref_draws);
  const std::size_t got =
      reservoir_argmax(scores.data(), scores.size(), rng, &draws);
  EXPECT_EQ(got, expected);
  EXPECT_EQ(draws, ref_draws);
  EXPECT_EQ(rng(), ref_rng());  // the RNG stands at the same point
}

const std::size_t kSizes[] = {1, 31, 32, 33, 255, 256, 257, 1350, 10000};

// Small palette so ties are common; values are exact so plateaus are real.
double palette_value(Xoshiro256& rng) {
  const double palette[] = {0.0, 0.25, 0.5, 0.75, 1.0};
  return palette[rng.uniform_int(5)];
}

TEST(ReservoirArgmax, RandomScoresMatchHistoricalLoop) {
  Xoshiro256 gen(11);
  for (const std::size_t n : kSizes) {
    for (int trial = 0; trial < 6; ++trial) {
      std::vector<double> continuous(n), ties(n);
      for (std::size_t i = 0; i < n; ++i) {
        continuous[i] = gen.uniform(0.0, 1.0);
        ties[i] = palette_value(gen);
      }
      expect_matches_historical(continuous, 100 + trial, "uniform");
      expect_matches_historical(ties, 200 + trial, "palette ties");
    }
  }
}

TEST(ReservoirArgmax, RisingStaircasesMatchHistoricalLoop) {
  Xoshiro256 gen(13);
  for (const std::size_t n : kSizes) {
    for (const std::size_t step : {1u, 3u, 32u, 100u, 256u}) {
      // Non-decreasing: every step is a new running maximum, and each
      // stair of `step` equal values is a tie run the reservoir draws on.
      std::vector<double> stairs(n), noisy(n);
      for (std::size_t i = 0; i < n; ++i) {
        stairs[i] = static_cast<double>(i / step);
        noisy[i] = 1e-6 * static_cast<double>(i) +
                   (gen.bernoulli(0.3) ? 0.0 : 1e-3);
      }
      expect_matches_historical(stairs, 300 + step, "staircase");
      expect_matches_historical(noisy, 400 + step, "noisy rise");
    }
  }
}

TEST(ReservoirArgmax, TiePlateausAcrossBlockEdgesMatchHistoricalLoop) {
  // A plateau of the maximum spanning [first, last) over a lower floor,
  // placed to straddle sub-block (32) and block (256) boundaries.
  const std::pair<std::size_t, std::size_t> plateaus[] = {
      {0, 1},     {30, 34},   {31, 33},   {0, 32},    {32, 64},
      {250, 262}, {255, 257}, {200, 520}, {0, 10000}, {1340, 1350},
      {9990, 10000}};
  for (const std::size_t n : kSizes) {
    for (const auto& [first, last] : plateaus) {
      if (first >= n) continue;
      std::vector<double> scores(n, 0.5);
      for (std::size_t i = first; i < last && i < n; ++i) scores[i] = 1.0;
      expect_matches_historical(scores, 500 + first, "plateau");
      // The same plateau with a second, equal plateau later on.
      if (last + 40 < n) {
        for (std::size_t i = last + 20; i < last + 40; ++i) scores[i] = 1.0;
        expect_matches_historical(scores, 600 + first, "two plateaus");
      }
    }
    // All equal: every element after the first draws.
    expect_matches_historical(std::vector<double>(n, 0.25), 700, "all equal");
  }
}

TEST(ReservoirArgmax, InfinitiesNaNsAndSignedZerosMatchHistoricalLoop) {
  Xoshiro256 gen(17);
  const double specials[] = {kInf, -kInf, kNaN, 0.0, -0.0, 1.0};
  for (const std::size_t n : kSizes) {
    for (int trial = 0; trial < 6; ++trial) {
      // Random mixes of the special values.
      std::vector<double> mix(n);
      for (double& s : mix) s = specials[gen.uniform_int(6)];
      expect_matches_historical(mix, 800 + trial, "special mix");
    }
    // Uniform special arrays: all +inf (every later one ties), all -inf
    // (ties with the initial -inf running max), all NaN (never wins:
    // position 0), all -0.0 vs +0.0 (equal, so ties).
    for (const double v : specials) {
      expect_matches_historical(std::vector<double>(n, v), 900, "uniform");
    }
    // NaN runs over a finite floor, ahead of and behind the maximum.
    std::vector<double> runs(n, 0.5);
    for (std::size_t i = 0; i < n; ++i) {
      if ((i / 40) % 2 == 0) runs[i] = kNaN;
    }
    expect_matches_historical(runs, 1000, "NaN runs");
    runs[n - 1] = 2.0;
    expect_matches_historical(runs, 1001, "NaN runs, max last");
    // Leading NaN then -inf: the historical loop ties -inf with its
    // initial running maximum.
    std::vector<double> lead(n, -kInf);
    for (std::size_t i = 0; i < n && i < 40; ++i) lead[i] = kNaN;
    expect_matches_historical(lead, 1100, "NaN then -inf");
    // Signed zeros alternating, then a +inf at the end.
    std::vector<double> zeros(n);
    for (std::size_t i = 0; i < n; ++i) zeros[i] = i % 2 ? 0.0 : -0.0;
    expect_matches_historical(zeros, 1200, "signed zeros");
    zeros[n - 1] = kInf;
    expect_matches_historical(zeros, 1201, "signed zeros, +inf last");
  }
}

// The resolver path: `bounds` holds upper bounds of `exact` (bounds[i] ≥
// exact[i]; any bound over a NaN), and the resolver maps a bound to its
// exact score. The result must be the historical loop's over `exact`, and
// the resolver must run exactly on the elements whose bound reaches the
// historical running maximum at that element — never on one below it.
void expect_resolved_matches_historical(const std::vector<double>& exact,
                                        const std::vector<double>& bounds,
                                        std::uint64_t seed,
                                        const std::string& what) {
  SCOPED_TRACE(what + ", n=" + std::to_string(exact.size()) +
               ", seed=" + std::to_string(seed));
  ASSERT_EQ(exact.size(), bounds.size());
  Xoshiro256 ref_rng(seed);
  Xoshiro256 rng(seed);
  std::uint64_t ref_draws = 0;
  std::uint64_t draws = 0;
  const std::size_t expected = historical_argmax(exact, ref_rng, ref_draws);
  std::vector<std::size_t> resolved;
  const std::size_t got = reservoir_argmax(
      bounds.data(), bounds.size(), rng, &draws,
      [&](std::size_t i, double bound) {
        EXPECT_FALSE(bound < bounds[i] || bound > bounds[i]) << "element " << i;
        resolved.push_back(i);
        return exact[i];
      });
  EXPECT_EQ(got, expected);
  EXPECT_EQ(draws, ref_draws);
  EXPECT_EQ(rng(), ref_rng());
  std::vector<std::size_t> reaching;
  double running = -kInf;
  for (std::size_t i = 0; i < exact.size(); ++i) {
    if (bounds[i] >= running) reaching.push_back(i);
    if (exact[i] > running) running = exact[i];
  }
  EXPECT_EQ(resolved, reaching);
}

// A bound over `exact` of a random kind: exact itself, one ulp above,
// a random margin, or +inf (a NaN gets a NaN or a finite bound).
double random_bound(double exact, Xoshiro256& gen) {
  if (exact != exact) return gen.bernoulli(0.5) ? kNaN : gen.uniform();
  switch (gen.uniform_int(4)) {
    case 0: return exact;
    case 1: return std::nextafter(exact, kInf);
    case 2: return exact + gen.uniform();
    default: return kInf;
  }
}

TEST(ReservoirArgmax, ResolverOnRandomBoundsMatchesHistoricalLoop) {
  Xoshiro256 gen(19);
  for (const std::size_t n : kSizes) {
    for (int trial = 0; trial < 6; ++trial) {
      std::vector<double> exact(n), bounds(n);
      for (std::size_t i = 0; i < n; ++i) {
        exact[i] = trial % 2 ? gen.uniform() : palette_value(gen);
        bounds[i] = random_bound(exact[i], gen);
      }
      expect_resolved_matches_historical(exact, bounds, 1300 + trial,
                                         "random bounds");
      // Bounds equal to the exact scores: every element that reaches the
      // running maximum is resolved to itself.
      expect_resolved_matches_historical(exact, exact, 1400 + trial,
                                         "exact bounds");
    }
  }
}

TEST(ReservoirArgmax, ResolverAtRunningMaximumAndTiesBehindBounds) {
  Xoshiro256 gen(23);
  for (const std::size_t n : kSizes) {
    // Bounds equal to the running maximum itself: each such element is
    // resolved (the bound reaches it) and then falls below it.
    std::vector<double> exact(n), bounds(n);
    double running = -kInf;
    for (std::size_t i = 0; i < n; ++i) {
      exact[i] = palette_value(gen);
      bounds[i] = exact[i] < running ? running : exact[i];
      if (exact[i] > running) running = exact[i];
    }
    expect_resolved_matches_historical(exact, bounds, 1500, "bound = max");
    // Exact ties behind loose bounds: every exact score equals the
    // maximum, every other bound sits far above it, so each resolution
    // is a tie that draws.
    std::vector<double> flat(n, 0.5), loose(n, 0.5);
    for (std::size_t i = 1; i < n; i += 2) loose[i] = 0.5 + gen.uniform();
    expect_resolved_matches_historical(flat, loose, 1600, "ties behind bounds");
    // One high bound early whose exact score ties a later element.
    if (n > 40) {
      std::vector<double> tie(n, 0.25), tie_bounds(n, 0.25);
      tie[3] = 0.75;
      tie_bounds[3] = 5.0;
      tie[n - 2] = 0.75;
      tie_bounds[n - 2] = 0.75;
      expect_resolved_matches_historical(tie, tie_bounds, 1700, "late tie");
    }
  }
}

TEST(ReservoirArgmax, ResolverWithInfinitiesAndNaNsMatchesHistoricalLoop) {
  Xoshiro256 gen(29);
  const double specials[] = {kInf, -kInf, kNaN, 0.0, -0.0, 1.0};
  for (const std::size_t n : kSizes) {
    for (int trial = 0; trial < 6; ++trial) {
      std::vector<double> exact(n), bounds(n);
      for (std::size_t i = 0; i < n; ++i) {
        exact[i] = specials[gen.uniform_int(6)];
        bounds[i] = random_bound(exact[i], gen);
      }
      expect_resolved_matches_historical(exact, bounds, 1800 + trial,
                                         "special mix");
    }
    // -inf scores under finite bounds tie the initial running maximum
    // only once resolved.
    std::vector<double> neg(n, -kInf), neg_bounds(n, 0.5);
    expect_resolved_matches_historical(neg, neg_bounds, 1900, "-inf");
  }
}

TEST(ReservoirArgmax, DrawCountAccumulatesIntoOutParameter) {
  const std::vector<double> scores(300, 1.0);
  Xoshiro256 rng(3);
  std::uint64_t draws = 5;
  (void)reservoir_argmax(scores.data(), scores.size(), rng, &draws);
  EXPECT_EQ(draws, 5u + 299u);
  (void)reservoir_argmax(scores.data(), scores.size(), rng);  // no counter
}

}  // namespace
}  // namespace ncb
