#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cmath>
#include <set>
#include <vector>

namespace ncb {
namespace {

TEST(SplitMix64, DeterministicSequence) {
  SplitMix64 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, DifferentSeedsDiffer) {
  SplitMix64 a(1), b(2);
  EXPECT_NE(a.next(), b.next());
}

TEST(Xoshiro256, DeterministicGivenSeed) {
  Xoshiro256 a(7), b(7);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Xoshiro256, DifferentSeedsProduceDifferentStreams) {
  Xoshiro256 a(1), b(2);
  int agree = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++agree;
  }
  EXPECT_EQ(agree, 0);
}

TEST(Xoshiro256, UniformInUnitInterval) {
  Xoshiro256 rng(123);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Xoshiro256, UniformMeanCloseToHalf) {
  Xoshiro256 rng(99);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Xoshiro256, UniformRangeRespectsBounds) {
  Xoshiro256 rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(0.25, 0.75);
    EXPECT_GE(u, 0.25);
    EXPECT_LT(u, 0.75);
  }
}

TEST(Xoshiro256, UniformIntCoversAllResidues) {
  Xoshiro256 rng(17);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.uniform_int(10));
  EXPECT_EQ(seen.size(), 10u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 9u);
}

TEST(Xoshiro256, UniformIntUnbiasedFrequency) {
  Xoshiro256 rng(23);
  std::vector<int> counts(7, 0);
  const int n = 70000;
  for (int i = 0; i < n; ++i) ++counts[rng.uniform_int(7)];
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / n, 1.0 / 7.0, 0.01);
  }
}

TEST(Xoshiro256, BernoulliEdgeProbabilities) {
  Xoshiro256 rng(31);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

// Exact outputs of uniform(), uniform(lo, hi) and bernoulli() for a fixed
// seed, captured before those members moved inline into the header.
TEST(Xoshiro256, UniformAndBernoulliOutputsArePinned) {
  Xoshiro256 rng(2024);
  const double uniforms[] = {0x1.0c824a7f1fdbp-1, 0x1.2dfbbb18abd9ap-2,
                             0x1.f2caff4e7ba34p-3, 0x1.afc6a90c0d19p-2};
  for (const double u : uniforms) EXPECT_EQ(rng.uniform(), u);
  const double ranged[] = {0x1.3f8964d6922c1p-1, 0x1.4eecac21bb20cp-1,
                           0x1.7a80bc903817ap-1, 0x1.29b7d31dc2646p-1};
  for (const double u : ranged) EXPECT_EQ(rng.uniform(0.25, 0.75), u);
  // p = 0 and p = 1 consume no draw; the others one each.
  const double ps[] = {0.3, 0.0, 1.0, 0.7, 1e-300, 0.5};
  std::uint64_t bits = 0;
  for (int i = 0; i < 64; ++i) {
    bits |= std::uint64_t{rng.bernoulli(ps[i % 6])} << i;
  }
  EXPECT_EQ(bits, 15081909468368257805ULL);
  EXPECT_EQ(rng(), 10046730770019689341ULL);
}

TEST(Xoshiro256, BernoulliFrequencyMatchesP) {
  Xoshiro256 rng(37);
  const double p = 0.3;
  int successes = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) successes += rng.bernoulli(p) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(successes) / n, p, 0.01);
}

TEST(Xoshiro256, GaussianMoments) {
  Xoshiro256 rng(41);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.gaussian();
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(Xoshiro256, GaussianShiftScale) {
  Xoshiro256 rng(43);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.gaussian(3.0, 0.5);
  EXPECT_NEAR(sum / n, 3.0, 0.02);
}

TEST(Xoshiro256, GammaMeanEqualsShape) {
  Xoshiro256 rng(47);
  for (const double shape : {0.5, 1.0, 2.5, 7.0}) {
    double sum = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) sum += rng.gamma(shape);
    EXPECT_NEAR(sum / n, shape, 0.08 * shape + 0.02) << "shape=" << shape;
  }
}

TEST(Xoshiro256, BetaMeanAndSupport) {
  Xoshiro256 rng(53);
  const double a = 2.0, b = 5.0;
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.beta(a, b);
    EXPECT_GE(x, 0.0);
    EXPECT_LE(x, 1.0);
    sum += x;
  }
  EXPECT_NEAR(sum / n, a / (a + b), 0.01);
}

TEST(Xoshiro256, LongJumpDecorrelates) {
  Xoshiro256 a(11);
  Xoshiro256 b(11);
  b.long_jump();
  int agree = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++agree;
  }
  EXPECT_EQ(agree, 0);
}

std::vector<std::uint64_t> seed_prefix(std::uint64_t master, std::size_t n) {
  std::vector<std::uint64_t> seeds(n);
  for (std::size_t i = 0; i < n; ++i) seeds[i] = derive_seed_at(master, i);
  return seeds;
}

TEST(DeriveSeeds, CountAndUniqueness) {
  const auto seeds = seed_prefix(2024, 256);
  const std::set<std::uint64_t> unique(seeds.begin(), seeds.end());
  EXPECT_EQ(unique.size(), 256u);
}

TEST(DeriveSeeds, Deterministic) {
  EXPECT_EQ(seed_prefix(7, 10), seed_prefix(7, 10));
  EXPECT_NE(seed_prefix(7, 10), seed_prefix(8, 10));
}

// The counter-based access must reproduce the sequential SplitMix64 stream
// exactly — this pins sharded and unsharded drivers to identical
// per-replication seeds.
TEST(DeriveSeedAt, MatchesSequentialStream) {
  for (const std::uint64_t master : {0ull, 7ull, 20170605ull, ~0ull}) {
    SplitMix64 mixer(master);
    for (std::size_t i = 0; i < 300; ++i) {
      EXPECT_EQ(derive_seed_at(master, i), mixer.next()) << master << "/" << i;
    }
  }
}

TEST(Shuffle, ProducesPermutation) {
  Xoshiro256 rng(3);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto shuffled = v;
  shuffle(shuffled, rng);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(Shuffle, ActuallyPermutes) {
  Xoshiro256 rng(3);
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) v[static_cast<std::size_t>(i)] = i;
  auto shuffled = v;
  shuffle(shuffled, rng);
  EXPECT_NE(shuffled, v);
}

// Property sweep: uniform_int(n) stays within range for many n.
class UniformIntRange : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(UniformIntRange, StaysInRange) {
  Xoshiro256 rng(GetParam());
  for (const std::uint64_t n : {1ull, 2ull, 3ull, 10ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.uniform_int(n), n);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, UniformIntRange,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace ncb
