#include "theory/bounds.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace ncb {
namespace {

TEST(Theorem1Bound, HandComputed) {
  // n = 10000, K = 100, C = 10:
  // 15.94·sqrt(1e6) + 0.74·10·sqrt(100) = 15940 + 74.
  EXPECT_NEAR(theorem1_bound(10000, 100, 10), 15940.0 + 74.0, 1e-9);
}

TEST(Theorem1Bound, GrowsSublinearlyInN) {
  const double r1 = theorem1_bound(10000, 100, 5);
  const double r4 = theorem1_bound(40000, 100, 5);
  // sqrt scaling: quadrupling n doubles the bound.
  EXPECT_NEAR(r4 / r1, 2.0, 1e-9);
}

TEST(Theorem1Bound, MonotoneInCliqueCover) {
  EXPECT_LT(theorem1_bound(10000, 100, 1), theorem1_bound(10000, 100, 50));
}

TEST(Theorem2Bound, SameFormOverComArms) {
  EXPECT_DOUBLE_EQ(theorem2_bound(5000, 1140, 30),
                   theorem1_bound(5000, 1140, 30));
}

TEST(MossBounds, PaperComparisonHolds) {
  // §IV: the Theorem 2 bound beats the traditional 49·sqrt(n|F|) once the
  // clique term is small relative to |F|.
  const std::int64_t n = 10000;
  const std::size_t f = 1140;
  EXPECT_LT(theorem2_bound(n, f, f / 10), moss_comarm_bound(n, f));
  EXPECT_NEAR(moss_bound(10000, 100), 49.0 * 1000.0, 1e-9);
}

TEST(Theorem3Bound, HandComputed) {
  // 49·K·sqrt(nK), K = 100, n = 10000 → 49·100·1000.
  EXPECT_NEAR(theorem3_bound(10000, 100), 49.0 * 100.0 * 1000.0, 1e-6);
}

TEST(Theorem4Bound, HandComputedSmallCase) {
  const std::int64_t n = 64;
  const std::size_t k = 4, N = 3;
  const double e = std::exp(1.0);
  const double expected = 3.0 * 4.0 +
                          (std::sqrt(e * 4.0) + 8.0 * 4.0 * 27.0) * 16.0 +
                          (1.0 + 4.0 * 2.0 * 9.0 / e) * 9.0 * 4.0 *
                              std::pow(64.0, 5.0 / 6.0);
  EXPECT_NEAR(theorem4_bound(n, k, N), expected, 1e-6);
}

TEST(Theorem4Bound, MonotoneInN) {
  EXPECT_LT(theorem4_bound(1000, 10, 4), theorem4_bound(100000, 10, 4));
}

TEST(Theorem4Bound, MonotoneInNeighborhoodSize) {
  EXPECT_LT(theorem4_bound(10000, 20, 3), theorem4_bound(10000, 20, 10));
}

}  // namespace
}  // namespace ncb
