#include "env/instance.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"

namespace ncb {
namespace {

BanditInstance make_path_instance() {
  // Path 0-1-2-3 with means 0.1, 0.8, 0.3, 0.6.
  return bernoulli_instance(path_graph(4), {0.1, 0.8, 0.3, 0.6});
}

TEST(BanditInstance, MeansExposed) {
  const auto inst = make_path_instance();
  EXPECT_EQ(inst.num_arms(), 4u);
  EXPECT_EQ(inst.means(), (std::vector<double>{0.1, 0.8, 0.3, 0.6}));
}

TEST(BanditInstance, BestArmByDirectMean) {
  const auto inst = make_path_instance();
  EXPECT_EQ(inst.best_arm(), 1);
  EXPECT_DOUBLE_EQ(inst.best_mean(), 0.8);
}

TEST(BanditInstance, SideRewardMeans) {
  const auto inst = make_path_instance();
  // u_0 = mu0+mu1 = 0.9; u_1 = mu0+mu1+mu2 = 1.2;
  // u_2 = mu1+mu2+mu3 = 1.7; u_3 = mu2+mu3 = 0.9.
  const auto& u = inst.side_reward_means();
  EXPECT_NEAR(u[0], 0.9, 1e-12);
  EXPECT_NEAR(u[1], 1.2, 1e-12);
  EXPECT_NEAR(u[2], 1.7, 1e-12);
  EXPECT_NEAR(u[3], 0.9, 1e-12);
}

TEST(BanditInstance, BestSideRewardArmDiffersFromBestArm) {
  // The paper notes the SSR optimum can differ from the SSO optimum: here
  // arm 2 has the best neighborhood although arm 1 has the best mean.
  const auto inst = make_path_instance();
  EXPECT_EQ(inst.best_side_reward_arm(), 2);
  EXPECT_NEAR(inst.best_side_reward_mean(), 1.7, 1e-12);
  EXPECT_NE(inst.best_side_reward_arm(), inst.best_arm());
}

TEST(BanditInstance, StrategyMeanIsModularSum) {
  const auto inst = make_path_instance();
  EXPECT_NEAR(inst.strategy_mean({0, 2}), 0.4, 1e-12);
  EXPECT_NEAR(inst.strategy_mean({1, 3}), 1.4, 1e-12);
}

TEST(BanditInstance, StrategySideRewardMeanIsCoverageSum) {
  const auto inst = make_path_instance();
  // σ_x is the mean summed over Y_x.
  // Y({0,2}) = {0,1,2,3} → 1.8; Y({3}) = {2,3} → 0.9.
  const Graph& g = inst.graph();
  EXPECT_NEAR(inst.strategy_mean(g.strategy_neighborhood_list({0, 2})), 1.8,
              1e-12);
  EXPECT_NEAR(inst.strategy_mean(g.strategy_neighborhood_list({3})), 0.9,
              1e-12);
}

TEST(BanditInstance, CopyIsDeep) {
  const auto inst = make_path_instance();
  BanditInstance copy = inst;
  EXPECT_EQ(copy.means(), inst.means());
  EXPECT_EQ(copy.best_arm(), inst.best_arm());
  // Arm objects are distinct clones.
  EXPECT_NE(&copy.arm(0), &inst.arm(0));
}

TEST(BanditInstance, AssignmentCopies) {
  const auto a = make_path_instance();
  auto b = bernoulli_instance(path_graph(2), {0.5, 0.5});
  b = a;
  EXPECT_EQ(b.num_arms(), 4u);
  EXPECT_EQ(b.means(), a.means());
}

TEST(BanditInstance, ValidatesConstruction) {
  std::vector<DistributionPtr> two;
  two.push_back(std::make_unique<BernoulliDist>(0.5));
  two.push_back(std::make_unique<BernoulliDist>(0.5));
  EXPECT_THROW(BanditInstance(path_graph(3), std::move(two)),
               std::invalid_argument);
  std::vector<DistributionPtr> with_null;
  with_null.push_back(nullptr);
  EXPECT_THROW(BanditInstance(path_graph(1), std::move(with_null)),
               std::invalid_argument);
}

TEST(BanditInstance, ToStringListsArms) {
  const auto text = make_path_instance().to_string();
  EXPECT_NE(text.find("K=4"), std::string::npos);
  EXPECT_NE(text.find("Bernoulli(0.8)"), std::string::npos);
}

TEST(RandomBernoulliInstance, MeansInRange) {
  Xoshiro256 rng(10);
  const auto inst = random_bernoulli_instance(empty_graph(50), rng, 0.2, 0.7);
  for (const double mu : inst.means()) {
    EXPECT_GE(mu, 0.2);
    EXPECT_LT(mu, 0.7);
  }
}

TEST(RandomBernoulliInstance, DeterministicGivenRng) {
  Xoshiro256 a(10), b(10);
  const auto ia = random_bernoulli_instance(path_graph(10), a);
  const auto ib = random_bernoulli_instance(path_graph(10), b);
  EXPECT_EQ(ia.means(), ib.means());
}

TEST(RandomBetaInstance, MeansInOpenInterval) {
  Xoshiro256 rng(11);
  const auto inst = random_beta_instance(empty_graph(30), rng);
  for (const double mu : inst.means()) {
    EXPECT_GT(mu, 0.0);
    EXPECT_LT(mu, 1.0);
  }
}

TEST(BanditInstance, TieBreaksTowardSmallestId) {
  const auto inst = bernoulli_instance(empty_graph(3), {0.5, 0.5, 0.2});
  EXPECT_EQ(inst.best_arm(), 0);
}

}  // namespace
}  // namespace ncb
