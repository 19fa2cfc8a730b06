#include "env/environment.hpp"

#include <cmath>

namespace ncb {
namespace {

/// ceil(p·2^53) per arm when every arm is Bernoulli(p) with 0 < p < 1, else
/// empty. p·2^53 is exact (a power-of-two scaling), and for an integer
/// u = x >> 11 < 2^53, u·2^-53 < p ⟺ u < ceil(p·2^53).
std::vector<std::uint64_t> bernoulli_thresholds(const BanditInstance& inst) {
  std::vector<std::uint64_t> thresholds;
  thresholds.reserve(inst.num_arms());
  for (std::size_t i = 0; i < inst.num_arms(); ++i) {
    const auto* arm =
        dynamic_cast<const BernoulliDist*>(&inst.arm(static_cast<ArmId>(i)));
    if (arm == nullptr) return {};
    const double p = arm->mean();
    if (!(p > 0.0 && p < 1.0)) return {};
    thresholds.push_back(
        static_cast<std::uint64_t>(std::ceil(std::ldexp(p, 53))));
  }
  return thresholds;
}

}  // namespace

Environment::Environment(BanditInstance instance, std::uint64_t seed)
    : Environment(std::make_shared<const BanditInstance>(std::move(instance)),
                  seed) {}

Environment::Environment(std::shared_ptr<const BanditInstance> instance,
                         std::uint64_t seed)
    : instance_(std::move(instance)),
      rng_(seed),
      bernoulli_thresholds_(bernoulli_thresholds(*instance_)),
      rewards_(instance_->num_arms(), 0.0) {}

const std::vector<double>& Environment::advance() {
  if (!bernoulli_thresholds_.empty()) {
    Xoshiro256 rng = rng_;
    const std::uint64_t* thresholds = bernoulli_thresholds_.data();
    double* row = rewards_.data();
    const std::size_t k = rewards_.size();
    for (std::size_t i = 0; i < k; ++i) {
      // u < threshold iff u − threshold wraps below zero (both are at most
      // 2^53), read off the sign bit: no branch on a coin flip the
      // predictor cannot learn.
      const std::uint64_t u = rng() >> 11;
      row[i] = static_cast<double>((u - thresholds[i]) >> 63);
    }
    rng_ = rng;
  } else {
    for (std::size_t i = 0; i < rewards_.size(); ++i) {
      rewards_[i] = instance_->arm(static_cast<ArmId>(i)).sample(rng_);
    }
  }
  ++slot_;
  return rewards_;
}

double Environment::strategy_reward(const ArmSet& arms) const {
  double total = 0.0;
  for (const ArmId i : arms) total += rewards_.at(static_cast<std::size_t>(i));
  return total;
}

double Environment::side_reward(ArmId arm) const {
  double total = 0.0;
  for (const ArmId j : graph().closed_neighborhood(arm)) {
    total += rewards_[static_cast<std::size_t>(j)];
  }
  return total;
}

}  // namespace ncb
