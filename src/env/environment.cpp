#include "env/environment.hpp"

namespace ncb {

Environment::Environment(BanditInstance instance, std::uint64_t seed)
    : Environment(std::make_shared<const BanditInstance>(std::move(instance)),
                  seed) {}

Environment::Environment(std::shared_ptr<const BanditInstance> instance,
                         std::uint64_t seed)
    : instance_(std::move(instance)),
      rng_(seed),
      rewards_(instance_->num_arms(), 0.0) {}

const std::vector<double>& Environment::advance() {
  for (std::size_t i = 0; i < rewards_.size(); ++i) {
    rewards_[i] = instance_->arm(static_cast<ArmId>(i)).sample(rng_);
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
