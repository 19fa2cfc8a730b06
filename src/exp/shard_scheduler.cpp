#include "exp/shard_scheduler.hpp"

#include <stdexcept>

namespace ncb::exp {

ShardPlan plan_shards(std::size_t replications, TimeSlot horizon,
                      std::size_t shard_size_override,
                      std::size_t target_slots_per_shard) {
  if (horizon <= 0) {
    throw std::invalid_argument("plan_shards: horizon must be positive");
  }
  ShardPlan plan;
  plan.replications = replications;
  if (shard_size_override > 0) {
    plan.shard_size = shard_size_override;
  } else {
    const std::size_t by_horizon =
        target_slots_per_shard / static_cast<std::size_t>(horizon);
    plan.shard_size = by_horizon == 0 ? 1 : by_horizon;
  }
  if (replications > 0 && plan.shard_size > replications) {
    plan.shard_size = replications;
  }
  return plan;
}

}  // namespace ncb::exp
