#include "sim/analysis.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <sstream>
#include <stdexcept>

namespace ncb {

std::string RegretDecomposition::to_string(std::size_t top_k) const {
  std::ostringstream out;
  out << "arm,gap,plays,contribution\n";
  for (std::size_t i = 0; i < rows.size() && i < top_k; ++i) {
    out << rows[i].arm << ',' << rows[i].gap << ',' << rows[i].plays << ','
        << rows[i].contribution << '\n';
  }
  out << "total pseudo-regret: " << total << '\n';
  return out.str();
}

RegretDecomposition decompose_single_play(const RunResult& result,
                                          const BanditInstance& instance) {
  if (result.play_counts.size() != instance.num_arms()) {
    throw std::invalid_argument("decompose_single_play: size mismatch");
  }
  const bool side = result.scenario == Scenario::kSsr;
  const auto& values = side ? instance.side_reward_means() : instance.means();
  const double best = side ? instance.best_side_reward_mean()
                           : instance.best_mean();
  RegretDecomposition out;
  for (std::size_t i = 0; i < values.size(); ++i) {
    ArmRegretRow row;
    row.arm = static_cast<ArmId>(i);
    row.gap = best - values[i];
    row.plays = result.play_counts[i];
    row.contribution = row.gap * static_cast<double>(row.plays);
    out.total += row.contribution;
    out.rows.push_back(row);
  }
  std::sort(out.rows.begin(), out.rows.end(),
            [](const ArmRegretRow& a, const ArmRegretRow& b) {
              return a.contribution > b.contribution;
            });
  return out;
}

RegretDecomposition decompose_combinatorial(const RunResult& result,
                                            const BanditInstance& instance,
                                            const FeasibleSet& family,
                                            Scenario scenario) {
  if (!is_combinatorial(scenario)) {
    throw std::invalid_argument(
        "decompose_combinatorial: combinatorial scenario required");
  }
  if (result.play_counts.size() != instance.num_arms()) {
    throw std::invalid_argument("decompose_combinatorial: size mismatch");
  }
  // Arm-level attribution: the best strategy's arms have gap 0; any other
  // arm i is charged the smallest strategy gap among strategies containing
  // i, normalized by strategy size. This mirrors the T̃ counters of the
  // Theorem 4 proof (each suboptimal play increments exactly one arm).
  const StrategyId best = optimal_strategy(instance, scenario, family);
  const double opt =
      instance.strategy_mean(payout_arms(family, scenario, best));
  std::vector<double> min_gap(instance.num_arms(),
                              std::numeric_limits<double>::infinity());
  for (StrategyId x = 0; x < static_cast<StrategyId>(family.size()); ++x) {
    const auto& arms = family.strategy(x);
    const double value =
        instance.strategy_mean(payout_arms(family, scenario, x));
    const double gap = (opt - value) / static_cast<double>(arms.size());
    for (const ArmId i : arms) {
      min_gap[static_cast<std::size_t>(i)] =
          std::min(min_gap[static_cast<std::size_t>(i)], gap);
    }
  }
  RegretDecomposition out;
  for (std::size_t i = 0; i < instance.num_arms(); ++i) {
    ArmRegretRow row;
    row.arm = static_cast<ArmId>(i);
    row.gap = std::isfinite(min_gap[i]) ? min_gap[i] : 0.0;
    row.plays = result.play_counts[i];
    row.contribution = row.gap * static_cast<double>(row.plays);
    out.total += row.contribution;
    out.rows.push_back(row);
  }
  std::sort(out.rows.begin(), out.rows.end(),
            [](const ArmRegretRow& a, const ArmRegretRow& b) {
              return a.contribution > b.contribution;
            });
  return out;
}

}  // namespace ncb
