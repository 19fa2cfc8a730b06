#include "core/cucb.hpp"

#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "core/policy_registry.hpp"
#include "strategy/oracle.hpp"

namespace ncb {

Cucb::Cucb(std::shared_ptr<const FeasibleSet> family, CucbOptions options)
    : family_(std::move(family)), options_(options), rng_(options.seed) {
  if (!family_) throw std::invalid_argument("Cucb: null family");
  reset();
}

void Cucb::reset() {
  stats_.reset(family_->graph().num_vertices());
  scores_.assign(stats_.size(), 0.0);
  rng_ = Xoshiro256(options_.seed);
}

double Cucb::arm_index(ArmId i, TimeSlot t) const {
  const std::int64_t count = stats_.count(i);
  if (count == 0) return 1e6;  // force coverage of unplayed arms
  const double bonus =
      std::sqrt(options_.exploration *
                std::log(std::max<double>(static_cast<double>(t), 1.0)) /
                static_cast<double>(count));
  return stats_.mean(i) + bonus;
}

StrategyId Cucb::select(TimeSlot t) {
  // c·ln t is shared by every arm (same hoisting as the single-play UCBs;
  // the expression tree matches arm_index, so the scores are bit-equal).
  const double clt =
      options_.exploration *
      std::log(std::max<double>(static_cast<double>(t), 1.0));
  const std::int64_t* counts = stats_.counts();
  const double* means = stats_.means();
  for (std::size_t i = 0; i < scores_.size(); ++i) {
    scores_[i] = counts[i] == 0
                     ? 1e6
                     : means[i] + std::sqrt(clt / static_cast<double>(counts[i]));
  }
  return argmax_modular(*family_, scores_, oracle_scratch_);
}

void Cucb::observe(StrategyId played, TimeSlot /*t*/,
                   ObservationSpan observations) {
  // No side bonus: consume only the component arms of the played strategy.
  const Bitset64& bits = family_->strategy_bits(played);
  for (const Observation& obs : observations) {
    if (bits.test(static_cast<std::size_t>(obs.arm))) {
      stats_.add(obs.arm, obs.value);
    }
  }
}

std::string Cucb::describe() const {
  std::ostringstream out;
  out << name() << "(c=" << options_.exploration << ")";
  return out.str();
}

namespace {

const PolicyRegistration kRegCucb{{
    "cucb",
    "combinatorial UCB baseline without side bonus (Gai/Chen et al.)",
    kCsoBit | kCsrBit,
    {{"c", ParamKind::kDouble, "exploration scale", "1.5", false}},
    nullptr,
    [](const PolicyParams& p, const PolicyBuildContext& ctx) {
      return std::make_unique<Cucb>(
          ctx.family, CucbOptions{.exploration = p.get_double("c", 1.5),
                                  .seed = ctx.seed});
    },
}};

}  // namespace

}  // namespace ncb
