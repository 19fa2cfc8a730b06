#include "core/dfl_cso.hpp"

#include <stdexcept>

#include "core/policy_registry.hpp"

namespace ncb {

DflCso::DflCso(std::shared_ptr<const FeasibleSet> family, DflCsoOptions options)
    : family_(std::move(family)),
      scope_(options.scope),
      sso_(DflSsoOptions{.neighbor_greedy = false,
                         .exploration_scale = 1.0,
                         .seed = options.seed}) {
  if (!family_) throw std::invalid_argument("DflCso: null family");
  reset();
}

void DflCso::reset() {
  sso_.reset(family_->strategy_graph());
  arm_values_.assign(family_->graph().num_vertices(), 0.0);
  arm_stamp_.assign(family_->graph().num_vertices(), -1);
  epoch_ = 0;
  rewards_.reserve(family_->size());
}

Span<StrategyId> DflCso::update_list(StrategyId x) const {
  if (x < 0 || static_cast<std::size_t>(x) >= family_->size()) {
    throw std::out_of_range("DflCso: strategy id out of range");
  }
  return scope_ == CsoUpdateScope::kStrategyGraph
             ? family_->strategy_graph().closed_neighborhood(x)
             : family_->observable(x);
}

void DflCso::observe(StrategyId played, TimeSlot t,
                     ObservationSpan observations) {
  // Stage the arm values; observations normally cover Y_played, and every
  // com-arm in the update list has all component arms inside Y_played. When
  // feedback is unreliable (dropped side observations), a com-arm whose
  // component arms were not all revealed this slot is skipped rather than
  // updated with stale values.
  ++epoch_;
  for (const Observation& obs : observations) {
    arm_values_.at(static_cast<std::size_t>(obs.arm)) = obs.value;
    arm_stamp_.at(static_cast<std::size_t>(obs.arm)) = epoch_;
  }
  rewards_.clear();
  for (const StrategyId y : update_list(played)) {
    double reward = 0.0;
    bool complete = true;
    for (const ArmId i : family_->strategy(y)) {
      if (arm_stamp_[static_cast<std::size_t>(i)] != epoch_) {
        complete = false;
        break;
      }
      reward += arm_values_[static_cast<std::size_t>(i)];
    }
    if (complete) rewards_.add(y, reward);
  }
  sso_.observe(played, t, rewards_.span());
}

std::string DflCso::name() const {
  return scope_ == CsoUpdateScope::kStrategyGraph
             ? "DFL-CSO"
             : "DFL-CSO(all-observable)";
}

namespace {

const PolicyRegistration kRegDflCso{{
    "dfl-cso",
    "Algorithm 2: combinatorial side-observation learner over the strategy "
    "graph",
    kCsoBit,
    {},
    nullptr,
    [](const PolicyParams&, const PolicyBuildContext& ctx) {
      return std::make_unique<DflCso>(
          ctx.family,
          DflCsoOptions{.scope = CsoUpdateScope::kStrategyGraph,
                        .seed = ctx.seed});
    },
}};

const PolicyRegistration kRegDflCsoObservable{{
    "dfl-cso-observable",
    "DFL-CSO updating every com-arm contained in the observed set",
    kCsoBit,
    {},
    nullptr,
    [](const PolicyParams&, const PolicyBuildContext& ctx) {
      return std::make_unique<DflCso>(
          ctx.family,
          DflCsoOptions{.scope = CsoUpdateScope::kAllObservable,
                        .seed = ctx.seed});
    },
}};

}  // namespace

}  // namespace ncb
