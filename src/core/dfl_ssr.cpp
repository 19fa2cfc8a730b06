#include "core/dfl_ssr.hpp"

#include <algorithm>
#include <limits>

#include "core/policy_registry.hpp"

namespace ncb {

DflSsr::DflSsr(DflSsrOptions options)
    : SingleIndexPolicy(options.seed), options_(options) {}

void DflSsr::on_reset(const Graph& graph) {
  graph_ = graph;
  direct_.reset(num_arms_);
  prefix_sums_.assign(num_arms_, {});
  if (options_.estimator == SsrEstimator::kPaired) {
    for (auto& ps : prefix_sums_) ps.reserve(64);
  }
}

std::int64_t DflSsr::side_observation_count(ArmId i) const {
  const std::int64_t* counts = direct_.counts();
  std::int64_t ob = std::numeric_limits<std::int64_t>::max();
  for (const ArmId j : graph_.closed_neighborhood(i)) {
    ob = std::min(ob, counts[static_cast<std::size_t>(j)]);
  }
  return ob;
}

double DflSsr::side_reward_estimate(ArmId i) const {
  return estimate_given(i, options_.estimator == SsrEstimator::kPaired
                               ? side_observation_count(i)
                               : 0);
}

double DflSsr::estimate_given(ArmId i, std::int64_t ob) const {
  if (options_.estimator == SsrEstimator::kMeanSum) {
    const double* means = direct_.means();
    double total = 0.0;
    for (const ArmId j : graph_.closed_neighborhood(i)) {
      total += means[static_cast<std::size_t>(j)];
    }
    return total;
  }
  // Paired: average of the first Ob_i paired sums, which equals the sum of
  // each neighbor's mean over its first Ob_i observations.
  if (ob == 0) return 0.0;
  double total = 0.0;
  for (const ArmId j : graph_.closed_neighborhood(i)) {
    total += prefix_sums_[static_cast<std::size_t>(j)][static_cast<std::size_t>(ob - 1)];
  }
  return total / static_cast<double>(ob);
}

void DflSsr::refresh_indices(TimeSlot t, Span<ArmId> arms, double* values,
                             TimeSlot* valid_until) {
  // DFL-SSO's width plateau, over the side-reward counter Ob_i.
  for (const ArmId i : arms) {
    const auto k = static_cast<std::size_t>(i);
    const std::int64_t ob = side_observation_count(i);
    const IndexRefresh r = plateau_refresh(estimate_given(i, ob), ob, t);
    values[k] = r.value;
    valid_until[k] = r.valid_until;
  }
}

double DflSsr::index(ArmId i, TimeSlot t) const {
  const std::int64_t ob = side_observation_count(i);
  return plateau_index(estimate_given(i, ob), ob, t).value;
}

void DflSsr::observe(ArmId /*played*/, TimeSlot /*t*/,
                     ObservationSpan observations) {
  for (const Observation& obs : observations) {
    const auto i = static_cast<std::size_t>(obs.arm);
    direct_.add(obs.arm, obs.value);
    if (options_.estimator == SsrEstimator::kPaired) {
      const double prev = prefix_sums_[i].empty() ? 0.0 : prefix_sums_[i].back();
      prefix_sums_[i].push_back(prev + obs.value);
    }
  }
  // An arm's index reads the min count and means over its *closed
  // neighborhood*, so the stale set is the union of the observed arms'
  // closed neighborhoods (two hops from the played arm). When scanning
  // that union would cost ≥ K marks, flooding the whole cache is cheaper.
  if (!all_indices_dirty()) {
    std::size_t touched = 0;
    for (const Observation& obs : observations) {
      touched += graph_.degree(obs.arm) + 1;
    }
    if (touched >= num_arms_) {
      mark_all_indices_dirty();
    } else {
      for (const Observation& obs : observations) {
        for (const ArmId j : graph_.closed_neighborhood(obs.arm)) {
          mark_index_dirty(j);
        }
      }
    }
  }
}

std::string DflSsr::name() const {
  return options_.estimator == SsrEstimator::kPaired ? "DFL-SSR"
                                                     : "DFL-SSR(mean-sum)";
}

std::string DflSsr::describe() const {
  return options_.estimator == SsrEstimator::kPaired
             ? "DFL-SSR(estimator=paired)"
             : "DFL-SSR(estimator=mean-sum)";
}

namespace {

const PolicyRegistration kRegDflSsr{{
    "dfl-ssr",
    "Algorithm 3: single-play side-reward learner, paired estimator",
    kSsrBit,
    {},
    [](const PolicyParams&, const PolicyBuildContext& ctx) {
      return std::make_unique<DflSsr>(
          DflSsrOptions{.estimator = SsrEstimator::kPaired, .seed = ctx.seed});
    },
    nullptr,
}};

const PolicyRegistration kRegDflSsrMeanSum{{
    "dfl-ssr-meansum",
    "DFL-SSR with the O(K)-memory mean-sum estimator",
    kSsrBit,
    {},
    [](const PolicyParams&, const PolicyBuildContext& ctx) {
      return std::make_unique<DflSsr>(DflSsrOptions{
          .estimator = SsrEstimator::kMeanSum, .seed = ctx.seed});
    },
    nullptr,
}};

}  // namespace

}  // namespace ncb
