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
  prefix_sums_.assign(
      options_.estimator == SsrEstimator::kPaired ? num_arms_ : 0, {});
  // Every O_j = 0: Ob_i = 0 with all of N_i at the minimum.
  ob_.assign(num_arms_, 0);
  at_min_.resize(num_arms_);
  for (std::size_t i = 0; i < num_arms_; ++i) {
    at_min_[i] =
        static_cast<std::uint32_t>(graph_.degree(static_cast<ArmId>(i)) + 1);
  }
  paired_estimate_.assign(num_arms_, 0.0);
  max_neighbor_ob_.assign(num_arms_, 0);
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

double DflSsr::tracked_side_reward_estimate(ArmId i) const {
  const auto k = static_cast<std::size_t>(i);
  return options_.estimator == SsrEstimator::kPaired
             ? paired_estimate_.at(k)
             : estimate_given(i, ob_.at(k));
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

void DflSsr::refresh_indices(TimeSlot t, Span<ArmId> arms, double* values) {
  // DFL-SSO's width plateau, over the tracked side-reward counter Ob_i.
  const bool paired = options_.estimator == SsrEstimator::kPaired;
  for (const ArmId i : arms) {
    const auto k = static_cast<std::size_t>(i);
    const std::int64_t ob = ob_[k];
    const double estimate =
        paired ? paired_estimate_[k] : estimate_given(i, ob);
    values[k] = plateau_refresh(i, estimate, ob, t);
  }
}

double DflSsr::index(ArmId i, TimeSlot t) const {
  const std::int64_t ob = side_observation_count(i);
  return plateau_index(estimate_given(i, ob), ob, t);
}

void DflSsr::raise_count(ArmId arm, std::int64_t before) {
  // Ob_i ≤ O_arm for every i ∈ N_arm; none can rise unless one sits at it.
  if (max_neighbor_ob_[static_cast<std::size_t>(arm)] != before) return;
  const std::int64_t* counts = direct_.counts();
  const bool paired = options_.estimator == SsrEstimator::kPaired;
  for (const ArmId i : graph_.closed_neighborhood(arm)) {
    const auto k = static_cast<std::size_t>(i);
    if (ob_[k] != before || --at_min_[k] > 0) continue;
    // The last member at the minimum left it: every O_j over N_i is now
    // ≥ before + 1, and O_arm is exactly that.
    const std::int64_t ob = before + 1;
    std::uint32_t at_min = 0;
    for (const ArmId j : graph_.closed_neighborhood(i)) {
      at_min += counts[static_cast<std::size_t>(j)] == ob ? 1 : 0;
    }
    ob_[k] = ob;
    at_min_[k] = at_min;
    for (const ArmId j : graph_.closed_neighborhood(i)) {
      std::int64_t& m = max_neighbor_ob_[static_cast<std::size_t>(j)];
      m = m < ob ? ob : m;
    }
    if (paired) {
      paired_estimate_[k] = estimate_given(i, ob);
      mark_index_dirty(i);
    }
  }
}

void DflSsr::observe(ArmId /*played*/, TimeSlot /*t*/,
                     ObservationSpan observations) {
  const bool paired = options_.estimator == SsrEstimator::kPaired;
  for (const Observation& obs : observations) {
    const auto i = static_cast<std::size_t>(obs.arm);
    const std::int64_t before = direct_.count(obs.arm);
    direct_.add(obs.arm, obs.value);
    if (paired) {
      const double prev = prefix_sums_[i].empty() ? 0.0 : prefix_sums_[i].back();
      prefix_sums_[i].push_back(prev + obs.value);
    }
    raise_count(obs.arm, before);
  }
  if (paired) return;
  // A mean-sum index reads the means over its *closed neighborhood*, so
  // the stale set is the union of the observed arms' closed neighborhoods
  // (two hops from the played arm). When scanning that union would cost
  // ≥ K marks, flooding the whole cache is cheaper.
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
