#include "core/dfl_sso.hpp"

#include <limits>
#include <sstream>

#include "core/policy_registry.hpp"
#include "util/math.hpp"

namespace ncb {

DflSso::DflSso(DflSsoOptions options)
    : ArmStatIndexPolicy(options.seed), options_(options) {}

void DflSso::on_reset(const Graph& graph) {
  // Only the neighbor-greedy refinement reads the graph after reset; skip
  // the copy otherwise (DFL-CSO's SG has |F| vertices and 10⁵+ edges).
  if (options_.neighbor_greedy) graph_ = graph;
  ArmStatIndexPolicy::on_reset(graph);
}

IndexRefresh DflSso::refresh_index(ArmId i, TimeSlot t) const {
  const std::int64_t count = stats_.count(i);
  if (count == 0) {
    // +inf until the first observation dirty-marks the arm.
    return {std::numeric_limits<double>::infinity(), kIndexValidForever};
  }
  // Width plateau: t ≤ K·O_i ⇔ the ratio rounds to ≤ 1.0 (t and K·O_i are
  // exact in double up to 2^53 and division is monotonic), so log⁺ clips
  // the width to exactly zero and the index sits at the empirical mean
  // until slot K·O_i.
  const std::int64_t plateau = static_cast<std::int64_t>(num_arms_) * count;
  const double mean = stats_.mean(i);
  if (t <= plateau) {
    return {mean + options_.exploration_scale * 0.0, plateau};
  }
  const double ratio = static_cast<double>(t) /
                       (static_cast<double>(num_arms_) *
                        static_cast<double>(count));
  return {mean + options_.exploration_scale *
                     exploration_width(ratio, static_cast<double>(count)),
          t};
}

double DflSso::index(ArmId i, TimeSlot t) const {
  return refresh_index(i, t).value;
}

ArmId DflSso::refine_selection(ArmId best) {
  if (!options_.neighbor_greedy) return best;
  // Play the empirically best arm inside N_{I_t} (§IX heuristic). The
  // closed neighborhood always contains `best` itself.
  return best_empirical_in_neighborhood(graph_, best);
}

std::string DflSso::name() const {
  return options_.neighbor_greedy ? "DFL-SSO+greedy" : "DFL-SSO";
}

std::string DflSso::describe() const {
  std::ostringstream out;
  out << name() << "(eta=" << options_.exploration_scale << ")";
  return out.str();
}

namespace {

const PolicyRegistration kRegDflSso{{
    "dfl-sso",
    "Algorithm 1: distribution-free single-play learner, batched "
    "closed-neighborhood updates",
    kSsoBit,
    {{"eta", ParamKind::kDouble, "exploration width multiplier", "1.0",
      false}},
    [](const PolicyParams& p, const PolicyBuildContext& ctx) {
      return std::make_unique<DflSso>(DflSsoOptions{
          .neighbor_greedy = false,
          .exploration_scale = p.get_double("eta", 1.0),
          .seed = ctx.seed});
    },
    nullptr,
}};

const PolicyRegistration kRegDflSsoGreedy{{
    "dfl-sso-greedy",
    "DFL-SSO with the paper's neighbor-greedy play heuristic",
    kSsoBit,
    {{"eta", ParamKind::kDouble, "exploration width multiplier", "1.0",
      false}},
    [](const PolicyParams& p, const PolicyBuildContext& ctx) {
      return std::make_unique<DflSso>(DflSsoOptions{
          .neighbor_greedy = true,
          .exploration_scale = p.get_double("eta", 1.0),
          .seed = ctx.seed});
    },
    nullptr,
}};

}  // namespace

}  // namespace ncb
