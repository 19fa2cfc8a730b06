#include "core/dfl_sso.hpp"

#include <sstream>

#include "core/policy_registry.hpp"

namespace ncb {

DflSso::DflSso(DflSsoOptions options)
    : ArmStatIndexPolicy(options.seed), options_(options) {}

void DflSso::on_reset(const Graph& graph) {
  // Only the neighbor-greedy refinement reads the graph after reset; skip
  // the copy otherwise (DFL-CSO's SG has |F| vertices and 10⁵+ edges).
  if (options_.neighbor_greedy) graph_ = graph;
  ArmStatIndexPolicy::on_reset(graph);
}

void DflSso::refresh_indices(TimeSlot t, Span<ArmId> arms, double* values) {
  refresh_plateau_indices(t, arms, values, options_.exploration_scale);
}

double DflSso::index(ArmId i, TimeSlot t) const {
  return plateau_index(stats_.mean(i), stats_.count(i), t,
                       options_.exploration_scale);
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
