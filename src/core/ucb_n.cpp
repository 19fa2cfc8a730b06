#include "core/ucb_n.hpp"

#include <cmath>
#include <limits>
#include <sstream>

#include "core/policy_registry.hpp"

namespace ncb {

UcbN::UcbN(UcbNOptions options)
    : ArmStatIndexPolicy(options.seed), options_(options) {}

void UcbN::on_reset(const Graph& graph) {
  graph_ = graph;
  ArmStatIndexPolicy::on_reset(graph);
}

double UcbN::index(ArmId i, TimeSlot t) const {
  const std::int64_t count = stats_.count(i);
  if (count == 0) return std::numeric_limits<double>::infinity();
  const double bonus = std::sqrt(options_.exploration *
                                 std::log(std::max<double>(static_cast<double>(t), 1.0)) /
                                 static_cast<double>(count));
  return stats_.mean(i) + bonus;
}

void UcbN::refresh_all_indices(TimeSlot t, double* out) {
  // Same hoisted form as UCB1 — the counts here include side observations.
  const double clt =
      options_.exploration *
      std::log(std::max<double>(static_cast<double>(t), 1.0));
  const std::int64_t* counts = stats_.counts();
  const double* means = stats_.means();
  for (std::size_t k = 0; k < num_arms_; ++k) {
    out[k] = counts[k] == 0
                 ? std::numeric_limits<double>::infinity()
                 : means[k] + std::sqrt(clt / static_cast<double>(counts[k]));
  }
}

ArmId UcbN::refine_selection(ArmId best) {
  if (!options_.max_variant) return best;
  // UCB-MaxN: play the best empirical arm among N_{best}.
  return best_empirical_in_neighborhood(graph_, best);
}

std::string UcbN::name() const {
  return options_.max_variant ? "UCB-MaxN" : "UCB-N";
}

std::string UcbN::describe() const {
  std::ostringstream out;
  out << name() << "(c=" << options_.exploration << ")";
  return out.str();
}

namespace {

const PolicyRegistration kRegUcbN{{
    "ucb-n",
    "UCB1 index over observation counts (side observations included)",
    kSsoBit,
    {{"c", ParamKind::kDouble, "exploration scale", "2.0", false}},
    [](const PolicyParams& p, const PolicyBuildContext& ctx) {
      return std::make_unique<UcbN>(UcbNOptions{
          .exploration = p.get_double("c", 2.0),
          .max_variant = false,
          .seed = ctx.seed});
    },
    nullptr,
}};

const PolicyRegistration kRegUcbMaxN{{
    "ucb-maxn",
    "UCB-N that plays the best empirical arm in the chosen neighborhood",
    kSsoBit,
    {{"c", ParamKind::kDouble, "exploration scale", "2.0", false}},
    [](const PolicyParams& p, const PolicyBuildContext& ctx) {
      return std::make_unique<UcbN>(UcbNOptions{
          .exploration = p.get_double("c", 2.0),
          .max_variant = true,
          .seed = ctx.seed});
    },
    nullptr,
}};

}  // namespace

}  // namespace ncb
