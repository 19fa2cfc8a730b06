#include "core/moss.hpp"

#include <limits>
#include <sstream>
#include <stdexcept>

#include "core/policy_registry.hpp"
#include "util/math.hpp"

namespace ncb {

Moss::Moss(MossOptions options)
    : ArmStatIndexPolicy(options.seed), options_(options) {}

double Moss::fixed_horizon_index(ArmId i) const {
  const std::int64_t count = stats_.count(i);
  if (count == 0) return std::numeric_limits<double>::infinity();
  const double ratio = static_cast<double>(options_.horizon) /
                       (static_cast<double>(num_arms_) *
                        static_cast<double>(count));
  return stats_.mean(i) +
         exploration_width(ratio, static_cast<double>(count));
}

void Moss::refresh_indices(TimeSlot t, Span<ArmId> arms, double* values,
                           TimeSlot* valid_until) {
  if (options_.horizon <= 0) {
    // Anytime form: DFL-SSO's width plateau over the play count T_i.
    refresh_plateau_indices(t, arms, values, valid_until, 1.0);
    return;
  }
  for (const ArmId i : arms) {
    const auto k = static_cast<std::size_t>(i);
    values[k] = fixed_horizon_index(i);
    valid_until[k] = kIndexValidForever;
  }
}

double Moss::index(ArmId i, TimeSlot t) const {
  if (options_.horizon > 0) return fixed_horizon_index(i);
  return plateau_index(stats_.mean(i), stats_.count(i), t).value;
}

void Moss::observe(ArmId played, TimeSlot /*t*/,
                   ObservationSpan observations) {
  // MOSS has no side information: consume only the played arm's sample.
  for (const Observation& obs : observations) {
    if (obs.arm == played) {
      absorb(obs.arm, obs.value);
      return;
    }
  }
  throw std::logic_error("Moss: played arm missing from observations");
}

std::string Moss::name() const {
  return options_.horizon > 0 ? "MOSS" : "MOSS-anytime";
}

std::string Moss::describe() const {
  if (options_.horizon <= 0) return name();
  std::ostringstream out;
  out << name() << "(horizon=" << options_.horizon << ")";
  return out.str();
}

namespace {

const PolicyRegistration kRegMoss{{
    "moss",
    "minimax-optimal stochastic baseline; learns only from the played arm",
    kSsoBit | kSsrBit,
    {{"horizon", ParamKind::kInt,
      "known horizon n; \"auto\" selects the anytime variant", "run horizon",
      true}},
    [](const PolicyParams& p, const PolicyBuildContext& ctx) {
      const TimeSlot horizon =
          p.is_auto("horizon") ? 0 : p.get_int("horizon", ctx.horizon);
      return std::make_unique<Moss>(
          MossOptions{.horizon = horizon, .seed = ctx.seed});
    },
    nullptr,
}};

const PolicyRegistration kRegMossAnytime{{
    "moss-anytime",
    "MOSS with the anytime index (substitutes t for the horizon)",
    kSsoBit | kSsrBit,
    {},
    [](const PolicyParams&, const PolicyBuildContext& ctx) {
      return std::make_unique<Moss>(MossOptions{.horizon = 0, .seed = ctx.seed});
    },
    nullptr,
}};

}  // namespace

}  // namespace ncb
