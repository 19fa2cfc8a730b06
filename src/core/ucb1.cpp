#include "core/ucb1.hpp"

#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "core/policy_registry.hpp"

namespace ncb {

Ucb1::Ucb1(Ucb1Options options)
    : ArmStatIndexPolicy(options.seed), options_(options) {}

double Ucb1::index(ArmId i, TimeSlot t) const {
  const std::int64_t count = stats_.count(i);
  if (count == 0) return std::numeric_limits<double>::infinity();
  const double bonus = std::sqrt(options_.exploration *
                                 std::log(std::max<double>(static_cast<double>(t), 1.0)) /
                                 static_cast<double>(count));
  return stats_.mean(i) + bonus;
}

void Ucb1::refresh_all_indices(TimeSlot t, double* out) {
  // c·ln t is shared by every arm; hoisting it keeps the loop at one
  // division + one sqrt per arm over the flat SoA arrays. The expression
  // tree (c·lt)/T_i matches index() exactly, so the values are bit-equal.
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

void Ucb1::observe(ArmId played, TimeSlot /*t*/,
                   ObservationSpan observations) {
  for (const Observation& obs : observations) {
    if (obs.arm == played) {
      absorb(obs.arm, obs.value);
      return;
    }
  }
  throw std::logic_error("Ucb1: played arm missing from observations");
}

std::string Ucb1::describe() const {
  std::ostringstream out;
  out << name() << "(c=" << options_.exploration << ")";
  return out.str();
}

namespace {

const PolicyRegistration kRegUcb1{{
    "ucb1",
    "classical UCB1; distribution-dependent, no side information",
    kSsoBit | kSsrBit,
    {{"c", ParamKind::kDouble, "exploration scale", "2.0", false}},
    [](const PolicyParams& p, const PolicyBuildContext& ctx) {
      return std::make_unique<Ucb1>(Ucb1Options{
          .exploration = p.get_double("c", 2.0), .seed = ctx.seed});
    },
    nullptr,
}};

}  // namespace

}  // namespace ncb
