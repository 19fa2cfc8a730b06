#include "core/kl_ucb.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "core/policy_registry.hpp"

namespace ncb {

KlUcb::KlUcb(KlUcbOptions options)
    : ArmStatIndexPolicy(options.seed), options_(options) {}

double KlUcb::bernoulli_kl(double p, double q) noexcept {
  constexpr double kEps = 1e-15;
  p = std::clamp(p, kEps, 1.0 - kEps);
  q = std::clamp(q, kEps, 1.0 - kEps);
  return p * std::log(p / q) + (1.0 - p) * std::log((1.0 - p) / (1.0 - q));
}

double KlUcb::kl_upper_bound(double p, double count, double budget) noexcept {
  if (count <= 0.0) return 1.0;
  const double limit = budget / count;
  double lo = std::clamp(p, 0.0, 1.0);
  double hi = 1.0;
  for (int iter = 0; iter < 64 && hi - lo > 1e-9; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (bernoulli_kl(p, mid) <= limit) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

double KlUcb::index(ArmId i, TimeSlot t) const {
  const std::int64_t count = stats_.count(i);
  if (count == 0) return std::numeric_limits<double>::infinity();
  const double lt = std::log(std::max<double>(static_cast<double>(t), 1.0));
  const double llt =
      options_.c > 0.0 ? options_.c * std::log(std::max(lt, 1.0)) : 0.0;
  return kl_upper_bound(stats_.mean(i), static_cast<double>(count), lt + llt);
}

void KlUcb::refresh_all_indices(TimeSlot t, double* out) {
  // The exploration budget ln t + c·ln ln t is shared by every arm; the
  // per-arm work is just the bisection on its own (mean, count).
  const double lt = std::log(std::max<double>(static_cast<double>(t), 1.0));
  const double llt =
      options_.c > 0.0 ? options_.c * std::log(std::max(lt, 1.0)) : 0.0;
  const double budget = lt + llt;
  const std::int64_t* counts = stats_.counts();
  const double* means = stats_.means();
  for (std::size_t k = 0; k < num_arms_; ++k) {
    out[k] = counts[k] == 0
                 ? std::numeric_limits<double>::infinity()
                 : kl_upper_bound(means[k], static_cast<double>(counts[k]),
                                  budget);
  }
}

void KlUcb::observe(ArmId played, TimeSlot t, ObservationSpan observations) {
  bool saw_played = false;
  if (options_.use_side_observations) {
    // Batched path: absorb the whole span in one pass.
    for (const Observation& obs : observations) {
      saw_played = saw_played || obs.arm == played;
    }
    ArmStatIndexPolicy::observe(played, t, observations);
  } else {
    for (const Observation& obs : observations) {
      if (obs.arm == played) {
        absorb(obs.arm, obs.value);
        saw_played = true;
      }
    }
  }
  if (!saw_played) {
    throw std::logic_error("KlUcb: played arm missing from observations");
  }
}

std::string KlUcb::name() const {
  return options_.use_side_observations ? "KL-UCB-N" : "KL-UCB";
}

std::string KlUcb::describe() const {
  std::ostringstream out;
  out << name() << "(c=" << options_.c << ")";
  return out.str();
}

namespace {

const std::vector<ParamSpec> kKlUcbParams{
    {"c", ParamKind::kDouble, "the c in ln t + c*ln ln t", "0.0", false}};

const PolicyRegistration kRegKlUcb{{
    "kl-ucb",
    "KL-UCB for bounded rewards; asymptotically optimal for Bernoulli arms",
    kSsoBit | kSsrBit,
    kKlUcbParams,
    [](const PolicyParams& p, const PolicyBuildContext& ctx) {
      KlUcbOptions opts;
      opts.c = p.get_double("c", 0.0);
      opts.seed = ctx.seed;
      return std::make_unique<KlUcb>(opts);
    },
    nullptr,
}};

const PolicyRegistration kRegKlUcbN{{
    "kl-ucb-n",
    "KL-UCB consuming side observations (KL analogue of UCB-N)",
    kSsoBit,
    kKlUcbParams,
    [](const PolicyParams& p, const PolicyBuildContext& ctx) {
      KlUcbOptions opts;
      opts.c = p.get_double("c", 0.0);
      opts.use_side_observations = true;
      opts.seed = ctx.seed;
      return std::make_unique<KlUcb>(opts);
    },
    nullptr,
}};

}  // namespace

}  // namespace ncb
