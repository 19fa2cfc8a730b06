// Scenario tags for the four cases of §II, plus the bitmask vocabulary the
// policy layer uses to advertise scenario support.
//
// This lives in core/ (not sim/) because policies and the registry need
// it; the simulation runner includes it from here too.
#pragma once

#include <cstdint>
#include <string>

namespace ncb {

enum class Scenario {
  kSso,  ///< Single-play, side observation (Eq. 1 regret).
  kCso,  ///< Combinatorial-play, side observation (Eq. 2).
  kSsr,  ///< Single-play, side reward (Eq. 3).
  kCsr,  ///< Combinatorial-play, side reward (Eq. 4).
};

[[nodiscard]] inline std::string scenario_name(Scenario s) {
  switch (s) {
    case Scenario::kSso: return "SSO";
    case Scenario::kCso: return "CSO";
    case Scenario::kSsr: return "SSR";
    case Scenario::kCsr: return "CSR";
  }
  return "?";
}

[[nodiscard]] inline bool is_combinatorial(Scenario s) {
  return s == Scenario::kCso || s == Scenario::kCsr;
}

[[nodiscard]] inline bool is_side_reward(Scenario s) {
  return s == Scenario::kSsr || s == Scenario::kCsr;
}

/// Bitmask over the four scenarios (one bit per Scenario enumerator).
using ScenarioMask = std::uint8_t;

[[nodiscard]] constexpr ScenarioMask scenario_bit(Scenario s) noexcept {
  return static_cast<ScenarioMask>(1u << static_cast<unsigned>(s));
}

inline constexpr ScenarioMask kSsoBit = scenario_bit(Scenario::kSso);
inline constexpr ScenarioMask kCsoBit = scenario_bit(Scenario::kCso);
inline constexpr ScenarioMask kSsrBit = scenario_bit(Scenario::kSsr);
inline constexpr ScenarioMask kCsrBit = scenario_bit(Scenario::kCsr);
inline constexpr ScenarioMask kSinglePlayScenarios = kSsoBit | kSsrBit;
inline constexpr ScenarioMask kCombinatorialScenarios = kCsoBit | kCsrBit;

[[nodiscard]] constexpr bool mask_supports(ScenarioMask mask,
                                           Scenario s) noexcept {
  return (mask & scenario_bit(s)) != 0;
}

/// Space-separated scenario names in SSO/SSR/CSO/CSR order, e.g. "SSO SSR".
[[nodiscard]] inline std::string scenario_mask_names(ScenarioMask mask) {
  std::string out;
  for (const Scenario s : {Scenario::kSso, Scenario::kSsr, Scenario::kCso,
                           Scenario::kCsr}) {
    if (!mask_supports(mask, s)) continue;
    if (!out.empty()) out += ' ';
    out += scenario_name(s);
  }
  return out;
}

}  // namespace ncb
