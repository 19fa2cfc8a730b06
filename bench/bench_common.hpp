// Shared flag parsing and headers for the bench mains that the sweep grammar
// cannot express (the paper's figures and ablations are specs/*.sweep files).
// Common flags: --horizon, --reps, --arms, --p, --m, --seed, --quick, and
// --list-policies (print the policy registry and exit 0); any other flag
// exits 2 unless the main declares it.
#pragma once

#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/policy_registry.hpp"
#include "sim/experiment.hpp"
#include "util/arg_parse.hpp"

namespace ncb::bench {

struct CommonFlags {
  TimeSlot horizon = 10000;
  std::size_t reps = 20;
  std::size_t arms = 100;
  double p = 0.3;
  std::size_t m = 3;
  std::uint64_t seed = 20170605;
  bool quick = false;
};

/// Parses the common flags plus the main's own `extra` flags.
inline CommonFlags parse_common(int argc, char** argv,
                                const std::vector<std::string>& extra = {}) {
  try {
    const ArgParse args(argc, argv);
    std::vector<std::string> known{"arms", "horizon", "list-policies", "m",
                                   "p", "quick", "reps", "seed"};
    known.insert(known.end(), extra.begin(), extra.end());
    args.require_known(known);
    if (args.has("list-policies")) {
      std::cout << PolicyRegistry::instance().render_listing();
      std::exit(0);
    }
    const auto positive = [&](const char* name, std::int64_t v) {
      if (v <= 0) {
        throw std::invalid_argument(std::string("--") + name +
                                    ": must be positive");
      }
      return static_cast<std::size_t>(v);
    };
    const auto non_negative = [&](const char* name, std::int64_t v) {
      if (v < 0) {
        throw std::invalid_argument(std::string("--") + name +
                                    ": must be non-negative");
      }
      return static_cast<std::size_t>(v);
    };
    CommonFlags f;
    f.quick = args.get_bool("quick", false);
    f.horizon = args.get_int("horizon", f.quick ? 2000 : 10000);
    if (f.horizon <= 0) {
      throw std::invalid_argument("--horizon: must be positive");
    }
    f.reps = positive("reps", args.get_int("reps", f.quick ? 5 : 20));
    f.arms = non_negative("arms", args.get_int("arms", 0));  // 0 = default
    f.p = args.get_double("p", 0.3);
    f.m = positive("m", args.get_int("m", 3));
    f.seed = static_cast<std::uint64_t>(
        non_negative("seed", args.get_int("seed", 20170605)));
    return f;
  } catch (const std::invalid_argument& e) {
    std::cerr << (argc > 0 ? argv[0] : "bench") << ": error: " << e.what()
              << '\n';
    std::exit(2);
  }
}

/// Applies common flag overrides onto a figure's default config.
inline void apply_flags(ExperimentConfig& config, const CommonFlags& f) {
  config.horizon = f.horizon;
  config.replications = f.reps;
  if (f.arms > 0) config.num_arms = f.arms;
  config.seed = f.seed;
}

inline void print_header(const std::string& figure,
                         const std::string& claim,
                         const ExperimentConfig& config) {
  std::cout << "==========================================================\n"
            << figure << '\n' << claim << '\n'
            << "config: " << config.describe() << '\n'
            << "==========================================================\n";
}

}  // namespace ncb::bench
