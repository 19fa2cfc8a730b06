// The online decision engine: a registry-constructed policy + relation
// graph behind a thread-safe decide()/report() API.
//
// This is the explorer/recorder split of the MWT Decision Service
// (Agarwal et al.): decide() runs the learned policy, mixes in
// epsilon-greedy exploration, and returns the chosen action *with its
// propensity* — the probability the logging policy assigned to that action
// — so the event log supports counterfactual evaluation of other policies
// later. report() joins a reward back to its decision and feeds the policy
// online.
//
// Determinism contract: everything that decides an action lives in one
// Explorer — the policy clock, the exploration draw, the propensity and
// the feedback observe() — shared verbatim by this engine and the offline
// replayer (replay/replay.hpp). The exploration draw for decision t (==
// decision_id) on user key k is a pure function of (seed, k, t): a
// counter-based stream seeded with derive_seed_at(seed ⊕ fnv1a_key(k), t),
// never a shared RNG, never per-connection or per-key state. Decisions
// therefore depend only on the engine seed and the global order of
// decide()/report() calls (which drives the policy's learned state), not
// on which connection carried a request, how many clients are attached, or
// what a key asked before. Replaying the same request stream in the same
// order is bit-identical, however it is multiplexed.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "core/policy.hpp"
#include "graph/graph.hpp"
#include "obs/metrics.hpp"
#include "serve/event_log.hpp"
#include "util/types.hpp"

namespace ncb::serve {

/// FNV-1a over a user key: stable across runs and platforms (unlike
/// std::hash). The exploration draw is seeded with derive_seed_at(seed ^
/// fnv1a_key(key), t), so the hash is part of the determinism contract.
[[nodiscard]] std::uint64_t fnv1a_key(const std::string& key) noexcept;

/// The epsilon-greedy exploration core: one registry-built policy, its
/// clock, the exploration draw, and the logging propensity. Not
/// thread-safe; DecisionEngine serializes it under its lock, and the
/// replayer drives one per candidate.
class Explorer {
 public:
  /// Builds `policy_spec` from the registry and resets it over `graph`.
  /// Throws std::invalid_argument on an empty graph, epsilon outside
  /// [0, 1], or a bad spec.
  Explorer(const Graph& graph, const std::string& policy_spec, double epsilon,
           std::uint64_t seed, TimeSlot horizon);

  struct Choice {
    TimeSlot t = 0;          ///< Policy clock after the tick == decision_id.
    ArmId greedy = kNoArm;   ///< The policy's own choice at slot t.
    ArmId sampled = kNoArm;  ///< greedy after the exploration draw.
  };

  /// Ticks the clock, runs the policy's select, and applies the draw for
  /// (key_hash, t): with probability epsilon the sampled action is uniform
  /// over all K arms.
  [[nodiscard]] Choice choose(std::uint64_t key_hash);

  /// Probability the explorer serves `action` when the policy chose
  /// `greedy`: epsilon/K on every arm plus (1 - epsilon) on the greedy one.
  [[nodiscard]] double propensity(ArmId action, ArmId greedy) const noexcept;

  /// Bandit feedback: feeds the served action's reward to the policy at the
  /// current clock — never side observations; the relation graph still
  /// shapes the policy's index, just without N_i sharing.
  void learn(ArmId action, double reward);

  [[nodiscard]] TimeSlot clock() const noexcept { return t_; }
  [[nodiscard]] std::size_t num_arms() const noexcept { return num_arms_; }
  [[nodiscard]] double epsilon() const noexcept { return epsilon_; }
  /// The built policy's describe().
  [[nodiscard]] const std::string& description() const noexcept {
    return description_;
  }

 private:
  std::size_t num_arms_;
  double epsilon_;
  std::uint64_t seed_;
  std::unique_ptr<SinglePlayPolicy> policy_;
  std::string description_;
  TimeSlot t_ = 0;
};

struct EngineOptions {
  /// Policy registry spec, e.g. "dfl-sso" or "eps-greedy:eps=0.05".
  std::string policy_spec = "dfl-sso";
  /// Epsilon-greedy exploration mixed over the policy's choice: with
  /// probability epsilon the served action is uniform over all K arms.
  /// 0 disables exploration (propensity 1 on every decision).
  double epsilon = 0.05;
  /// Master seed: the policy's private stream and every exploration draw
  /// derive from it.
  std::uint64_t seed = 20170605;
  /// Horizon hint forwarded to the policy builder (0 = anytime).
  TimeSlot horizon = 0;
  /// Registry holding the engine counters (serve.engine.*); nullptr →
  /// obs::MetricsRegistry::global(). Observability only — never feeds back
  /// into a decision.
  obs::MetricsRegistry* metrics = nullptr;
};

/// One answered decision request.
struct Decision {
  std::uint64_t decision_id = 0;  ///< Join key for report(); also the slot.
  std::uint64_t slot = 0;         ///< Echo of the caller's slot tag.
  ArmId action = kNoArm;
  double propensity = 0.0;
};

/// The Explorer behind a mutex, plus what serving adds around it: the
/// pending-decision map report() joins against, the event log, and the
/// registry counters.
class DecisionEngine {
 public:
  /// Builds the Explorer over `graph`. `log` may be null (serving without
  /// an event log); when set, every decide/report appends a record under
  /// the engine lock, so log order equals decision order. Throws
  /// std::invalid_argument on an unknown policy spec, an empty graph, or
  /// epsilon outside [0, 1].
  DecisionEngine(Graph graph, const EngineOptions& options,
                 EventLog* log = nullptr);

  /// Answers one request: chooses at the next time slot, logs and
  /// remembers the decision.
  [[nodiscard]] Decision decide(const std::string& user_key,
                                std::uint64_t slot = 0);

  /// Joins a reward to a decision and feeds the policy online. Returns
  /// false (and changes nothing) for an unknown or already-reported
  /// decision_id.
  bool report(std::uint64_t decision_id, double reward);

  [[nodiscard]] std::size_t num_arms() const noexcept;
  /// One-line summary for server startup logs.
  [[nodiscard]] std::string describe() const;

  /// Decisions issued so far (the policy clock).
  [[nodiscard]] std::uint64_t decisions() const;
  /// Decisions awaiting feedback.
  [[nodiscard]] std::size_t pending() const;

 private:
  Explorer explorer_;
  EventLog* log_;

  mutable std::mutex mutex_;
  std::unordered_map<std::uint64_t, ArmId> pending_;

  // The engine's only event counts (references resolved once in the
  // constructor; increments are relaxed atomics on the hot path). report()
  // splits a rejected feedback into unknown (a decision_id never issued)
  // and duplicate (a decision already rewarded — the join-health signal a
  // lossy or retrying feedback path produces).
  obs::Counter& m_decisions_;
  obs::Counter& m_feedbacks_;
  obs::Counter& m_unknown_;
  obs::Counter& m_duplicates_;
};

}  // namespace ncb::serve
