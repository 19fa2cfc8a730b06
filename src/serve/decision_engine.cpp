#include "serve/decision_engine.hpp"

#include <stdexcept>

#include "core/policy_registry.hpp"
#include "util/rng.hpp"

namespace ncb::serve {

std::uint64_t fnv1a_key(const std::string& key) noexcept {
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : key) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

Explorer::Explorer(const Graph& graph, const std::string& policy_spec,
                   double epsilon, std::uint64_t seed, TimeSlot horizon)
    : num_arms_(graph.num_vertices()), epsilon_(epsilon), seed_(seed) {
  if (num_arms_ == 0) {
    throw std::invalid_argument("decision engine: empty graph");
  }
  if (!(epsilon_ >= 0.0 && epsilon_ <= 1.0)) {
    throw std::invalid_argument("decision engine: epsilon must be in [0, 1]");
  }
  policy_ = PolicyRegistry::instance().make_single_play(policy_spec, horizon,
                                                        seed_);
  policy_->reset(graph);
  description_ = policy_->describe();
}

Explorer::Choice Explorer::choose(std::uint64_t key_hash) {
  Choice choice;
  choice.t = ++t_;
  choice.greedy = policy_->select(choice.t);
  choice.sampled = choice.greedy;
  if (epsilon_ > 0.0) {
    Xoshiro256 rng(
        derive_seed_at(seed_ ^ key_hash, static_cast<std::uint64_t>(choice.t)));
    if (rng.uniform() < epsilon_) {
      choice.sampled = static_cast<ArmId>(rng.uniform_int(num_arms_));
    }
  }
  return choice;
}

double Explorer::propensity(ArmId action, ArmId greedy) const noexcept {
  double p = epsilon_ / static_cast<double>(num_arms_);
  if (action == greedy) p += 1.0 - epsilon_;
  return p;
}

void Explorer::learn(ArmId action, double reward) {
  policy_->observe(action, t_, {{action, reward}});
}

namespace {

obs::MetricsRegistry& engine_registry(const EngineOptions& options) {
  return options.metrics != nullptr ? *options.metrics
                                    : obs::MetricsRegistry::global();
}

}  // namespace

DecisionEngine::DecisionEngine(Graph graph, const EngineOptions& options,
                               EventLog* log)
    : explorer_(graph, options.policy_spec, options.epsilon, options.seed,
                options.horizon),
      log_(log),
      m_decisions_(engine_registry(options).counter("serve.engine.decisions")),
      m_feedbacks_(engine_registry(options).counter("serve.engine.feedbacks")),
      m_unknown_(
          engine_registry(options).counter("serve.engine.unknown_feedbacks")),
      m_duplicates_(engine_registry(options).counter(
          "serve.engine.duplicate_feedbacks")) {}

Decision DecisionEngine::decide(const std::string& user_key,
                                std::uint64_t slot) {
  const std::uint64_t key_hash = fnv1a_key(user_key);
  std::lock_guard<std::mutex> lock(mutex_);
  const Explorer::Choice choice = explorer_.choose(key_hash);

  Decision decision;
  decision.decision_id = static_cast<std::uint64_t>(choice.t);
  decision.slot = slot;
  decision.action = choice.sampled;
  decision.propensity = explorer_.propensity(choice.sampled, choice.greedy);
  pending_.emplace(decision.decision_id, decision.action);
  if (log_ != nullptr) {
    log_->append_decision(decision.decision_id, user_key, decision.action,
                          decision.propensity);
  }
  m_decisions_.inc();
  return decision;
}

bool DecisionEngine::report(std::uint64_t decision_id, double reward) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = pending_.find(decision_id);
  if (it == pending_.end()) {
    // Issued-but-not-pending means the reward already arrived: a duplicate.
    // An id outside [1, clock] was never issued at all.
    if (decision_id >= 1 &&
        decision_id <= static_cast<std::uint64_t>(explorer_.clock())) {
      m_duplicates_.inc();
    } else {
      m_unknown_.inc();
    }
    return false;
  }
  explorer_.learn(it->second, reward);
  pending_.erase(it);
  m_feedbacks_.inc();
  if (log_ != nullptr) log_->append_feedback(decision_id, reward);
  return true;
}

std::size_t DecisionEngine::num_arms() const noexcept {
  return explorer_.num_arms();
}

std::string DecisionEngine::describe() const {
  return explorer_.description() +
         ", eps=" + std::to_string(explorer_.epsilon()) +
         ", K=" + std::to_string(explorer_.num_arms());
}

std::uint64_t DecisionEngine::decisions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<std::uint64_t>(explorer_.clock());
}

std::size_t DecisionEngine::pending() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return pending_.size();
}

}  // namespace ncb::serve
