// Reward distributions with support in [0, 1] (paper §II assumes all P_i
// have support in [0,1]; every concrete distribution here enforces that).
#pragma once

#include <memory>
#include <string>

#include "util/rng.hpp"

namespace ncb {

/// Abstract i.i.d. reward distribution of one arm.
class Distribution {
 public:
  virtual ~Distribution() = default;

  /// Draws one sample; always in [0, 1].
  [[nodiscard]] virtual double sample(Xoshiro256& rng) const = 0;

  /// Exact mean μ of the distribution.
  [[nodiscard]] virtual double mean() const noexcept = 0;

  /// Deep copy.
  [[nodiscard]] virtual std::unique_ptr<Distribution> clone() const = 0;

  /// Human-readable description, e.g. "Bernoulli(0.42)".
  [[nodiscard]] virtual std::string name() const = 0;
};

using DistributionPtr = std::unique_ptr<Distribution>;

/// Bernoulli(p): reward 1 w.p. p, else 0. The paper's simulation default.
class BernoulliDist final : public Distribution {
 public:
  explicit BernoulliDist(double p);
  [[nodiscard]] double sample(Xoshiro256& rng) const override;
  [[nodiscard]] double mean() const noexcept override { return p_; }
  [[nodiscard]] DistributionPtr clone() const override;
  [[nodiscard]] std::string name() const override;

 private:
  double p_;
};

/// Beta(a, b), naturally supported on [0, 1].
class BetaDist final : public Distribution {
 public:
  BetaDist(double a, double b);
  [[nodiscard]] double sample(Xoshiro256& rng) const override;
  [[nodiscard]] double mean() const noexcept override { return a_ / (a_ + b_); }
  [[nodiscard]] DistributionPtr clone() const override;
  [[nodiscard]] std::string name() const override;

 private:
  double a_, b_;
};

/// Uniform on [lo, hi] ⊆ [0, 1].
class UniformDist final : public Distribution {
 public:
  UniformDist(double lo, double hi);
  [[nodiscard]] double sample(Xoshiro256& rng) const override;
  [[nodiscard]] double mean() const noexcept override { return 0.5 * (lo_ + hi_); }
  [[nodiscard]] DistributionPtr clone() const override;
  [[nodiscard]] std::string name() const override;

 private:
  double lo_, hi_;
};

/// Gaussian(mu, sigma) with samples clipped into [0, 1]. The clipping biases
/// the mean slightly; `mean()` reports the exact clipped-Gaussian mean.
class ClippedGaussianDist final : public Distribution {
 public:
  ClippedGaussianDist(double mu, double sigma);
  [[nodiscard]] double sample(Xoshiro256& rng) const override;
  [[nodiscard]] double mean() const noexcept override { return clipped_mean_; }
  [[nodiscard]] DistributionPtr clone() const override;
  [[nodiscard]] std::string name() const override;

 private:
  double mu_, sigma_, clipped_mean_;
};

/// Degenerate distribution: always `value`. Useful in tests.
class ConstantDist final : public Distribution {
 public:
  explicit ConstantDist(double value);
  [[nodiscard]] double sample(Xoshiro256& rng) const override;
  [[nodiscard]] double mean() const noexcept override { return value_; }
  [[nodiscard]] DistributionPtr clone() const override;
  [[nodiscard]] std::string name() const override;

 private:
  double value_;
};

}  // namespace ncb
