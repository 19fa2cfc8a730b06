// Deterministic, splittable random number generation.
//
// The simulation engine runs many replications in parallel; each replication
// derives an independent stream from a master seed via SplitMix64 so results
// are reproducible regardless of thread scheduling. The per-draw members
// (operator(), uniform, bernoulli) are inline so a caller's loop can keep
// the 256-bit state in registers across draws.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace ncb {

/// SplitMix64: tiny, high-quality 64-bit mixer. Used to seed Xoshiro streams
/// and to derive per-replication seeds from a master seed.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  /// Next 64-bit value.
  std::uint64_t next() noexcept;

 private:
  std::uint64_t state_;
};

/// Xoshiro256++ PRNG (Blackman & Vigna). Fast, 256-bit state, suitable for
/// Monte-Carlo simulation. Satisfies UniformRandomBitGenerator.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  /// Seeds the full 256-bit state from a 64-bit seed via SplitMix64.
  explicit Xoshiro256(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~result_type{0}; }

  result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1): the 53 high bits of one draw, times 2^-53.
  double uniform() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t uniform_int(std::uint64_t n) noexcept;

  /// Bernoulli draw with success probability p (clamped to [0,1]); p ≤ 0
  /// and p ≥ 1 consume no draw.
  bool bernoulli(double p) noexcept {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform() < p;
  }

  /// Standard normal via Marsaglia polar method.
  double gaussian() noexcept;

  /// Normal with the given mean and standard deviation.
  double gaussian(double mean, double stddev) noexcept;

  /// Gamma(shape, 1) via Marsaglia-Tsang; shape > 0.
  double gamma(double shape) noexcept;

  /// Beta(a, b) via two gamma draws; a, b > 0.
  double beta(double a, double b) noexcept;

  /// Equivalent of the long-jump function: advances the stream by 2^192
  /// draws, producing a non-overlapping substream.
  void long_jump() noexcept;

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
  double cached_gaussian_ = 0.0;
  bool has_cached_gaussian_ = false;
};

/// The index-th of the independent 64-bit seeds derived from `master_seed`:
/// O(1) random access into the SplitMix64 stream seeded with it (the
/// (index + 1)-th next()). Lets a shard seed its replications without
/// generating the whole seed prefix, so sharded and sequential drivers draw
/// bit-identical per-replication streams.
[[nodiscard]] std::uint64_t derive_seed_at(std::uint64_t master_seed,
                                           std::uint64_t index) noexcept;

/// Fisher-Yates shuffle of a vector using the given generator.
template <typename T>
void shuffle(std::vector<T>& v, Xoshiro256& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    const std::size_t j = rng.uniform_int(i);
    std::swap(v[i - 1], v[j]);
  }
}

}  // namespace ncb
