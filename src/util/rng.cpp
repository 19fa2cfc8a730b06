#include "util/rng.hpp"

#include <cmath>

namespace ncb {

std::uint64_t SplitMix64::next() noexcept {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Xoshiro256::Xoshiro256(std::uint64_t seed) noexcept {
  SplitMix64 mixer(seed);
  for (auto& word : state_) word = mixer.next();
}

std::uint64_t Xoshiro256::uniform_int(std::uint64_t n) noexcept {
  // Lemire's multiply-shift with rejection to remove modulo bias.
  std::uint64_t x = (*this)();
  __uint128_t m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(n);
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < n) {
    const std::uint64_t threshold = (~n + 1) % n;
    while (lo < threshold) {
      x = (*this)();
      m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(n);
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

double Xoshiro256::gaussian() noexcept {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double u, v, s;
  do {
    u = uniform(-1.0, 1.0);
    v = uniform(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  cached_gaussian_ = v * factor;
  has_cached_gaussian_ = true;
  return u * factor;
}

double Xoshiro256::gaussian(double mean, double stddev) noexcept {
  return mean + stddev * gaussian();
}

double Xoshiro256::gamma(double shape) noexcept {
  if (shape < 1.0) {
    // Boost to shape+1 and apply the standard correction.
    const double g = gamma(shape + 1.0);
    const double u = uniform();
    return g * std::pow(u > 0.0 ? u : 1e-300, 1.0 / shape);
  }
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x, v;
    do {
      x = gaussian();
      v = 1.0 + c * x;
    } while (v <= 0.0);
    v = v * v * v;
    const double u = uniform();
    if (u < 1.0 - 0.0331 * x * x * x * x) return d * v;
    if (u > 0.0 && std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) {
      return d * v;
    }
  }
}

double Xoshiro256::beta(double a, double b) noexcept {
  const double x = gamma(a);
  const double y = gamma(b);
  const double sum = x + y;
  return sum > 0.0 ? x / sum : 0.5;
}

void Xoshiro256::long_jump() noexcept {
  static constexpr std::uint64_t kJump[] = {
      0x76e15d3efefdcbbfULL, 0xc5004e441c522fb3ULL, 0x77710069854ee241ULL,
      0x39109bb02acbe635ULL};
  std::uint64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
  for (const std::uint64_t jump : kJump) {
    for (int bit = 0; bit < 64; ++bit) {
      if (jump & (1ULL << bit)) {
        s0 ^= state_[0];
        s1 ^= state_[1];
        s2 ^= state_[2];
        s3 ^= state_[3];
      }
      (*this)();
    }
  }
  state_ = {s0, s1, s2, s3};
}

std::uint64_t derive_seed_at(std::uint64_t master_seed,
                             std::uint64_t index) noexcept {
  // SplitMix64's state after k draws is master + k * gamma, so the stream
  // supports random access: jump the state, then mix once.
  SplitMix64 mixer(master_seed + index * 0x9e3779b97f4a7c15ULL);
  return mixer.next();
}

}  // namespace ncb
