#include "common/random.h"

#include <cmath>

namespace vdb {

namespace {
inline uint64_t SplitMix64(uint64_t& x) {
  return SplitMix64Finalize(x += 0x9E3779B97F4A7C15ull);
}
inline uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
}  // namespace

int PoissonOneFromUniform(double u) {
  int k = 0;
  double p = std::exp(-1.0), cdf = p;
  // cdf stops changing once p falls below one ulp of 1.0 (k ~ 18); the cap
  // is a safety net, not a distributional truncation.
  while (u > cdf && k < 64) {
    ++k;
    p /= static_cast<double>(k);
    if (p <= 0.0) break;
    cdf += p;
  }
  return k;
}

Rng::Rng(uint64_t seed) {
  uint64_t x = seed;
  for (auto& s : s_) s = SplitMix64(x);
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

double Rng::NextDouble() {
  // 53 high bits -> [0, 1).
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

uint64_t Rng::NextBounded(uint64_t bound) {
  // Lemire multiply-shift: (x * bound) >> 64 maps uniformly onto [0, bound)
  // except for the 2^64 mod bound lowest fractional values, which are
  // rejected and redrawn.
  uint64_t x = Next();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  uint64_t lo = static_cast<uint64_t>(m);
  if (lo < bound) {
    const uint64_t threshold = (0 - bound) % bound;  // 2^64 mod bound
    while (lo < threshold) {
      x = Next();
      m = static_cast<__uint128_t>(x) * bound;
      lo = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

int64_t Rng::NextInRange(int64_t lo, int64_t hi) {
  return lo + static_cast<int64_t>(NextBounded(static_cast<uint64_t>(hi - lo + 1)));
}

double Rng::NextGaussian() {
  if (has_gauss_) {
    has_gauss_ = false;
    return gauss_;
  }
  double u1 = 0.0;
  while (u1 <= 1e-300) u1 = NextDouble();
  double u2 = NextDouble();
  double r = std::sqrt(-2.0 * std::log(u1));
  double theta = 2.0 * M_PI * u2;
  gauss_ = r * std::sin(theta);
  has_gauss_ = true;
  return r * std::cos(theta);
}

}  // namespace vdb
