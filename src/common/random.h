// Deterministic pseudo-random number generation: a stateful stream generator
// (Rng) for offline/estimator code, and a stateless row-addressed counter
// generator for everything the query engine evaluates.
//
// Reproducibility contract — row-addressed, NOT draw-ordered:
//
// Every rand-family draw the engine performs (rand(), rand_poisson(),
// Bernoulli sample membership, variational __vdb_sid assignment) is a pure
// function of a (query seed, physical row id, call-site id) triple mixed by
// CounterRandom(). There is no shared stream and no draw order: the value a
// row receives does not depend on evaluation order, plan shape (WHERE
// pushdown, view pipeline vs eager gather), morsel decomposition, or thread
// count. Seeded runs are reproducible because the Database draws one fresh
// query seed per statement from its seeded Rng, call sites are numbered
// deterministically per statement, and row ids are physical positions in the
// evaluated relation (global pair ordinals for join pair views — which equal
// the materialized row positions, so pushed-down and post-gather evaluation
// of the same predicate see identical draws).
//
// The stateful Rng (xoshiro256**) remains for code with a genuine sequential
// stream: workload generation, estimator resampling, and per-statement query
// seed derivation. Neither generator is cryptographic.

#ifndef VDB_COMMON_RANDOM_H_
#define VDB_COMMON_RANDOM_H_

#include <cstdint>

namespace vdb {

// ---- Row-addressed counter-based randomness --------------------------------

/// Addresses one logical engine draw: the per-statement query seed, the
/// physical row id the draw belongs to, and the call-site id of the
/// rand-family node within the statement (so two rand() calls in one query
/// are independent).
struct RandAddr {
  uint64_t seed = 0;
  uint64_t row = 0;
  uint64_t site = 0;
};

/// The SplitMix64 finalizer: the single mixing round CounterRandom chains.
/// Inline here because the SIMD kernel layer (engine/kernels) carries a
/// 4-lane vectorization of this exact constant/shift chain, and the scalar
/// reference path must inline the identical formula.
inline uint64_t SplitMix64Finalize(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Stateless SplitMix64-style finalizer chain over (seed, row, site).
/// Uniform 64-bit output; equal triples give equal values, nearby triples
/// (row+1, site+1) give statistically independent ones.
///
/// Three chained finalizer rounds: feeding each word through a full
/// SplitMix64Finalize (rather than one mix of a linear combination) breaks
/// the lattice structure that a*row + b*site inputs would otherwise share.
inline uint64_t CounterRandom(uint64_t seed, uint64_t row, uint64_t site) {
  uint64_t h = SplitMix64Finalize(seed ^ (row + 0x9E3779B97F4A7C15ull));
  h = SplitMix64Finalize(h ^ (site + 0xD1B54A32D192ED03ull));
  return SplitMix64Finalize(h);
}

/// Uniform double in [0, 1) for the addressed draw (53 high bits).
inline double CounterRandomDouble(uint64_t seed, uint64_t row, uint64_t site) {
  return static_cast<double>(CounterRandom(seed, row, site) >> 11) * 0x1.0p-53;
}

inline double RandAt(const RandAddr& a) {
  return CounterRandomDouble(a.seed, a.row, a.site);
}

/// Poisson(1) via the inverse CDF from one uniform u in [0, 1). The single
/// shared kernel behind SQL rand_poisson() and the consolidated-bootstrap
/// estimator; the walk runs until the CDF absorbs u (far beyond the old
/// k < 8 truncation, which clipped the upper tail).
int PoissonOneFromUniform(double u);

// ---- Stateful stream generator ---------------------------------------------

/// xoshiro256** generator seeded via SplitMix64. Not cryptographic.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ull);

  /// Uniform 64-bit integer.
  uint64_t Next();

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform integer in [0, bound), unbiased: Lemire multiply-shift with
  /// rejection of the short biased range, so subsample-size uniformity holds
  /// even at large bounds. bound must be > 0. May consume more than one
  /// Next() draw (rarely, ~bound/2^64 of calls).
  uint64_t NextBounded(uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive.
  int64_t NextInRange(int64_t lo, int64_t hi);

  /// Standard normal via Box-Muller.
  double NextGaussian();

  /// Bernoulli trial with probability p.
  bool NextBernoulli(double p) { return NextDouble() < p; }

 private:
  uint64_t s_[4];
  bool has_gauss_ = false;
  double gauss_ = 0.0;
};

}  // namespace vdb

#endif  // VDB_COMMON_RANDOM_H_
