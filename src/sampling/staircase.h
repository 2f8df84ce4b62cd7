// Probabilistic stratified sampling support (paper §3.2, Lemma 1).
//
// VerdictDB guarantees at least m tuples per stratum with probability 1-δ
// by Bernoulli-sampling each stratum with probability f_m(n) — computable
// from the normal approximation of the binomial — and approximates the
// per-stratum probability with a *staircase* CASE expression so the whole
// sampling step is a single standard SELECT.

#ifndef VDB_SAMPLING_STAIRCASE_H_
#define VDB_SAMPLING_STAIRCASE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace vdb::sampling {

/// Lemma 1: the smallest Bernoulli probability p such that sampling n tuples
/// independently with probability p yields at least m tuples with
/// probability >= 1 - delta. Returns 1.0 when no p < 1 suffices.
double RequiredSamplingProb(int64_t n, int64_t m, double delta);

/// One step of the staircase: strata with size <= `max_size` use `prob`.
struct StaircaseStep {
  int64_t max_size;
  double prob;
};

/// Builds a staircase upper-bounding f_m(n) over stratum sizes in
/// [1, max_stratum]: bucket boundaries grow geometrically by `growth`, and
/// each bucket uses f_m evaluated at its *lower* end (f_m decreases in n, so
/// this upper-bounds the exact probability, preserving the guarantee).
std::vector<StaircaseStep> BuildStaircase(int64_t max_stratum, int64_t m,
                                          double delta, double growth = 1.2);

/// The staircase as SQL text over `size_column`, e.g.
/// `case when (strata_size <= 100) then 1.0 when ... else 0.01 end`; a
/// one-step staircase is its probability alone.
std::string StaircaseCaseSql(const std::vector<StaircaseStep>& steps,
                             const std::string& size_column);

}  // namespace vdb::sampling

#endif  // VDB_SAMPLING_STAIRCASE_H_
