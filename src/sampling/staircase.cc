#include "sampling/staircase.h"

#include <algorithm>
#include <cmath>

#include "common/stats_math.h"
#include "sql/printer.h"

namespace vdb::sampling {

namespace {

/// g(p; n) from Lemma 1: the (1-delta)-quantile lower bound on the number of
/// sampled tuples under the normal approximation of Binomial(n, p):
///   g(p; n) = sqrt(2 n p (1-p)) * erfcinv(2 (1-delta)) + n p.
/// Note erfcinv(2(1-delta)) is negative for delta < 0.5, so g(p) < n p.
double LowerBoundCount(double p, int64_t n, double delta) {
  const double z = vdb::ErfcInv(2.0 * (1.0 - delta));
  const double nn = static_cast<double>(n);
  return std::sqrt(2.0 * nn * p * (1.0 - p)) * z + nn * p;
}

}  // namespace

double RequiredSamplingProb(int64_t n, int64_t m, double delta) {
  if (m <= 0) return 0.0;
  if (m >= n) return 1.0;
  // g(p; n) is monotone increasing in p over (0, 1) for the regimes we use
  // (n p >> 1); binary-search the smallest p with g(p) >= m.
  double lo = static_cast<double>(m) / static_cast<double>(n);  // g(lo) < m
  double hi = 1.0;
  if (LowerBoundCount(hi, n, delta) < static_cast<double>(m)) return 1.0;
  for (int iter = 0; iter < 80; ++iter) {
    double mid = 0.5 * (lo + hi);
    if (LowerBoundCount(mid, n, delta) >= static_cast<double>(m)) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return std::min(1.0, hi);
}

std::vector<StaircaseStep> BuildStaircase(int64_t max_stratum, int64_t m,
                                          double delta, double growth) {
  std::vector<StaircaseStep> steps;
  // Strata with at most m tuples keep everything.
  steps.push_back(StaircaseStep{m, 1.0});
  double bound = static_cast<double>(m);
  while (static_cast<int64_t>(bound) < max_stratum) {
    double next = std::max(bound * growth, bound + 1.0);
    int64_t lower = static_cast<int64_t>(bound) + 1;  // bucket (bound, next]
    int64_t upper = std::min(static_cast<int64_t>(next), max_stratum);
    // f_m decreases in n: evaluating at the bucket's lower end upper-bounds
    // the exact per-stratum probability, so the >= m guarantee holds for the
    // whole bucket.
    steps.push_back(StaircaseStep{upper, RequiredSamplingProb(lower, m, delta)});
    bound = next;
  }
  return steps;
}

std::string StaircaseCaseSql(const std::vector<StaircaseStep>& steps,
                             const std::string& size_column) {
  // The last step covers everything larger, so it is the ELSE branch; a
  // one-step staircase is its probability alone (a CASE needs a WHEN).
  const std::string last =
      sql::PrintDouble(steps.empty() ? 1.0 : steps.back().prob);
  if (steps.size() <= 1) return last;
  std::string out = "case";
  for (size_t i = 0; i + 1 < steps.size(); ++i) {
    out += " when (" + size_column + " <= " +
           std::to_string(steps[i].max_size) + ") then " +
           sql::PrintDouble(steps[i].prob);
  }
  return out + " else " + last + " end";
}

}  // namespace vdb::sampling
