// The AQP Rewriter (paper §4, §5, Appendix G): converts a supported
// aggregate query plus a sample plan into a single SQL statement whose
// standard relational execution produces, per output group, an unbiased
// approximate answer and a variational-subsampling error estimate.
//
// Shape of the rewritten query (Appendix G, Query 9):
//
//   select g..., sum(e_k * ssize)/sum(ssize) as <agg>,
//          stddev(e_k)*sqrt(avg(ssize))/sqrt(sum(ssize)) as <agg>_err
//   from (select g..., <per-subsample unbiased estimates> as e_k,
//                <sid expr> as __vdb_sid, count(*) as __vdb_ssize
//         from <FROM with samples substituted> where ...
//         group by g..., <sid expr>) as __vdb_vt
//   group by g...
//
// Subsample ids follow the rule the sample plan records (docs/INVARIANTS.md,
// "Subsample-id contract"): (a) `1 + floor(rand()*b)` for the one sampled
// relation (§4.1, Query 3) — rand() is row-addressed (common/random.h), so
// the sid assignment is a pure function of the sample row and the query
// seed, and the rewritten query runs fully on the vectorized
// morsel-parallel substrate — or (b) hash blocks of the universe column for
// hashed samples (count-distinct and universe joins, §5.1). A plan that
// reads two samples without a universe column is rejected as Internal.

#ifndef VDB_CORE_REWRITER_H_
#define VDB_CORE_REWRITER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/options.h"
#include "core/query_classifier.h"
#include "core/sample_planner.h"
#include "sql/ast.h"

namespace vdb::core {

/// Description of one output column of the rewritten query.
struct RewrittenColumn {
  enum class Kind { kGroup, kEstimate, kError };
  Kind kind = Kind::kGroup;
  std::string name;
  /// kError: ordinal of the estimate column this error belongs to.
  int estimate_column = -1;
};

struct RewriteResult {
  std::unique_ptr<sql::SelectStmt> rewritten;
  std::vector<RewrittenColumn> columns;
  int b = 0;  // number of subsamples
};

class AqpRewriter {
 public:
  explicit AqpRewriter(const VerdictOptions& options) : options_(options) {}

  /// Rewrites a flat (non-nested) aggregate query.
  Result<RewriteResult> RewriteFlat(const sql::SelectStmt& original,
                                    const QueryClass& qc,
                                    const SamplePlan& plan);

  /// Rewrites the §5.2 nested pattern: an aggregate over a derived table
  /// that is itself a supported aggregate query. `qc_inner`/`plan_inner`
  /// describe the inner query; samples substitute into the inner FROM and
  /// the subsample structure is pushed down per Equation 6 / Query 7.
  ///
  /// `inner_group_hint` (estimated inner group count, <= 0 to ignore) caps b
  /// so that (group, sid) cells stay dense — sparse cells would bias the
  /// outer statistic toward occupied cells. Returns kUnsupported when even
  /// b = 4 cannot keep cells dense (the query then passes through).
  Result<RewriteResult> RewriteNested(const sql::SelectStmt& original,
                                      const QueryClass& qc_outer,
                                      const QueryClass& qc_inner,
                                      const SamplePlan& plan_inner,
                                      int64_t inner_group_hint = 0);

  /// Chooses the number of subsamples b for a sample of `sample_rows` rows:
  /// the paper's default ns = n^(1/2) implies b = n / ns = n^(1/2), taken as
  /// k^2 for k = round(n^(1/4)) in [3, 40]. No sid rule needs a square b.
  int ChooseB(uint64_t sample_rows) const;

 private:
  const VerdictOptions& options_;
};

}  // namespace vdb::core

#endif  // VDB_CORE_REWRITER_H_
