// Window-function evaluation: `agg(expr) OVER (PARTITION BY cols)`.
//
// Only partitioned aggregates (no ordering / frames) are supported — exactly
// the form VerdictDB's rewritten queries need, e.g.
// `sum(count(*)) over (partition by group_col)` (paper Appendix G, Query 9).

#ifndef VDB_ENGINE_WINDOW_H_
#define VDB_ENGINE_WINDOW_H_

#include "common/random.h"
#include "common/status.h"
#include "engine/table.h"
#include "sql/ast.h"

namespace vdb::engine {

/// Evaluates a bound window expression over every row of `table`, returning
/// one result column aligned with the input rows. `e.args[0]` and each
/// partition expression must already be bound against `table`'s scope.
/// `rand_seed` is the per-statement query seed (row-addressed rand draws).
/// Every aggregate runs on its CreateFlatAggregator lanes: each partition
/// gets its rows, in row order, as one batch.
Result<Column> EvalWindowExpr(const sql::Expr& e, const Table& table,
                              uint64_t rand_seed);

}  // namespace vdb::engine

#endif  // VDB_ENGINE_WINDOW_H_
