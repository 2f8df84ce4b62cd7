// Row-at-a-time expression interpreter over bound expressions: the oracle
// the differential suites compare the batch evaluator (engine/vector_eval.h)
// against. It is not part of the library; production code evaluates
// column-at-a-time.

#ifndef VDB_TESTS_ORACLE_ROW_INTERPRETER_H_
#define VDB_TESTS_ORACLE_ROW_INTERPRETER_H_

#include "common/random.h"
#include "common/status.h"
#include "engine/table.h"
#include "sql/ast.h"

namespace vdb::engine {

/// Evaluation context: the current input row plus the row-addressed rand
/// state. `rand_seed` is the per-statement query seed; `row_id_offset` maps
/// local rows of a scratch table onto global row ids, as Batch does.
/// rand-family draws are CounterRandom(rand_seed, row + row_id_offset,
/// node.rand_site).
struct RowCtx {
  const Table* table = nullptr;
  size_t row = 0;
  uint64_t rand_seed = 0;
  uint64_t row_id_offset = 0;
};

/// Evaluates a bound expression for one row: function calls dispatch on the
/// id the bind step resolved (engine/binder.h) through CallScalarFunction.
/// NULL semantics follow SQL (three-valued logic for AND/OR/NOT, with
/// per-row short-circuit; null-propagation elsewhere).
Result<Value> EvalExpr(const sql::Expr& e, const RowCtx& ctx);

/// Evaluates a predicate: true only if the value is non-null and true.
Result<bool> EvalPredicate(const sql::Expr& e, const RowCtx& ctx);

}  // namespace vdb::engine

#endif  // VDB_TESTS_ORACLE_ROW_INTERPRETER_H_
