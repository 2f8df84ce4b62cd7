// Row-at-a-time expression interpreter over bound expressions.

#ifndef VDB_ENGINE_EXPR_EVAL_H_
#define VDB_ENGINE_EXPR_EVAL_H_

#include "common/random.h"
#include "common/status.h"
#include "engine/table.h"
#include "sql/ast.h"

namespace vdb::engine {

/// Evaluation context: the current input row plus the row-addressed rand
/// state. `rand_seed` is the per-statement query seed; `row_id_offset` maps
/// local rows of a scratch table onto global row ids (join pair-chunk
/// evaluation) and is 0 everywhere else. rand-family draws are
/// CounterRandom(rand_seed, row + row_id_offset, node.rand_site).
struct RowCtx {
  const Table* table = nullptr;
  size_t row = 0;
  uint64_t rand_seed = 0;
  uint64_t row_id_offset = 0;
};

/// Evaluates a bound expression for one row: function calls dispatch on the
/// id the bind step resolved (engine/binder.h), so aggregates and windows —
/// which the binder rejects in row context and the planner rewrites into
/// column references — never get here. NULL semantics follow SQL
/// (three-valued logic for AND/OR/NOT, null-propagation elsewhere).
Result<Value> EvalExpr(const sql::Expr& e, const RowCtx& ctx);

/// Evaluates a predicate: true only if the value is non-null and true.
Result<bool> EvalPredicate(const sql::Expr& e, const RowCtx& ctx);

/// Combines two already-evaluated operands of a non-logical binary operator
/// (arithmetic, comparison, LIKE) with NULL propagation. Shared between the
/// row interpreter and the batch evaluator's mixed-type lanes so the two
/// cannot drift.
Result<Value> ApplyBinaryOp(sql::BinaryOp op, const Value& l, const Value& r);

/// Unary minus with NULL propagation (Int64 stays integral).
Value NegateValue(const Value& v);

}  // namespace vdb::engine

#endif  // VDB_ENGINE_EXPR_EVAL_H_
