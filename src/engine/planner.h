// Select-statement execution (binding, aggregation, windows, projection).

#ifndef VDB_ENGINE_PLANNER_H_
#define VDB_ENGINE_PLANNER_H_

#include "common/governor.h"
#include "common/status.h"
#include "engine/database.h"
#include "sql/ast.h"

namespace vdb::engine {

/// Executes `stmt` against `db`. The statement is mutated during binding;
/// callers who need to keep the AST pass a clone (Database::ExecuteSelect
/// does this automatically). `guard` (optional, nullptr = ungoverned) is the
/// per-statement execution guard: it is threaded into every parallel region,
/// join build/probe, group-table growth, and gather the statement performs,
/// and a tripped guard (cancel / deadline / budget) unwinds the whole
/// statement with kCancelled / kDeadlineExceeded / kResourceExhausted.
Result<ResultSet> RunSelect(Database* db, sql::SelectStmt* stmt,
                            const ExecGuard* guard = nullptr);

/// Test hook: disables the pair-view WHERE pushdown (the planner's
/// filter-before-gather path for FROM-root joins), forcing the post-gather
/// WHERE instead. Results must be bit-identical either way — including
/// rand()-bearing predicates, whose draws address the global pair ordinal =
/// materialized row. true restores the default (pushdown on).
void SetJoinWherePushdownForTest(bool enabled);

}  // namespace vdb::engine

#endif  // VDB_ENGINE_PLANNER_H_
