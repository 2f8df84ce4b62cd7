// Physical operators that don't fit in the planner: hash join and
// cross join.

#ifndef VDB_ENGINE_OPERATORS_H_
#define VDB_ENGINE_OPERATORS_H_

#include <vector>

#include "common/governor.h"
#include "common/random.h"
#include "common/status.h"
#include "engine/table.h"
#include "sql/ast.h"

namespace vdb::engine {

/// Equi hash join of two row sets, producing pair lists. `left_keys` /
/// `right_keys` are borrowed key columns (same length, >= 1; each sized to
/// its side's row count) — a leaf's plain column refs borrow its table's
/// own columns, other keys pass columns the caller gathered or evaluated,
/// so the join never pads or copies its inputs. `residual` (may be null) is
/// a predicate already bound against the combined (left ++ right) schema,
/// applied to candidate pairs before null extension; it gathers only the
/// columns it reads. JoinType::kLeft emits unmatched left rows with
/// RowSet::kNullRightRow sentinels.
///
/// No per-row string keys anywhere: build and probe keys are hashed
/// column-at-a-time (engine/group_ids.h, ValueGroupKey-equivalent: NaN joins
/// NaN, -0.0 joins 0.0, 5 joins 5.0 across Int64/Double columns) into a flat
/// open-addressing JoinBuildTable. The build side is radix-partitioned and
/// built in parallel, and the probe runs morsel-parallel over left-row
/// ranges; pairs and their order are identical at every thread count, bit
/// for bit. The caller filters the returned pairs further (pushed-down
/// WHERE) and composes them with RowSet::Join.
/// `guard` (optional, nullptr = ungoverned) is polled at build and probe
/// morsel boundaries and charged for row-proportional buffers (build table,
/// probe pair lists) — a tripped guard unwinds with its Status.
Result<JoinPairs> HashJoinPairs(const RowSet& left, const RowSet& right,
                                const std::vector<const Column*>& left_keys,
                                const std::vector<const Column*>& right_keys,
                                sql::JoinType join_type,
                                const sql::Expr* residual, uint64_t rand_seed,
                                int num_threads = 1,
                                const ExecGuard* guard = nullptr);

/// HashJoinPairs over two whole tables + the full-width combined gather,
/// for callers that want the table.
Result<TablePtr> HashJoin(const Table& left, const Table& right,
                          const std::vector<const Column*>& left_keys,
                          const std::vector<const Column*>& right_keys,
                          sql::JoinType join_type, const sql::Expr* residual,
                          uint64_t rand_seed, int num_threads = 1,
                          const ExecGuard* guard = nullptr);

/// Ordinal convenience overload: joins on physical columns of the inputs.
Result<TablePtr> HashJoin(const Table& left, const Table& right,
                          const std::vector<int>& left_keys,
                          const std::vector<int>& right_keys,
                          sql::JoinType join_type, const sql::Expr* residual,
                          uint64_t rand_seed, int num_threads = 1);

/// Cross join of two row sets as pair lists, with an optional bound
/// residual predicate evaluated in streaming chunks. Guarded: errors if the
/// candidate pair count exceeds `max_pairs`.
Result<JoinPairs> CrossJoinPairs(const RowSet& left, const RowSet& right,
                                 const sql::Expr* residual,
                                 uint64_t rand_seed,
                                 size_t max_pairs = 200'000'000,
                                 int num_threads = 1,
                                 const ExecGuard* guard = nullptr);

/// CrossJoinPairs over two whole tables + the full-width combined gather.
Result<TablePtr> CrossJoin(const Table& left, const Table& right,
                           const sql::Expr* residual, uint64_t rand_seed,
                           size_t max_pairs = 200'000'000,
                           int num_threads = 1,
                           const ExecGuard* guard = nullptr);

}  // namespace vdb::engine

#endif  // VDB_ENGINE_OPERATORS_H_
