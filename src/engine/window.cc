#include "engine/window.h"

#include <memory>
#include <vector>

#include "engine/agg_table.h"
#include "engine/aggregates.h"
#include "engine/vector_eval.h"

namespace vdb::engine {

Result<Column> EvalWindowExpr(const sql::Expr& e, const Table& table,
                              uint64_t rand_seed) {
  if (e.kind != sql::ExprKind::kFunction || !e.is_window) {
    return Status::Internal("EvalWindowExpr on a non-window expression");
  }
  auto spec = AggSpecFromCall(e);
  if (!spec.ok()) return spec.status();
  auto made = CreateFlatAggregator(spec.value());
  if (!made.ok()) return made.status();
  std::unique_ptr<FlatAggregator> agg = std::move(made).ValueOrDie();

  const size_t n = table.num_rows();
  // Partition ids: evaluate each PARTITION BY expression column-at-a-time
  // and assign dense ids through the flat group table — hashed typed lanes
  // instead of the per-row string-key concatenation this loop used to build.
  // AssignGroupIds' partition matches ValueGroupKey's equivalence (NULL with
  // NULL, NaN with NaN, -0.0 with 0.0, 5 with 5.0) and numbers partitions in
  // first-occurrence order, exactly like the string map did.
  std::vector<Column> pcols;
  pcols.reserve(e.partition_by.size());
  Batch batch{&table, nullptr, rand_seed, 0, Batch::kWholeTable, 0};
  for (const auto& p : e.partition_by) {
    auto c = EvalExprBatch(*p, batch);
    if (!c.ok()) return c.status();
    pcols.push_back(std::move(c).ValueOrDie());
  }
  std::vector<const Column*> pptrs;
  pptrs.reserve(pcols.size());
  for (const auto& pc : pcols) pptrs.push_back(&pc);
  VDB_RETURN_IF_ERROR(CheckGroupableRows(n));
  const GroupAssignment ga = AssignGroupIds(pptrs, n);

  // The argument column: a bound column ref is read in place (as the
  // grouped driver does); any other expression is evaluated over the whole
  // frame as one batch. `*` passes no column.
  const sql::Expr* arg = spec.value().arg;
  Column owned;
  const Column* col = nullptr;
  if (arg != nullptr && arg->kind == sql::ExprKind::kColumnRef &&
      arg->bound_column >= 0) {
    col = &table.column(static_cast<size_t>(arg->bound_column));
  } else if (arg != nullptr) {
    auto c = EvalExprBatch(*arg, batch);
    if (!c.ok()) return c.status();
    owned = std::move(c).ValueOrDie();
    col = &owned;
  }

  // Every partition starts empty and receives its rows, in row order, as
  // one batch.
  agg->ResizeGroups(ga.num_groups());
  agg->Scatter(col, 0, nullptr, ga.gid_of_row.data(), n);
  // Every row takes its partition's result: one gather by gid. The
  // finalized column already has Column::Append's types, so the gather
  // builds what appending each row's Value would.
  const Column results = agg->FinalizeColumn(ga.num_groups());
  Column out;
  out.AppendSelected(results, ga.gid_of_row.data(), n);
  return out;
}

}  // namespace vdb::engine
