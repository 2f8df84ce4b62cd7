// Fixture: row-interpreter-call must fire on both per-row interpreter calls
// (path contains src/), but NOT on the batch evaluator call.
#include <vector>

namespace vdb::engine {

Status FillPerRow(const Expr& e, const Table& t, std::vector<Value>* out) {
  for (size_t r = 0; r < t.num_rows(); ++r) {
    auto v = EvalExpr(e, RowCtx{&t, r});                 // fires
    if (!v.ok()) return v.status();
    out->push_back(std::move(v).ValueOrDie());
  }
  return Status::Ok();
}

bool AnyRowMatches(const Expr& pred, const Table& t) {
  for (size_t r = 0; r < t.num_rows(); ++r) {
    if (EvalPredicate(pred, RowCtx{&t, r}).value()) return true;  // fires
  }
  return false;
}

Result<Column> FillBatch(const Expr& e, const Batch& b) {
  return EvalExprBatch(e, b);                            // does not fire
}

}  // namespace vdb::engine
