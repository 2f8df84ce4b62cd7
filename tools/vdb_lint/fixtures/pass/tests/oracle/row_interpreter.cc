// Fixture counterpart to fail/src/engine/row_loop.cc: the row interpreter is
// a test oracle outside src/, so it recurses through EvalExpr/EvalPredicate
// freely.
namespace vdb::engine {

Result<bool> EvalPredicate(const Expr& e, const RowCtx& ctx) {
  auto v = EvalExpr(e, ctx);
  if (!v.ok()) return v.status();
  return v.value().AsBool();
}

}  // namespace vdb::engine
