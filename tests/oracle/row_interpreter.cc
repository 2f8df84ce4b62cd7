// The row interpreter: an independent per-row tree walk over bound
// expressions. Per-value semantics (CallScalarFunction, ApplyBinaryOp,
// NegateValue) are the library's own, so the walk is what it checks.

#include "oracle/row_interpreter.h"

#include "engine/functions.h"

namespace vdb::engine {

using sql::BinaryOp;
using sql::Expr;
using sql::ExprKind;
using sql::UnaryOp;

namespace {

// Three-valued logic encoding: -1 unknown, 0 false, 1 true.
int Tri(const Value& v) { return v.is_null() ? -1 : (v.AsBool() ? 1 : 0); }
Value FromTri(int t) {
  if (t < 0) return Value::Null();
  return Value::Bool(t == 1);
}

Result<Value> EvalBinary(const Expr& e, const RowCtx& ctx) {
  // AND / OR need lazy / three-valued handling.
  if (e.binary_op == BinaryOp::kAnd || e.binary_op == BinaryOp::kOr) {
    auto lv = EvalExpr(*e.args[0], ctx);
    if (!lv.ok()) return lv.status();
    int l = Tri(lv.value());
    if (e.binary_op == BinaryOp::kAnd && l == 0) return Value::Bool(false);
    if (e.binary_op == BinaryOp::kOr && l == 1) return Value::Bool(true);
    auto rv = EvalExpr(*e.args[1], ctx);
    if (!rv.ok()) return rv.status();
    int r = Tri(rv.value());
    if (e.binary_op == BinaryOp::kAnd) {
      if (l == 0 || r == 0) return Value::Bool(false);
      if (l == 1 && r == 1) return Value::Bool(true);
      return Value::Null();
    }
    if (l == 1 || r == 1) return Value::Bool(true);
    if (l == 0 && r == 0) return Value::Bool(false);
    return Value::Null();
  }

  auto lv = EvalExpr(*e.args[0], ctx);
  if (!lv.ok()) return lv.status();
  auto rv = EvalExpr(*e.args[1], ctx);
  if (!rv.ok()) return rv.status();
  return ApplyBinaryOp(e.binary_op, lv.value(), rv.value());
}

}  // namespace

Result<Value> EvalExpr(const Expr& e, const RowCtx& ctx) {
  switch (e.kind) {
    case ExprKind::kLiteral:
      return e.literal;
    case ExprKind::kColumnRef:
      if (e.bound_column < 0) {
        return Status::Internal("unbound column reference: " + e.name);
      }
      return ctx.table->Get(ctx.row, static_cast<size_t>(e.bound_column));
    case ExprKind::kStar:
      return Status::Internal("'*' outside count(*) / select list");
    case ExprKind::kUnary: {
      auto v = EvalExpr(*e.args[0], ctx);
      if (!v.ok()) return v.status();
      if (e.unary_op == UnaryOp::kNot) {
        int t = Tri(v.value());
        return FromTri(t < 0 ? -1 : 1 - t);
      }
      return NegateValue(v.value());
    }
    case ExprKind::kBinary:
      return EvalBinary(e, ctx);
    case ExprKind::kFunction: {
      std::vector<Value> argv;
      argv.reserve(e.args.size());
      for (const auto& a : e.args) {
        auto v = EvalExpr(*a, ctx);
        if (!v.ok()) return v.status();
        argv.push_back(std::move(v).ValueOrDie());
      }
      return CallScalarFunction(
          BoundScalarFn(e), argv,
          RandAddr{ctx.rand_seed, ctx.row + ctx.row_id_offset,
                   static_cast<uint64_t>(e.rand_site)});
    }
    case ExprKind::kCase: {
      for (size_t i = 0; i < e.case_whens.size(); ++i) {
        auto c = EvalExpr(*e.case_whens[i], ctx);
        if (!c.ok()) return c.status();
        if (!c.value().is_null() && c.value().AsBool()) {
          return EvalExpr(*e.case_thens[i], ctx);
        }
      }
      if (e.case_else) return EvalExpr(*e.case_else, ctx);
      return Value::Null();
    }
    case ExprKind::kIsNull: {
      auto v = EvalExpr(*e.args[0], ctx);
      if (!v.ok()) return v.status();
      bool isnull = v.value().is_null();
      return Value::Bool(e.negated ? !isnull : isnull);
    }
    case ExprKind::kInList: {
      auto v = EvalExpr(*e.args[0], ctx);
      if (!v.ok()) return v.status();
      if (v.value().is_null()) return Value::Null();
      bool any_null = false;
      for (size_t i = 1; i < e.args.size(); ++i) {
        auto item = EvalExpr(*e.args[i], ctx);
        if (!item.ok()) return item.status();
        if (item.value().is_null()) {
          any_null = true;
          continue;
        }
        if (v.value().Equals(item.value())) {
          return Value::Bool(!e.negated);
        }
      }
      if (any_null) return Value::Null();
      return Value::Bool(e.negated);
    }
    case ExprKind::kBetween: {
      auto v = EvalExpr(*e.args[0], ctx);
      if (!v.ok()) return v.status();
      auto lo = EvalExpr(*e.args[1], ctx);
      if (!lo.ok()) return lo.status();
      auto hi = EvalExpr(*e.args[2], ctx);
      if (!hi.ok()) return hi.status();
      if (v.value().is_null() || lo.value().is_null() || hi.value().is_null()) {
        return Value::Null();
      }
      bool in = v.value().Compare(lo.value()) >= 0 &&
                v.value().Compare(hi.value()) <= 0;
      return Value::Bool(e.negated ? !in : in);
    }
    case ExprKind::kSubquery:
    case ExprKind::kExists:
      return Status::Internal("unresolved subquery reached the evaluator");
  }
  return Status::Internal("unhandled expression kind");
}

Result<bool> EvalPredicate(const Expr& e, const RowCtx& ctx) {
  auto v = EvalExpr(e, ctx);
  if (!v.ok()) return v.status();
  return !v.value().is_null() && v.value().AsBool();
}

}  // namespace vdb::engine
