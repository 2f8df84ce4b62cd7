#include "sql/ast.h"

namespace vdb::sql {

Expr::Ptr Expr::Clone() const {
  auto e = std::make_unique<Expr>(kind);
  e->literal = literal;
  e->qualifier = qualifier;
  e->name = name;
  e->unary_op = unary_op;
  e->binary_op = binary_op;
  for (const auto& a : args) e->args.push_back(a ? a->Clone() : nullptr);
  for (const auto& w : case_whens) e->case_whens.push_back(w->Clone());
  for (const auto& t : case_thens) e->case_thens.push_back(t->Clone());
  if (case_else) e->case_else = case_else->Clone();
  e->distinct = distinct;
  for (const auto& p : partition_by) e->partition_by.push_back(p->Clone());
  e->is_window = is_window;
  if (subquery) e->subquery = subquery->Clone();
  e->negated = negated;
  e->bound_column = bound_column;
  e->bound_agg = bound_agg;
  e->rand_site = rand_site;
  e->scalar_fn = scalar_fn;
  return e;
}

Expr::Ptr MakeLiteral(Value v) {
  auto e = std::make_unique<Expr>(ExprKind::kLiteral);
  e->literal = std::move(v);
  return e;
}

Expr::Ptr MakeIntLit(int64_t v) { return MakeLiteral(Value::Int(v)); }
Expr::Ptr MakeDoubleLit(double v) { return MakeLiteral(Value::Double(v)); }
Expr::Ptr MakeStringLit(std::string s) {
  return MakeLiteral(Value::String(std::move(s)));
}

Expr::Ptr MakeColumnRef(std::string qualifier, std::string name) {
  auto e = std::make_unique<Expr>(ExprKind::kColumnRef);
  e->qualifier = std::move(qualifier);
  e->name = std::move(name);
  return e;
}

Expr::Ptr MakeStar() { return std::make_unique<Expr>(ExprKind::kStar); }

Expr::Ptr MakeUnary(UnaryOp op, Expr::Ptr operand) {
  auto e = std::make_unique<Expr>(ExprKind::kUnary);
  e->unary_op = op;
  e->args.push_back(std::move(operand));
  return e;
}

Expr::Ptr MakeBinary(BinaryOp op, Expr::Ptr lhs, Expr::Ptr rhs) {
  auto e = std::make_unique<Expr>(ExprKind::kBinary);
  e->binary_op = op;
  e->args.push_back(std::move(lhs));
  e->args.push_back(std::move(rhs));
  return e;
}

Expr::Ptr MakeFunction(std::string name, std::vector<Expr::Ptr> args) {
  auto e = std::make_unique<Expr>(ExprKind::kFunction);
  e->name = std::move(name);
  e->args = std::move(args);
  return e;
}

Expr::Ptr AndAll(std::vector<Expr::Ptr> conjuncts) {
  Expr::Ptr acc;
  for (auto& c : conjuncts) {
    if (!c) continue;
    if (!acc) {
      acc = std::move(c);
    } else {
      acc = MakeBinary(BinaryOp::kAnd, std::move(acc), std::move(c));
    }
  }
  return acc;
}

TableRef::Ptr TableRef::Clone() const {
  auto t = std::make_unique<TableRef>(kind);
  t->table_name = table_name;
  t->alias = alias;
  if (derived) t->derived = derived->Clone();
  t->join_type = join_type;
  if (left) t->left = left->Clone();
  if (right) t->right = right->Clone();
  if (on) t->on = on->Clone();
  return t;
}

TableRef::Ptr MakeBaseTable(std::string name, std::string alias) {
  auto t = std::make_unique<TableRef>(TableRef::Kind::kBase);
  t->table_name = std::move(name);
  t->alias = std::move(alias);
  return t;
}

TableRef::Ptr MakeDerivedTable(std::unique_ptr<SelectStmt> sel,
                               std::string alias) {
  auto t = std::make_unique<TableRef>(TableRef::Kind::kDerived);
  t->derived = std::move(sel);
  t->alias = std::move(alias);
  return t;
}

TableRef::Ptr MakeJoin(JoinType type, TableRef::Ptr left, TableRef::Ptr right,
                       Expr::Ptr on) {
  auto t = std::make_unique<TableRef>(TableRef::Kind::kJoin);
  t->join_type = type;
  t->left = std::move(left);
  t->right = std::move(right);
  t->on = std::move(on);
  return t;
}

SelectItem SelectItem::Clone() const {
  SelectItem it;
  it.expr = expr->Clone();
  it.alias = alias;
  return it;
}

OrderItem OrderItem::Clone() const {
  OrderItem it;
  it.expr = expr->Clone();
  it.ascending = ascending;
  return it;
}

std::unique_ptr<SelectStmt> SelectStmt::Clone() const {
  auto s = std::make_unique<SelectStmt>();
  s->distinct = distinct;
  for (const auto& it : items) s->items.push_back(it.Clone());
  if (from) s->from = from->Clone();
  if (where) s->where = where->Clone();
  for (const auto& g : group_by) s->group_by.push_back(g->Clone());
  if (having) s->having = having->Clone();
  for (const auto& o : order_by) s->order_by.push_back(o.Clone());
  s->limit = limit;
  if (union_next) s->union_next = union_next->Clone();
  return s;
}

}  // namespace vdb::sql
