#include "oracle/sql_gen.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "engine/binder.h"
#include "sql/printer.h"

namespace vdb::sqlgen {

using engine::Table;
using engine::TablePtr;
using engine::ResolveFunctions;
using sql::BinaryOp;
using sql::Expr;
using sql::ExprKind;
using sql::SelectStmt;
using sql::UnaryOp;

const std::vector<std::string>& DefaultColumnNames() {
  static const std::vector<std::string> kNames = {"i1", "i2", "d1", "d2",
                                                  "s1", "b1", "n1"};
  return kNames;
}

TablePtr MakeRandomTable(Rng* rng, size_t rows,
                         const std::vector<std::string>& names) {
  auto t = std::make_shared<Table>();
  t->AddColumn(names[0], TypeId::kInt64);
  t->AddColumn(names[1], TypeId::kInt64);     // with NULLs
  t->AddColumn(names[2], TypeId::kDouble);
  t->AddColumn(names[3], TypeId::kDouble);    // with NULLs
  t->AddColumn(names[4], TypeId::kString);    // with NULLs
  t->AddColumn(names[5], TypeId::kBool);
  t->AddColumn(names[6], TypeId::kNull);      // every row NULL
  static const char* kStrings[] = {"a", "ab", "abc", "ba", "x", ""};
  for (size_t r = 0; r < rows; ++r) {
    std::vector<Value> row;
    row.push_back(Value::Int(rng->NextInRange(-6, 6)));
    row.push_back(rng->NextBernoulli(0.25)
                      ? Value::Null()
                      : Value::Int(rng->NextInRange(-4, 4)));
    row.push_back(
        Value::Double(static_cast<double>(rng->NextInRange(-40, 40)) / 8.0));
    row.push_back(rng->NextBernoulli(0.25)
                      ? Value::Null()
                      : Value::Double(
                            static_cast<double>(rng->NextInRange(-20, 20)) /
                            4.0));
    row.push_back(rng->NextBernoulli(0.2)
                      ? Value::Null()
                      : Value::String(kStrings[rng->NextBounded(6)]));
    row.push_back(Value::Bool(rng->NextBernoulli(0.5)));
    row.push_back(Value::Null());
    t->AppendRow(row);
  }
  return t;
}

// ---------------------------------------------------------------------------
// ExprGen
// ---------------------------------------------------------------------------

Expr::Ptr ExprGen::Gen(int depth) { return Resolved(Node(depth)); }

Expr::Ptr ExprGen::GenFunctionCall(int depth) {
  return Resolved(GenFunction(depth));
}

Expr::Ptr ExprGen::GenConcatCall(int depth) {
  return Resolved(GenConcat(depth));
}

template <typename... Args>
Expr::Ptr ExprGen::Call(std::string name, Args... args) {
  std::vector<Expr::Ptr> argv;
  (argv.push_back(std::move(args)), ...);
  return sql::MakeFunction(std::move(name), std::move(argv));
}


Expr::Ptr ExprGen::Resolved(Expr::Ptr e) {
  const Status st = ResolveFunctions(e.get());
  EXPECT_TRUE(st.ok()) << st.ToString() << ": " << sql::PrintExpr(*e);
  return e;
}

Expr::Ptr ExprGen::Node(int depth) {
  if (depth <= 0 || rng_->NextBernoulli(0.25)) return GenLeaf();
  switch (rng_->NextBounded(10)) {
    case 0: return GenArith(depth);
    case 1: return GenCompare(depth);
    case 2: return GenLogic(depth);
    case 3: return GenUnary(depth);
    case 4: return GenCase(depth);
    case 5: return GenIsNull(depth);
    case 6: return GenInList(depth);
    case 7: return GenBetween(depth);
    case 8: return GenFunction(depth);
    default: return GenLike(depth);
  }
}

Expr::Ptr ExprGen::GenLeaf() {
  // Bound column reference (the all-NULL n1 is drawn by concat only).
  if (rng_->NextBernoulli(0.55)) return Col(rng_->NextBounded(6));
  return GenLiteral();
}

Expr::Ptr ExprGen::GenLiteral() {
  switch (rng_->NextBounded(5)) {
    case 0: return sql::MakeIntLit(rng_->NextInRange(-5, 5));
    case 1:
      return sql::MakeDoubleLit(
          static_cast<double>(rng_->NextInRange(-10, 10)) / 4.0);
    case 2: {
      static const char* kPool[] = {"a", "ab", "b", "%b%", "a_"};
      return sql::MakeStringLit(kPool[rng_->NextBounded(5)]);
    }
    case 3: return sql::MakeLiteral(Value::Bool(rng_->NextBernoulli(0.5)));
    default: return sql::MakeLiteral(Value::Null());
  }
}

Expr::Ptr ExprGen::GenArith(int depth) {
  static const BinaryOp kOps[] = {BinaryOp::kAdd, BinaryOp::kSub,
                                  BinaryOp::kMul, BinaryOp::kDiv,
                                  BinaryOp::kMod};
  return sql::MakeBinary(kOps[rng_->NextBounded(5)], Node(depth - 1),
                         Node(depth - 1));
}

Expr::Ptr ExprGen::GenCompare(int depth) {
  static const BinaryOp kOps[] = {BinaryOp::kEq, BinaryOp::kNe,
                                  BinaryOp::kLt, BinaryOp::kLe,
                                  BinaryOp::kGt, BinaryOp::kGe};
  return sql::MakeBinary(kOps[rng_->NextBounded(6)], Node(depth - 1),
                         Node(depth - 1));
}

Expr::Ptr ExprGen::GenLogic(int depth) {
  return sql::MakeBinary(
      rng_->NextBernoulli(0.5) ? BinaryOp::kAnd : BinaryOp::kOr,
      Node(depth - 1), Node(depth - 1));
}

Expr::Ptr ExprGen::GenUnary(int depth) {
  return sql::MakeUnary(
      rng_->NextBernoulli(0.5) ? UnaryOp::kNeg : UnaryOp::kNot,
      Node(depth - 1));
}

Expr::Ptr ExprGen::GenCase(int depth) {
  auto e = std::make_unique<Expr>(ExprKind::kCase);
  const size_t whens = 1 + rng_->NextBounded(2);
  for (size_t i = 0; i < whens; ++i) {
    e->case_whens.push_back(Node(depth - 1));
    e->case_thens.push_back(Node(depth - 1));
  }
  if (rng_->NextBernoulli(0.7)) e->case_else = Node(depth - 1);
  return e;
}

Expr::Ptr ExprGen::GenIsNull(int depth) {
  auto e = std::make_unique<Expr>(ExprKind::kIsNull);
  e->args.push_back(Node(depth - 1));
  e->negated = rng_->NextBernoulli(0.5);
  return e;
}

Expr::Ptr ExprGen::GenInList(int depth) {
  auto e = std::make_unique<Expr>(ExprKind::kInList);
  e->args.push_back(Node(depth - 1));
  const size_t items = 1 + rng_->NextBounded(3);
  for (size_t i = 0; i < items; ++i) e->args.push_back(Node(depth - 1));
  e->negated = rng_->NextBernoulli(0.5);
  return e;
}

Expr::Ptr ExprGen::GenBetween(int depth) {
  auto e = std::make_unique<Expr>(ExprKind::kBetween);
  e->args.push_back(Node(depth - 1));
  e->args.push_back(Node(depth - 1));
  e->args.push_back(Node(depth - 1));
  e->negated = rng_->NextBernoulli(0.5);
  return e;
}

Expr::Ptr ExprGen::GenLike(int depth) {
  static const char* kPatterns[] = {"a%", "%b", "%a%", "a_", "_", "%"};
  return sql::MakeBinary(BinaryOp::kLike, Node(depth - 1),
                         sql::MakeStringLit(kPatterns[rng_->NextBounded(6)]));
}

Expr::Ptr ExprGen::GenFunction(int depth) {
  // Every ScalarFn id. rand-family calls are fair game: draws are
  // row-addressed, so the batch kernels and the row interpreter produce
  // identical values (each generated call gets its own site id).
  switch (rng_->NextBounded(29)) {
    case 0: return Call("abs", Arg(depth));
    case 1: return Call("floor", Arg(depth));
    case 2: return Call("coalesce", Arg(depth), Arg(depth));
    case 3: return Call("if", Arg(depth), Arg(depth), Arg(depth));
    case 4: return Call("length", Arg(depth));
    case 5: return Call("verdict_hash", Arg(depth));
    case 6: return Sited(Call("rand"));
    case 7: return Sited(Call("rand_poisson"));
    case 8: return Call("ceil", Arg(depth));
    case 9: return Call("sqrt", Arg(depth));
    case 10: return Call("greatest", Arg(depth), Arg(depth));
    case 11: return Call("year", GenIntOperand());
    case 12: return Call("month", GenIntOperand());
    case 13: return Call("upper", Arg(depth));
    case 14:
      return rng_->NextBernoulli(0.5)
                 ? Call("substr", Arg(depth), GenIntOperand())
                 : Call("substr", Arg(depth), GenIntOperand(),
                        GenIntOperand());
    case 15: return Call("nullif", Arg(depth), Arg(depth));
    case 16: return Call("exp", Arg(depth));
    case 17: return Call("ln", Arg(depth));
    case 18: return Call("power", Arg(depth), Arg(depth));
    case 19: return Call("mod", GenBoundedOperand(), GenBoundedOperand());
    case 20:
      return rng_->NextBernoulli(0.5)
                 ? Call("round", GenBoundedOperand())
                 : Call("round", GenBoundedOperand(), GenBoundedOperand());
    case 21: return Call("sign", Arg(depth));
    case 22: return Call("least", Arg(depth), Arg(depth), Arg(depth));
    case 23: return Call("crc32", Arg(depth));
    case 24: return Call("hash64", Arg(depth));
    case 25: return Call("lower", Arg(depth));
    case 26: return Call("to_double", Arg(depth));
    case 27: return Call("to_int", GenBoundedOperand());
    default: return GenConcat(depth);
  }
}

/// A call argument: often another call or a CASE, so call kernels run
/// over nested call and CASE lanes; otherwise any subtree.
Expr::Ptr ExprGen::Arg(int depth) {
  if (depth > 1) {
    switch (rng_->NextBounded(4)) {
      case 0: return GenFunction(depth - 1);
      case 1: return GenCase(depth - 1);
      default: break;
    }
  }
  return Node(depth - 1);
}

/// An integer-valued operand (int column or literal): the date functions'
/// yyyymmdd argument and substr's bounds. Doubles stay out — AsInt on an
/// out-of-range double is undefined behavior.
Expr::Ptr ExprGen::GenIntOperand() {
  if (rng_->NextBernoulli(0.5)) return Col(rng_->NextBounded(2));  // i1, i2
  static const int64_t kPool[] = {0, 1, 3, -2, 20240315, 19991231};
  return sql::MakeIntLit(kPool[rng_->NextBounded(6)]);
}

/// A numeric operand for the ids that convert doubles to Int64 (mod,
/// round, to_int): an integer operand or a small double literal, never a
/// computed or column double that may be out of Int64 range.
Expr::Ptr ExprGen::GenBoundedOperand() {
  if (rng_->NextBernoulli(0.5)) return GenIntOperand();
  return sql::MakeDoubleLit(
      static_cast<double>(rng_->NextInRange(-10, 10)) / 4.0);
}

/// concat over 1-4 arguments drawn from every column type (the all-NULL
/// column included), literals of every type, a CASE whose branches mix
/// int and string, and arbitrary subtrees.
Expr::Ptr ExprGen::GenConcat(int depth) {
  std::vector<Expr::Ptr> argv;
  const size_t arity = 1 + rng_->NextBounded(4);
  for (size_t i = 0; i < arity; ++i) {
    switch (rng_->NextBounded(4)) {
      case 0: argv.push_back(Col(rng_->NextBounded(7))); break;
      case 1: argv.push_back(GenLiteral()); break;
      case 2: {
        auto c = std::make_unique<Expr>(ExprKind::kCase);
        c->case_whens.push_back(Node(depth - 1));
        c->case_thens.push_back(rng_->NextBernoulli(0.5)
                                    ? Col(0)
                                    : sql::MakeIntLit(7));
        c->case_else = rng_->NextBernoulli(0.5) ? Col(4)
                                                : sql::MakeStringLit("s");
        argv.push_back(std::move(c));
        break;
      }
      default: argv.push_back(Node(depth - 1)); break;
    }
  }
  return sql::MakeFunction("concat", std::move(argv));
}

Expr::Ptr ExprGen::Col(size_t idx) {
  static const char* kCols[] = {"i1", "i2", "d1", "d2", "s1", "b1", "n1"};
  auto e = sql::MakeColumnRef("", kCols[idx]);
  e->bound_column = static_cast<int>(idx);
  return e;
}

Expr::Ptr ExprGen::Sited(Expr::Ptr e) {
  e->rand_site = next_site_++;
  return e;
}


// ---------------------------------------------------------------------------
// StatementGen
// ---------------------------------------------------------------------------

namespace {

/// A derived table's seven slot columns.
const std::vector<std::string>& DerivedColumns() {
  static const std::vector<std::string> kNames = {
      "Key", "order", "v 1", "w`x", "s\"y", "when", "nn"};
  return kNames;
}

/// A double drawn to need many digits: fractions with no short decimal
/// form, subnormals, extremes, signed zero, infinities, NaN, or a random
/// finite bit pattern.
double ManyDigitDouble(Rng* rng) {
  static const double kPool[] = {
      0.1,
      0.30000000000000004,
      1.0 / 3.0,
      -2.0 / 3.0,
      123456789.12345678,
      1e-300,
      5e-324,
      -2.2250738585072014e-308,
      1.7976931348623157e308,
      -0.0,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
  };
  if (rng->NextBernoulli(0.5)) return kPool[rng->NextBounded(13)];
  const uint64_t bits = rng->Next();
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return std::isfinite(d) ? d : rng->NextDouble() * 1e6;
}

}  // namespace

const std::vector<GenTable>& GenTables() {
  static const std::vector<GenTable> kTables = {
      {"fact", {"i1", "I2", "d1", "D 2", "s1", "b1", "n1"}},
      {"Dim", {"key", "Order", "dbl", "d`q", "s\"q", "Select", "nul"}},
      {"t-3", DefaultColumnNames()},
  };
  return kTables;
}

void RegisterGenTables(engine::Database* db, uint64_t seed, size_t rows) {
  Rng rng(seed);
  for (const GenTable& t : GenTables()) {
    const Status st =
        db->RegisterTable(t.name, MakeRandomTable(&rng, rows, t.columns));
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
}

Expr::Ptr StatementGen::ColOf(const Rel& rel, size_t slot) {
  const bool bare = scopes_.back().size() == 1 && rng_->NextBernoulli(0.3);
  return sql::MakeColumnRef(bare ? "" : rel.alias, rel.columns[slot]);
}

Expr::Ptr StatementGen::Col(size_t slot) {
  if (scopes_.empty() || scopes_.back().empty()) return GenLiteral();
  const Scope& scope = scopes_.back();
  return ColOf(scope[rng_->NextBounded(scope.size())], slot);
}

Expr::Ptr StatementGen::GenLiteral() {
  if (rng_->NextBernoulli(0.5)) return ExprGen::GenLiteral();
  switch (rng_->NextBounded(4)) {
    case 0: {
      static const int64_t kInts[] = {0,
                                      1,
                                      -1,
                                      42,
                                      -9999,
                                      (int64_t{1} << 53) + 1,
                                      std::numeric_limits<int64_t>::max(),
                                      std::numeric_limits<int64_t>::min()};
      return sql::MakeIntLit(kInts[rng_->NextBounded(8)]);
    }
    case 1: return sql::MakeDoubleLit(ManyDigitDouble(rng_));
    case 2: {
      static const char* kStrings[] = {"it's", "''", "--x", "",
                                       "a`b",  "q\"q", "two\nlines", "%_"};
      return sql::MakeStringLit(kStrings[rng_->NextBounded(8)]);
    }
    default: return sql::MakeLiteral(Value::Null());
  }
}

Expr::Ptr StatementGen::Node(int depth) {
  if (depth >= 2 && !scopes_.empty() && rng_->NextBernoulli(0.08)) {
    return Subquery(depth);
  }
  return ExprGen::Node(depth);
}

std::string StatementGen::Alias() {
  static const char* kPool[] = {"a",      "B",   "x y", "select",
                                "Mixed",  "t`q", "on",  "q\"r"};
  // Unique across the statement, so a correlated reference names one
  // relation; the suffix keeps the pool's shapes (case, quotes, spaces).
  std::string alias = kPool[rng_->NextBounded(8)];
  if (next_alias_ > 0) alias += std::to_string(next_alias_);
  ++next_alias_;
  return alias;
}

std::string StatementGen::TableName() {
  static const char* kPool[] = {"fact", "New Table", "select", "x`y", "Q\"T",
                                "t-3"};
  return kPool[rng_->NextBounded(6)];
}

Expr::Ptr StatementGen::Aggregate() {
  static const char* kAggs[] = {"sum", "avg", "count", "min", "max"};
  switch (rng_->NextBounded(7)) {
    case 0: return sql::MakeFunction("count", [] {
        std::vector<Expr::Ptr> a;
        a.push_back(sql::MakeStar());
        return a;
      }());
    case 1: {
      std::vector<Expr::Ptr> a;
      a.push_back(Col(rng_->NextBounded(5)));
      auto e = sql::MakeFunction("count", std::move(a));
      e->distinct = true;
      return e;
    }
    case 2: {
      std::vector<Expr::Ptr> a;
      a.push_back(Node(1));
      return sql::MakeFunction(kAggs[rng_->NextBounded(5)], std::move(a));
    }
    default: {
      std::vector<Expr::Ptr> a;
      a.push_back(Col(rng_->NextBounded(4)));
      return sql::MakeFunction(kAggs[rng_->NextBounded(5)], std::move(a));
    }
  }
}

Expr::Ptr StatementGen::Window() {
  static const char* kAggs[] = {"sum", "avg", "count", "min", "max"};
  std::vector<Expr::Ptr> a;
  a.push_back(Col(rng_->NextBounded(4)));
  auto e = sql::MakeFunction(kAggs[rng_->NextBounded(5)], std::move(a));
  e->is_window = true;
  const size_t keys = rng_->NextBounded(3);
  for (size_t i = 0; i < keys; ++i) {
    e->partition_by.push_back(Col(rng_->NextBounded(6)));
  }
  return e;
}

Expr::Ptr StatementGen::Subquery(int depth) {
  // The outer operand first, while the outer scope is innermost.
  Expr::Ptr lhs = Col(rng_->NextBounded(4));
  const GenTable& t = GenTables()[rng_->NextBounded(GenTables().size())];
  const std::string alias = Alias();
  auto sub = std::make_unique<SelectStmt>();
  sub->from = sql::MakeBaseTable(t.name, alias);
  scopes_.push_back({Rel{alias, t.columns}});
  std::vector<Expr::Ptr> where;
  if (rng_->NextBernoulli(0.6)) {  // correlated
    const Scope& outer = scopes_[scopes_.size() - 2];
    const Rel& o = outer[rng_->NextBounded(outer.size())];
    where.push_back(sql::MakeBinary(
        BinaryOp::kEq, sql::MakeColumnRef(alias, t.columns[0]),
        sql::MakeColumnRef(o.alias, o.columns[rng_->NextBounded(2)])));
  }
  if (rng_->NextBernoulli(0.4)) where.push_back(Node(depth - 2));
  sub->where = sql::AndAll(std::move(where));
  Expr::Ptr out;
  if (rng_->NextBernoulli(0.5)) {
    sub->items.emplace_back(sql::MakeStar(), "");
    out = std::make_unique<Expr>(ExprKind::kExists);
    out->subquery = std::move(sub);
    if (rng_->NextBernoulli(0.3)) {
      out = sql::MakeUnary(UnaryOp::kNot, std::move(out));
    }
  } else {
    sub->items.emplace_back(Aggregate(), "");
    auto scalar = std::make_unique<Expr>(ExprKind::kSubquery);
    scalar->subquery = std::move(sub);
    out = rng_->NextBernoulli(0.5)
              ? sql::MakeBinary(BinaryOp::kGt, std::move(lhs),
                                std::move(scalar))
              : std::move(scalar);
  }
  scopes_.pop_back();
  return out;
}

sql::TableRef::Ptr StatementGen::Primary(int depth, Scope* scope) {
  if (depth > 0 && rng_->NextBernoulli(0.25)) {
    auto derived = Derived(depth - 1);
    const std::string alias = Alias();
    scope->push_back(Rel{alias, DerivedColumns()});
    return sql::MakeDerivedTable(std::move(derived), alias);
  }
  const GenTable& t = GenTables()[rng_->NextBounded(GenTables().size())];
  // An unaliased table is named by its table name; only a lone one, so
  // two relations never share a name.
  if (scope->empty() && rng_->NextBernoulli(0.3)) {
    scope->push_back(Rel{t.name, t.columns});
    return sql::MakeBaseTable(t.name);
  }
  const std::string alias = Alias();
  scope->push_back(Rel{alias, t.columns});
  return sql::MakeBaseTable(t.name, alias);
}

sql::TableRef::Ptr StatementGen::Join(int depth, Scope* scope) {
  const size_t left_begin = scope->size();
  auto left = Primary(depth, scope);
  const size_t right_begin = scope->size();
  sql::TableRef::Ptr right;
  if (depth > 0 && rng_->NextBernoulli(0.3)) {
    right = Join(depth - 1, scope);  // a right-nested join
  } else {
    right = Primary(depth, scope);
  }
  static const sql::JoinType kTypes[] = {
      sql::JoinType::kInner, sql::JoinType::kLeft, sql::JoinType::kCross};
  const sql::JoinType type = kTypes[rng_->NextBounded(3)];
  Expr::Ptr on;
  if (type != sql::JoinType::kCross) {
    const Rel& l = (*scope)[left_begin +
                            rng_->NextBounded(right_begin - left_begin)];
    const Rel& r = (*scope)[right_begin +
                            rng_->NextBounded(scope->size() - right_begin)];
    std::vector<Expr::Ptr> conj;
    conj.push_back(sql::MakeBinary(
        BinaryOp::kEq, sql::MakeColumnRef(l.alias, l.columns[0]),
        sql::MakeColumnRef(r.alias, r.columns[rng_->NextBounded(2)])));
    if (rng_->NextBernoulli(0.3)) conj.push_back(Node(1));
    on = sql::AndAll(std::move(conj));
  }
  return sql::MakeJoin(type, std::move(left), std::move(right), std::move(on));
}

sql::TableRef::Ptr StatementGen::From(int depth, Scope* scope) {
  switch (rng_->NextBounded(5)) {
    case 0:
    case 1: return Primary(depth, scope);
    case 2:
    case 3: return Join(depth, scope);
    default: {
      // Three relations, chained to the left.
      auto left = Join(depth, scope);
      const size_t right_begin = scope->size();
      auto right = Primary(depth, scope);
      const Rel& l = (*scope)[rng_->NextBounded(right_begin)];
      const Rel& r = (*scope)[right_begin];
      return sql::MakeJoin(
          sql::JoinType::kInner, std::move(left), std::move(right),
          sql::MakeBinary(BinaryOp::kEq,
                          sql::MakeColumnRef(l.alias, l.columns[1]),
                          sql::MakeColumnRef(r.alias, r.columns[0])));
    }
  }
}

std::unique_ptr<SelectStmt> StatementGen::Derived(int depth) {
  auto s = std::make_unique<SelectStmt>();
  scopes_.emplace_back();
  s->from = From(depth, &scopes_.back());
  for (size_t k = 0; k < DerivedColumns().size(); ++k) {
    s->items.emplace_back(Col(k), DerivedColumns()[k]);
  }
  if (rng_->NextBernoulli(0.4)) s->where = Node(2);
  s->distinct = rng_->NextBernoulli(0.2);
  if (rng_->NextBernoulli(0.2)) {
    sql::OrderItem o;
    o.expr = sql::MakeIntLit(1 + rng_->NextInRange(0, 6));
    o.ascending = rng_->NextBernoulli(0.5);
    s->order_by.push_back(std::move(o));
    if (rng_->NextBernoulli(0.5)) s->limit = rng_->NextInRange(0, 12);
  }
  scopes_.pop_back();
  return s;
}

std::unique_ptr<SelectStmt> StatementGen::Select(int depth) {
  static const char* kItemAliases[] = {"c",   "Col",   "from", "x y",
                                       "q`q", "n\"n", "LIMIT"};
  auto item_alias = [&]() -> std::string {
    return rng_->NextBernoulli(0.6) ? kItemAliases[rng_->NextBounded(7)] : "";
  };
  auto s = std::make_unique<SelectStmt>();
  scopes_.emplace_back();
  s->from = From(depth, &scopes_.back());
  bool star = false;
  switch (rng_->NextBounded(4)) {
    case 0: {
      const size_t n = 1 + rng_->NextBounded(4);
      for (size_t i = 0; i < n; ++i) s->items.emplace_back(Node(2), item_alias());
      break;
    }
    case 1: {
      const size_t keys = 1 + rng_->NextBounded(2);
      for (size_t i = 0; i < keys; ++i) {
        s->group_by.push_back(Col(rng_->NextBounded(6)));
        s->items.emplace_back(s->group_by.back()->Clone(), item_alias());
      }
      const size_t aggs = 1 + rng_->NextBounded(3);
      for (size_t i = 0; i < aggs; ++i) {
        s->items.emplace_back(Aggregate(), item_alias());
      }
      if (rng_->NextBernoulli(0.3)) {
        s->having = sql::MakeBinary(BinaryOp::kGe, Aggregate(), GenLiteral());
      }
      break;
    }
    case 2:
      s->items.emplace_back(Col(rng_->NextBounded(6)), item_alias());
      for (size_t i = 0, n = 1 + rng_->NextBounded(2); i < n; ++i) {
        s->items.emplace_back(Window(), item_alias());
      }
      break;
    default: {
      star = true;
      auto e = sql::MakeStar();
      if (rng_->NextBernoulli(0.5)) {
        const Scope& scope = scopes_.back();
        e->qualifier = scope[rng_->NextBounded(scope.size())].alias;
      }
      s->items.emplace_back(std::move(e), "");
      break;
    }
  }
  if (rng_->NextBernoulli(0.6)) s->where = Node(3);
  s->distinct = rng_->NextBernoulli(0.15);
  if (!star && rng_->NextBernoulli(0.3)) {
    sql::OrderItem o;
    const size_t i = rng_->NextBounded(s->items.size());
    o.expr = rng_->NextBernoulli(0.5)
                 ? sql::MakeIntLit(static_cast<int64_t>(i) + 1)
                 : s->items[i].expr->Clone();
    o.ascending = rng_->NextBernoulli(0.5);
    s->order_by.push_back(std::move(o));
  }
  if (rng_->NextBernoulli(0.2)) s->limit = rng_->NextInRange(0, 9);
  scopes_.pop_back();
  if (!star && depth > 0 && rng_->NextBernoulli(0.15)) {
    // UNION ALL of a select with as many columns.
    auto next = std::make_unique<SelectStmt>();
    scopes_.emplace_back();
    next->from = Primary(0, &scopes_.back());
    for (size_t i = 0; i < s->items.size(); ++i) {
      next->items.emplace_back(Node(1), "");
    }
    scopes_.pop_back();
    s->union_next = std::move(next);
  }
  return s;
}

std::unique_ptr<sql::Statement> StatementGen::Statement(int depth) {
  next_alias_ = 0;
  auto st = std::make_unique<sql::Statement>();
  switch (rng_->NextBounded(10)) {
    case 0: st->kind = sql::StatementKind::kCreateTableAs; break;
    case 1: st->kind = sql::StatementKind::kInsertSelect; break;
    case 2: st->kind = sql::StatementKind::kDropTable; break;
    default: st->kind = sql::StatementKind::kSelect; break;
  }
  if (st->kind != sql::StatementKind::kSelect) st->table_name = TableName();
  if (st->kind == sql::StatementKind::kDropTable) {
    st->if_exists = rng_->NextBernoulli(0.5);
  } else {
    st->select = Select(depth);
  }
  return st;
}

}  // namespace vdb::sqlgen
