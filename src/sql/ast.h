// Abstract syntax tree for the SQL dialect understood by both the engine and
// the VerdictDB middleware. The middleware rewrites ASTs and serializes them
// back to SQL text (sql/printer.h); the engine binds and executes them.

#ifndef VDB_SQL_AST_H_
#define VDB_SQL_AST_H_

#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "common/value.h"

namespace vdb::sql {

struct SelectStmt;

enum class ExprKind {
  kLiteral,
  kColumnRef,
  kStar,        // `*` or `t.*` (select list / count(*))
  kUnary,
  kBinary,
  kFunction,    // scalar or aggregate call; may carry a window spec
  kCase,        // searched CASE WHEN ... THEN ... [ELSE ...] END
  kIsNull,      // expr IS [NOT] NULL
  kInList,      // expr [NOT] IN (e1, e2, ...)
  kBetween,     // expr BETWEEN lo AND hi
  kSubquery,    // scalar subquery  (select ...)
  kExists,      // EXISTS (select ...)   -- recognized, not approximated
};

enum class UnaryOp { kNeg, kNot };

enum class BinaryOp {
  kAdd, kSub, kMul, kDiv, kMod,
  kEq, kNe, kLt, kLe, kGt, kGe,
  kAnd, kOr,
  kLike,
};

/// Expression node. A single struct (rather than a class hierarchy) keeps the
/// expression evaluator and the rewriter compact.
struct Expr {
  using Ptr = std::unique_ptr<Expr>;

  ExprKind kind;

  // kLiteral
  Value literal;

  // kColumnRef: qualifier may be empty. kFunction: name is the (lowercased)
  // function name. kStar: qualifier may name a table.
  std::string qualifier;
  std::string name;

  // kUnary / kBinary
  UnaryOp unary_op = UnaryOp::kNeg;
  BinaryOp binary_op = BinaryOp::kAdd;

  // Children. kUnary: [operand]. kBinary: [lhs, rhs]. kFunction: arguments.
  // kIsNull: [operand]. kInList: [operand, item...]. kBetween: [x, lo, hi].
  std::vector<Ptr> args;

  // kCase
  std::vector<Ptr> case_whens;   // conditions
  std::vector<Ptr> case_thens;   // results, same length as case_whens
  Ptr case_else;                 // may be null

  // kFunction
  bool distinct = false;           // count(distinct x)
  std::vector<Ptr> partition_by;   // non-empty => window function OVER(...)
  bool is_window = false;          // true also for OVER () with no partition

  // kSubquery / kExists
  std::unique_ptr<SelectStmt> subquery;

  // kIsNull / kInList negation (IS NOT NULL / NOT IN)
  bool negated = false;

  // ---- Binder outputs (engine-internal; not part of the surface syntax) ----
  int bound_column = -1;   // kColumnRef: input column ordinal
  int bound_agg = -1;      // kFunction aggregate: ordinal in aggregate list
  // kFunction rand/random/rand_poisson: 1-based call-site id, assigned once
  // per statement in deterministic traversal order (engine/planner). Part of
  // the row-addressed draw (common/random.h RandAddr), so distinct rand()
  // calls in one query draw independent values; copied by Clone, so every
  // rewrite of the same logical call site keeps the same draws.
  int rand_site = 0;
  // kFunction scalar call: the engine::ScalarFn id its name resolved to,
  // stored once by the bind step (engine/binder.h) so per-row and per-batch
  // evaluation dispatch on the id, never on the name; 0 = unresolved. Copied
  // by Clone.
  int scalar_fn = 0;

  Expr() : kind(ExprKind::kLiteral) {}
  explicit Expr(ExprKind k) : kind(k) {}

  /// Deep copy (binder outputs are copied verbatim).
  Ptr Clone() const;
};

/// True if `pred` holds for `e` or any node beneath it (args, CASE arms,
/// window partition keys). The one traversal every "does this tree contain
/// X" check shares, so a new Expr child field is added in exactly one place.
template <typename Pred>
bool AnyExprNode(const Expr& e, const Pred& pred) {
  if (pred(e)) return true;
  for (const auto& a : e.args) {
    if (a && AnyExprNode(*a, pred)) return true;
  }
  for (const auto& w : e.case_whens) {
    if (AnyExprNode(*w, pred)) return true;
  }
  for (const auto& t : e.case_thens) {
    if (AnyExprNode(*t, pred)) return true;
  }
  if (e.case_else && AnyExprNode(*e.case_else, pred)) return true;
  for (const auto& p : e.partition_by) {
    if (AnyExprNode(*p, pred)) return true;
  }
  return false;
}

/// The one name-level definition of the rand family. Call-site numbering
/// (engine/planner.cc) runs before bind and keys on these names; the bind
/// step's name table (engine/functions.cc) maps the same names to the
/// rand-family ids every evaluator dispatches on. The two must agree on the
/// set: a name recognized by one but not the other would silently leave call
/// sites unnumbered (perfectly correlated draws) or renumber its neighbors.
inline bool IsRandFunctionExpr(const Expr& e) {
  return e.kind == ExprKind::kFunction &&
         (e.name == "rand" || e.name == "random" || e.name == "rand_poisson");
}

/// True if any node under `e` is a rand-family call.
inline bool ContainsRandFunction(const Expr& e) {
  return AnyExprNode(e, IsRandFunctionExpr);
}

// ---- Convenience constructors used heavily by the rewriter ----------------

Expr::Ptr MakeLiteral(Value v);
Expr::Ptr MakeIntLit(int64_t v);
Expr::Ptr MakeDoubleLit(double v);
Expr::Ptr MakeStringLit(std::string s);
Expr::Ptr MakeColumnRef(std::string qualifier, std::string name);
Expr::Ptr MakeStar();
Expr::Ptr MakeUnary(UnaryOp op, Expr::Ptr operand);
Expr::Ptr MakeBinary(BinaryOp op, Expr::Ptr lhs, Expr::Ptr rhs);
Expr::Ptr MakeFunction(std::string name, std::vector<Expr::Ptr> args);
/// Left-folds non-null conjuncts with AND; returns null if all are null.
Expr::Ptr AndAll(std::vector<Expr::Ptr> conjuncts);

// ---- Table references ------------------------------------------------------

enum class JoinType { kInner, kLeft, kCross };

struct TableRef {
  using Ptr = std::unique_ptr<TableRef>;
  enum class Kind { kBase, kDerived, kJoin };

  Kind kind;

  // kBase
  std::string table_name;

  // kBase / kDerived
  std::string alias;  // may be empty for base tables

  // kDerived
  std::unique_ptr<SelectStmt> derived;

  // kJoin
  JoinType join_type = JoinType::kInner;
  Ptr left, right;
  Expr::Ptr on;  // null for cross joins

  explicit TableRef(Kind k) : kind(k) {}
  Ptr Clone() const;

  /// The name this relation is referred to by (alias if set, else base name).
  const std::string& EffectiveName() const {
    return alias.empty() ? table_name : alias;
  }
};

TableRef::Ptr MakeBaseTable(std::string name, std::string alias = "");
TableRef::Ptr MakeDerivedTable(std::unique_ptr<SelectStmt> sel,
                               std::string alias);
TableRef::Ptr MakeJoin(JoinType type, TableRef::Ptr left, TableRef::Ptr right,
                       Expr::Ptr on);

// ---- Select statement ------------------------------------------------------

struct SelectItem {
  Expr::Ptr expr;
  std::string alias;  // may be empty

  SelectItem() = default;
  SelectItem(Expr::Ptr e, std::string a) : expr(std::move(e)), alias(std::move(a)) {}
  SelectItem Clone() const;
};

struct OrderItem {
  Expr::Ptr expr;
  bool ascending = true;
  OrderItem Clone() const;
};

struct SelectStmt {
  bool distinct = false;
  std::vector<SelectItem> items;
  TableRef::Ptr from;  // null => SELECT of constants
  Expr::Ptr where;
  std::vector<Expr::Ptr> group_by;
  Expr::Ptr having;
  std::vector<OrderItem> order_by;
  int64_t limit = -1;  // -1 => no limit

  /// UNION ALL chain: this statement's result concatenated with `union_next`.
  std::unique_ptr<SelectStmt> union_next;

  std::unique_ptr<SelectStmt> Clone() const;
};

// ---- Top-level statements ---------------------------------------------------

enum class StatementKind {
  kSelect,
  kCreateTableAs,  // create table <name> as <select>
  kDropTable,      // drop table [if exists] <name>
  kInsertSelect,   // insert into <name> <select>
};

struct Statement {
  StatementKind kind = StatementKind::kSelect;
  std::string table_name;  // CTAS / DROP / INSERT target
  bool if_exists = false;  // DROP TABLE IF EXISTS
  std::unique_ptr<SelectStmt> select;  // null for DROP
};

// ---- The rand-family walk ---------------------------------------------------
//
// The one walk over a statement's rand-family calls (IsRandFunctionExpr). It
// visits select items, WHERE, GROUP BY, HAVING, ORDER BY, the FROM tree
// (left, right, then ON; derived tables recursively) and the UNION chain, in
// that order; inside an expression, the node itself before its arguments,
// CASE arms, window partition keys and subquery. Call-site numbering
// (engine/planner.cc) depends on this order. The per-statement seed
// decision, the driver memo's rand-free check (DrawsRand) and the dialect's
// WHERE hoist (driver/dialect.cc) share it, so a new place a call can sit
// is added once. `fn` receives `Expr&`, or `const Expr&` under a const root.

namespace ast_internal {
template <class From, class To>
using LikeConst = std::conditional_t<std::is_const_v<From>, const To, To>;
template <class Ref, class Fn>
void ForEachRandCallInRef(Ref& ref, const Fn& fn);
}  // namespace ast_internal

template <class Stmt, class Fn>
void ForEachRandCall(Stmt& stmt, const Fn& fn);

/// The walk over one expression; `into_subqueries` = false stops at scalar
/// and EXISTS subqueries.
template <class E, class Fn>
void ForEachRandCallInExpr(E& e, const Fn& fn, bool into_subqueries) {
  using Node = ast_internal::LikeConst<E, Expr>;
  auto walk = [&](Node& child) {
    ForEachRandCallInExpr<Node>(child, fn, into_subqueries);
  };
  if (IsRandFunctionExpr(e)) fn(e);
  for (auto& a : e.args) {
    if (a) walk(*a);
  }
  for (auto& w : e.case_whens) walk(*w);
  for (auto& t : e.case_thens) walk(*t);
  if (e.case_else) walk(*e.case_else);
  for (auto& p : e.partition_by) walk(*p);
  if (into_subqueries && e.subquery) {
    ForEachRandCall<ast_internal::LikeConst<E, SelectStmt>>(*e.subquery, fn);
  }
}

template <class Stmt, class Fn>
void ForEachRandCall(Stmt& stmt, const Fn& fn) {
  using Node = ast_internal::LikeConst<Stmt, Expr>;
  auto walk = [&](Node& e) { ForEachRandCallInExpr<Node>(e, fn, true); };
  for (auto& it : stmt.items) {
    if (it.expr) walk(*it.expr);
  }
  if (stmt.where) walk(*stmt.where);
  for (auto& g : stmt.group_by) walk(*g);
  if (stmt.having) walk(*stmt.having);
  for (auto& o : stmt.order_by) walk(*o.expr);
  if (stmt.from) {
    ast_internal::ForEachRandCallInRef<ast_internal::LikeConst<Stmt, TableRef>>(
        *stmt.from, fn);
  }
  if (stmt.union_next) ForEachRandCall<Stmt>(*stmt.union_next, fn);
}

template <class Ref, class Fn>
void ast_internal::ForEachRandCallInRef(Ref& ref, const Fn& fn) {
  switch (ref.kind) {
    case TableRef::Kind::kBase:
      return;
    case TableRef::Kind::kDerived:
      if (ref.derived) {
        ForEachRandCall<LikeConst<Ref, SelectStmt>>(*ref.derived, fn);
      }
      return;
    case TableRef::Kind::kJoin:
      if (ref.left) ForEachRandCallInRef<Ref>(*ref.left, fn);
      if (ref.right) ForEachRandCallInRef<Ref>(*ref.right, fn);
      if (ref.on) {
        ForEachRandCallInExpr<LikeConst<Ref, Expr>>(*ref.on, fn, true);
      }
      return;
  }
}

/// True if the statement calls a rand-family function anywhere. Such a
/// statement draws a query seed, and its answer is not a function of the
/// tables alone.
inline bool DrawsRand(const SelectStmt& stmt) {
  bool any = false;
  ForEachRandCall(stmt, [&any](const Expr&) { any = true; });
  return any;
}

}  // namespace vdb::sql

#endif  // VDB_SQL_AST_H_
