// Abstract syntax tree for the SQL dialect understood by both the engine and
// the VerdictDB middleware. The middleware rewrites ASTs and serializes them
// back to SQL text (sql/printer.h); the engine binds and executes them.

#ifndef VDB_SQL_AST_H_
#define VDB_SQL_AST_H_

#include <cstdint>
#include <memory>
#include <string>
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

}  // namespace vdb::sql

#endif  // VDB_SQL_AST_H_
