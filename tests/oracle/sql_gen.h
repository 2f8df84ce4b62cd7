// Random SQL for the differential suites. Three layers, each grown from the
// one before:
//   * MakeRandomTable: a table of the seven column slots the generators
//     draw from;
//   * ExprGen: random expression trees over those slots (test_vector_eval's
//     batch-vs-row fuzz);
//   * StatementGen: random statements over several such tables, with joins,
//     derived tables, correlated and EXISTS subqueries, windows, CASE,
//     UNION ALL, DISTINCT, quoted, reserved and mixed-case names, and
//     doubles that need 17 digits (test_roundtrip's print/parse round trip
//     and AST-vs-text execution).
// Every draw comes from the caller's Rng, so a fixed seed fixes the output.

#ifndef VDB_TESTS_ORACLE_SQL_GEN_H_
#define VDB_TESTS_ORACLE_SQL_GEN_H_

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "engine/database.h"
#include "engine/table.h"
#include "sql/ast.h"

namespace vdb::sqlgen {

/// The slot names of the vector-eval fuzz table: i1, i2 (Int64; i2 with
/// NULLs), d1, d2 (Double; d2 with NULLs), s1 (String with NULLs), b1
/// (Bool) and n1 (every row NULL).
const std::vector<std::string>& DefaultColumnNames();

/// A random table over the seven slots, named by `names` (seven entries).
engine::TablePtr MakeRandomTable(
    Rng* rng, size_t rows,
    const std::vector<std::string>& names = DefaultColumnNames());

/// Random expression trees over the seven slots. Column leaves are bound
/// to the slot ordinal, so a tree evaluates directly against a
/// MakeRandomTable table.
class ExprGen {
 public:
  explicit ExprGen(Rng* rng) : rng_(rng) {}
  virtual ~ExprGen() = default;

  /// A random tree, through the binder's function-resolution step like
  /// every engine expression.
  sql::Expr::Ptr Gen(int depth);
  /// A random tree whose root is a scalar function call.
  sql::Expr::Ptr GenFunctionCall(int depth);
  /// A random concat call (see GenConcat).
  sql::Expr::Ptr GenConcatCall(int depth);

 protected:
  /// Any node kind; leaves at depth 0.
  virtual sql::Expr::Ptr Node(int depth);
  virtual sql::Expr::Ptr GenLiteral();
  /// A reference to the column in slot `slot` (0..6).
  virtual sql::Expr::Ptr Col(size_t slot);
  /// Gives a rand-family call its own call-site id.
  virtual sql::Expr::Ptr Sited(sql::Expr::Ptr e);

  Rng* rng_;

 private:
  static sql::Expr::Ptr Resolved(sql::Expr::Ptr e);
  sql::Expr::Ptr GenLeaf();
  sql::Expr::Ptr GenArith(int depth);
  sql::Expr::Ptr GenCompare(int depth);
  sql::Expr::Ptr GenLogic(int depth);
  sql::Expr::Ptr GenUnary(int depth);
  sql::Expr::Ptr GenCase(int depth);
  sql::Expr::Ptr GenIsNull(int depth);
  sql::Expr::Ptr GenInList(int depth);
  sql::Expr::Ptr GenBetween(int depth);
  sql::Expr::Ptr GenLike(int depth);
  sql::Expr::Ptr GenFunction(int depth);
  sql::Expr::Ptr Arg(int depth);
  sql::Expr::Ptr GenIntOperand();
  sql::Expr::Ptr GenBoundedOperand();
  sql::Expr::Ptr GenConcat(int depth);
  template <typename... Args>
  sql::Expr::Ptr Call(std::string name, Args... args);

  int next_site_ = 1;
};

/// A base table the statement generator reads: its name and its seven slot
/// columns' names.
struct GenTable {
  std::string name;
  std::vector<std::string> columns;
};

/// The statement generator's tables. Their names and column names include
/// mixed case, reserved words, spaces and both quote characters.
const std::vector<GenTable>& GenTables();

/// Registers GenTables() into `db`, `rows` random rows each, drawn from a
/// fresh Rng(seed) so two databases get identical tables.
void RegisterGenTables(engine::Database* db, uint64_t seed, size_t rows);

/// Random statements over GenTables(), as the parser would build them: no
/// binder outputs, function names lower case, rand-family calls unnumbered.
class StatementGen : private ExprGen {
 public:
  explicit StatementGen(Rng* rng) : ExprGen(rng) {}

  /// A SELECT whose FROM, subqueries and UNION chain nest up to `depth`.
  std::unique_ptr<sql::SelectStmt> Select(int depth);
  /// A SELECT (most of the time), CREATE TABLE AS, INSERT ... SELECT or
  /// DROP TABLE [IF EXISTS].
  std::unique_ptr<sql::Statement> Statement(int depth);

 private:
  /// A relation in scope: the name that qualifies its columns and the
  /// columns' names by slot.
  struct Rel {
    std::string alias;
    std::vector<std::string> columns;
  };
  using Scope = std::vector<Rel>;

  sql::Expr::Ptr Node(int depth) override;
  sql::Expr::Ptr GenLiteral() override;
  sql::Expr::Ptr Col(size_t slot) override;
  sql::Expr::Ptr Sited(sql::Expr::Ptr e) override { return e; }

  sql::Expr::Ptr ColOf(const Rel& rel, size_t slot);
  sql::Expr::Ptr Subquery(int depth);
  sql::TableRef::Ptr From(int depth, Scope* scope);
  sql::TableRef::Ptr Primary(int depth, Scope* scope);
  sql::TableRef::Ptr Join(int depth, Scope* scope);
  std::unique_ptr<sql::SelectStmt> Derived(int depth);
  sql::Expr::Ptr Aggregate();
  sql::Expr::Ptr Window();
  std::string Alias();
  std::string TableName();

  /// Innermost last; a subquery's correlation reaches the one below it. A
  /// deque, so opening a nested scope keeps references to outer ones.
  std::deque<Scope> scopes_;
  int next_alias_ = 0;
};

}  // namespace vdb::sqlgen

#endif  // VDB_TESTS_ORACLE_SQL_GEN_H_
