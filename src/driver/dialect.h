// Engine drivers: SQL dialect descriptors plus the thin Connection facade
// the middleware talks through.
//
// In the paper, adding support for a new engine means adding a thin driver
// that knows the engine's JDBC/ODBC interface and SQL dialect (§2.1). Here a
// Dialect captures (a) serialization quirks, (b) feature restrictions the
// Syntax Changer must work around (e.g. Impala forbids rand() in WHERE), and
// (c) a modelled fixed query-preparation overhead used by the benchmark
// harness to reflect the per-engine "default overhead" the paper identifies
// as the main driver of speedup differences (§6.2).

#ifndef VDB_DRIVER_DIALECT_H_
#define VDB_DRIVER_DIALECT_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "common/governor.h"
#include "common/status.h"
#include "engine/database.h"
#include "sql/ast.h"
#include "sql/printer.h"

namespace vdb::driver {

enum class EngineKind { kGeneric, kImpala, kSparkSql, kRedshift };

struct Dialect {
  EngineKind kind = EngineKind::kGeneric;
  std::string name = "generic";
  sql::PrintOptions print_options;
  /// Impala rejects rand() inside selection predicates; the Syntax Changer
  /// pushes such predicates into a derived table.
  bool allows_rand_in_where = true;
  /// Modelled fixed per-query overhead (catalog access + planning), in
  /// milliseconds. Used only by the benchmark harness; Execute() itself does
  /// not sleep.
  double fixed_overhead_ms = 0.0;
};

/// Returns the builtin dialect descriptor for an engine.
const Dialect& GetDialect(EngineKind kind);

/// Applies dialect workarounds to a statement in place. Currently: when the
/// dialect forbids rand() in WHERE, hoists the FROM into a derived table that
/// precomputes rand() columns and rewrites the predicate to reference them.
Status ApplySyntaxRules(const Dialect& dialect, sql::SelectStmt* stmt);

/// A connection to an underlying database through a specific driver. This is
/// the only path by which VerdictDB reads or writes data: every statement is
/// SQL, sent as text (Execute) or as the AST whose printed text is logged
/// (ExecuteAst).
class Connection {
 public:
  Connection(engine::Database* db, EngineKind kind)
      : db_(db), dialect_(GetDialect(kind)) {}

  /// Applies the dialect's syntax rules to a clone of `stmt`, logs the
  /// clone's text under the dialect's print options, and runs the clone in
  /// process (Database::ExecuteStatement). The logged text is the record of
  /// what was sent; "Text/AST agreement contract" in docs/INVARIANTS.md
  /// says what keeps it equivalent to the clone.
  Result<engine::ResultSet> ExecuteAst(const sql::Statement& stmt);

  /// Executes raw SQL text.
  Result<engine::ResultSet> Execute(const std::string& sql);

  /// Executes raw SQL text through the metadata memo: while the database's
  /// write generation is unchanged, a statement memoized under it returns
  /// the memoized result without running. Otherwise the statement runs as
  /// in Execute, and its result is memoized when it is OK, the statement is
  /// a SELECT calling no rand-family function, and no write landed while it
  /// ran. Either way the statement is logged, so statement_log() has the
  /// same shape on a hit. A hit shares the memoized result's table; callers
  /// must not modify it. Contract: "Metadata memo contract" in
  /// docs/INVARIANTS.md.
  Result<engine::ResultSet> ExecuteCached(const std::string& sql);

  const Dialect& dialect() const { return dialect_; }
  engine::Database* database() { return db_; }

  /// Attaches a per-statement execution guard (nullptr = ungoverned): every
  /// statement issued over this connection runs under it — the middleware
  /// resets the guard per user query, and all the statements that query
  /// issues (sample probes, the rewritten query, the exact fallback) share
  /// the one deadline / budget. The guard must outlive the connection or be
  /// detached with set_exec_guard(nullptr).
  void set_exec_guard(const ExecGuard* guard) { guard_ = guard; }
  const ExecGuard* exec_guard() const { return guard_; }

  /// SQL statements issued over this connection (for tests / accounting).
  const std::vector<std::string>& statement_log() const { return log_; }
  void ClearLog() { log_.clear(); }

 private:
  engine::Database* db_;
  const Dialect& dialect_;
  const ExecGuard* guard_ = nullptr;
  std::vector<std::string> log_;
  /// The memo: statement text -> result, all computed under memo_generation_.
  uint64_t memo_generation_ = 0;
  std::unordered_map<std::string, engine::ResultSet> memo_;
};

}  // namespace vdb::driver

#endif  // VDB_DRIVER_DIALECT_H_
