// The in-process relational database used as VerdictDB's "underlying
// database". The middleware reaches it only through driver::Connection,
// mirroring the paper's driver-level deployment (Fig. 1a): statements go in
// as SQL text or as the parsed statement whose printed text the driver logs.

#ifndef VDB_ENGINE_DATABASE_H_
#define VDB_ENGINE_DATABASE_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "common/governor.h"
#include "common/random.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "engine/catalog.h"
#include "engine/table.h"
#include "sql/ast.h"

namespace vdb::engine {

/// A query result: an output table plus output column names (which may
/// repeat; lookup returns the first match).
struct ResultSet {
  std::vector<std::string> names;
  TablePtr table;

  size_t NumRows() const { return table ? table->num_rows() : 0; }
  size_t NumCols() const { return names.size(); }
  Value Get(size_t row, size_t col) const { return table->Get(row, col); }
  /// Case-insensitive; -1 if absent.
  int ColumnIndex(const std::string& name) const;
  double GetDouble(size_t row, size_t col) const {
    return table->Get(row, col).AsDouble();
  }
  /// Pretty-prints up to max_rows rows (for examples and debugging).
  std::string ToString(size_t max_rows = 20) const;
};

/// An embedded SQL engine: catalog + executor. Statements supported:
/// SELECT (with joins, group-by, having, order-by, limit, window partitions,
/// scalar subqueries, union all), CREATE TABLE AS, DROP TABLE [IF EXISTS],
/// INSERT INTO ... SELECT.
class Database {
 public:
  explicit Database(uint64_t seed = 0xC0FFEE);

  /// Parses one statement and runs it through ExecuteStatement.
  Result<ResultSet> Execute(const std::string& sql,
                            const ExecGuard* guard = nullptr);

  /// Executes one parsed statement: SELECT, CREATE TABLE AS, DROP TABLE or
  /// INSERT ... SELECT. DDL returns an empty ResultSet. The statement is
  /// bound and run in place (binder outputs and rand call-site ids are
  /// written into it); callers that keep the AST pass a clone. `guard`
  /// (optional, nullptr = ungoverned) is the per-statement execution guard
  /// threaded into every SELECT body the statement runs (including the
  /// SELECT inside CREATE TABLE AS / INSERT ... SELECT); a tripped guard
  /// unwinds with kCancelled / kDeadlineExceeded / kResourceExhausted.
  Result<ResultSet> ExecuteStatement(sql::Statement* stmt,
                                     const ExecGuard* guard = nullptr);

  /// Executes an already-parsed SELECT (the statement is cloned; the input
  /// is not mutated).
  Result<ResultSet> ExecuteSelect(const sql::SelectStmt& stmt,
                                  const ExecGuard* guard = nullptr);

  /// Registers a prebuilt table (workload generators use this).
  Status RegisterTable(const std::string& name, TablePtr table);

  Catalog& catalog() { return catalog_; }
  const Catalog& catalog() const { return catalog_; }

  /// Moves on every table create and drop (CREATE TABLE AS, DROP,
  /// RegisterTable, direct catalog calls) and every INSERT. A SELECT's
  /// answer is a function of the tables while it is unchanged, unless the
  /// SELECT draws rand; driver::Connection::ExecuteCached memoizes on it.
  /// Code that writes rows into a registered table object in place, outside
  /// SQL, must report it through catalog().MarkWritten().
  uint64_t write_generation() const { return catalog_.generation(); }

  /// Draws the per-statement seed for the row-addressed rand() substrate
  /// (common/random.h): one Rng draw per executed statement that calls a
  /// rand-family function (statements without one draw nothing), so
  /// consecutive rand statements get independent draws, a fixed database
  /// seed plus a fixed sequence of rand statements stays fully
  /// reproducible, and rand-free statements in between (catalog reads,
  /// probes, DDL, memo hits) shift nothing. Within a statement
  /// every rand-family value is a pure function of (this seed, row id, call
  /// site) — never of evaluation order, plan shape, or thread count.
  ///
  /// Serialized on seed_mu_, so concurrent callers sharing one Database
  /// (read-only statements; DDL still needs external exclusion) each get a
  /// distinct, valid seed instead of racing the generator state. Which
  /// caller gets which seed depends on arrival order — per-statement
  /// reproducibility under concurrency comes from the row-addressed
  /// substrate, not from the seed sequence.
  uint64_t NewQuerySeed() {
    MutexLock lock(seed_mu_);
    return rng_.Next();
  }

  /// Maximum threads the executor may use for one query (morsel-parallel
  /// scans, partial aggregation, join probe, projection, gathers). <= 0
  /// means "all hardware threads"; 1 is the default. Results — values, row
  /// order, and floating-point rounding — are bit-identical for every
  /// setting: the morsel decomposition and merge order depend only on the
  /// input, never on the thread count or the OS schedule.
  void set_num_threads(int n) { num_threads_ = n; }
  int num_threads() const;

  /// Total base-table rows scanned by queries since construction. Used by
  /// benches to report I/O-proportional costs. Atomic so concurrent
  /// statements sharing one Database tally without lost updates.
  uint64_t rows_scanned() const {
    return rows_scanned_.load(std::memory_order_relaxed);
  }
  void AddRowsScanned(uint64_t n) {
    rows_scanned_.fetch_add(n, std::memory_order_relaxed);
  }

 private:
  Catalog catalog_;
  Mutex seed_mu_;
  Rng rng_ GUARDED_BY(seed_mu_);
  std::atomic<uint64_t> rows_scanned_{0};
  int num_threads_ = 1;
};

}  // namespace vdb::engine

#endif  // VDB_ENGINE_DATABASE_H_
