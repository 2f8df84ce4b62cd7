#include "engine/database.h"

#include <algorithm>
#include <cctype>
#include <set>
#include <sstream>
#include <thread>

#include "engine/planner.h"
#include "sql/parser.h"

namespace vdb::engine {

namespace {
std::string ToLower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}
}  // namespace

int ResultSet::ColumnIndex(const std::string& name) const {
  std::string lower = ToLower(name);
  for (size_t i = 0; i < names.size(); ++i) {
    if (ToLower(names[i]) == lower) return static_cast<int>(i);
  }
  return -1;
}

std::string ResultSet::ToString(size_t max_rows) const {
  std::ostringstream os;
  for (size_t c = 0; c < names.size(); ++c) {
    if (c) os << " | ";
    os << names[c];
  }
  os << "\n";
  for (size_t c = 0; c < names.size(); ++c) {
    if (c) os << "-+-";
    os << std::string(names[c].size(), '-');
  }
  os << "\n";
  size_t shown = std::min(NumRows(), max_rows);
  for (size_t r = 0; r < shown; ++r) {
    for (size_t c = 0; c < NumCols(); ++c) {
      if (c) os << " | ";
      os << Get(r, c).ToString();
    }
    os << "\n";
  }
  if (NumRows() > shown) {
    os << "... (" << NumRows() - shown << " more rows)\n";
  }
  return os.str();
}

Database::Database(uint64_t seed) : rng_(seed) {}

int Database::num_threads() const {
  if (num_threads_ > 0) return num_threads_;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

Status Database::RegisterTable(const std::string& name, TablePtr table) {
  return catalog_.CreateTable(name, std::move(table));
}

Result<ResultSet> Database::ExecuteSelect(const sql::SelectStmt& stmt,
                                          const ExecGuard* guard) {
  auto clone = stmt.Clone();
  return RunSelect(this, clone.get(), guard);
}

Result<ResultSet> Database::Execute(const std::string& sql,
                                    const ExecGuard* guard) {
  auto parsed = sql::ParseStatement(sql);
  if (!parsed.ok()) return parsed.status();
  return ExecuteStatement(parsed.value().get(), guard);
}

Result<ResultSet> Database::ExecuteStatement(sql::Statement* stmt,
                                             const ExecGuard* guard) {
  if (stmt->kind != sql::StatementKind::kDropTable && !stmt->select) {
    return Status::InvalidArgument("statement has no SELECT body");
  }
  switch (stmt->kind) {
    case sql::StatementKind::kSelect:
      return RunSelect(this, stmt->select.get(), guard);

    case sql::StatementKind::kCreateTableAs: {
      auto rs = RunSelect(this, stmt->select.get(), guard);
      if (!rs.ok()) return rs.status();
      ResultSet r = std::move(rs).ValueOrDie();
      // Rebuild with unique lowercase column names.
      auto table = std::make_shared<Table>();
      std::set<std::string> used;
      for (size_t i = 0; i < r.NumCols(); ++i) {
        std::string name = ToLower(r.names[i]);
        std::string unique = name;
        int suffix = 2;
        while (!used.insert(unique).second) {
          unique = name + "_" + std::to_string(suffix++);
        }
        table->AddColumn(unique, std::move(r.table->column(i)));
      }
      VDB_RETURN_IF_ERROR(catalog_.CreateTable(stmt->table_name, table));
      ResultSet empty;
      empty.table = std::make_shared<Table>();
      return empty;
    }

    case sql::StatementKind::kDropTable: {
      VDB_RETURN_IF_ERROR(
          catalog_.DropTable(stmt->table_name, stmt->if_exists));
      ResultSet empty;
      empty.table = std::make_shared<Table>();
      return empty;
    }

    case sql::StatementKind::kInsertSelect: {
      TablePtr target = catalog_.GetTable(stmt->table_name);
      if (!target) {
        return Status::NotFound("no such table: " + stmt->table_name);
      }
      auto rs = RunSelect(this, stmt->select.get(), guard);
      if (!rs.ok()) return rs.status();
      const ResultSet& r = rs.value();
      if (r.NumCols() != target->num_columns()) {
        return Status::InvalidArgument(
            "INSERT column count mismatch: target has " +
            std::to_string(target->num_columns()) + ", select produced " +
            std::to_string(r.NumCols()));
      }
      // Column ranges coerce a mismatched cell type as a row append would.
      target->AppendRange(*r.table, 0, r.NumRows());
      catalog_.MarkWritten();
      ResultSet empty;
      empty.table = std::make_shared<Table>();
      return empty;
    }
  }
  return Status::Internal("unhandled statement kind");
}

}  // namespace vdb::engine
