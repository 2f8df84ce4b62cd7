// Fixture counterpart to fail/src/driver/text_reparse.cc: printed text that
// is only logged or used as a name, and doubles written into composed SQL.
#include <string>

namespace vdb::driver {

Result<ResultSet> Connection::ExecuteAst(const sql::Statement& stmt) {
  sql::Statement local = CloneStatement(stmt);
  log_.push_back(sql::PrintStatement(local, dialect_.print_options));
  return db_->ExecuteStatement(&local, guard_);
}

Status Append(Connection* conn, const std::string& table, double ratio) {
  return conn->Execute("select * from " + table + " where k < " +
                       sql::PrintDouble(ratio))
      .status();
}

std::string OutputName(const sql::Expr& e) {
  std::string text = sql::PrintExpr(e);
  return text;
}

}  // namespace vdb::driver
