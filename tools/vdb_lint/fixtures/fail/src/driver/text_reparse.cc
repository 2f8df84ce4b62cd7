// Fixture: text-reparse must fire where printed SQL goes back through a
// parser — inline, through an appended local, and through a local that a
// lambda captures.
#include <string>

namespace vdb::driver {

Result<ResultSet> Connection::ExecuteAst(const sql::Statement& stmt) {
  return Execute(sql::PrintStatement(stmt, dialect_.print_options));  // fires
}

Status Rebuild(Connection* conn, const sql::SelectStmt& sel) {
  std::string text = "create table t as ";
  text += sql::PrintSelect(sel);
  return conn->Execute(text).status();  // fires
}

Result<std::unique_ptr<sql::Statement>> Reparse(const sql::Expr& e) {
  const std::string where = sql::PrintExpr(e);
  auto reparse = [&] { return sql::ParseStatement("select 1 where " + where); };  // fires
  return reparse();
}

}  // namespace vdb::driver
