#include "driver/dialect.h"

#include <vector>

#include "sql/parser.h"

namespace vdb::driver {

namespace {

Dialect MakeGeneric() {
  Dialect d;
  d.kind = EngineKind::kGeneric;
  d.name = "generic";
  return d;
}

Dialect MakeImpala() {
  Dialect d;
  d.kind = EngineKind::kImpala;
  d.name = "impala";
  d.allows_rand_in_where = false;  // paper §2.1
  d.fixed_overhead_ms = 80.0;
  return d;
}

Dialect MakeSpark() {
  Dialect d;
  d.kind = EngineKind::kSparkSql;
  d.name = "sparksql";
  d.fixed_overhead_ms = 250.0;  // heavy per-query planning/dispatch
  return d;
}

Dialect MakeRedshift() {
  Dialect d;
  d.kind = EngineKind::kRedshift;
  d.name = "redshift";
  d.print_options.identifier_quote = '"';
  d.fixed_overhead_ms = 30.0;
  return d;
}

}  // namespace

const Dialect& GetDialect(EngineKind kind) {
  static const Dialect kGeneric = MakeGeneric();
  static const Dialect kImpala = MakeImpala();
  static const Dialect kSpark = MakeSpark();
  static const Dialect kRedshift = MakeRedshift();
  switch (kind) {
    case EngineKind::kGeneric: return kGeneric;
    case EngineKind::kImpala: return kImpala;
    case EngineKind::kSparkSql: return kSpark;
    case EngineKind::kRedshift: return kRedshift;
  }
  return kGeneric;
}

Status ApplySyntaxRules(const Dialect& dialect, sql::SelectStmt* stmt) {
  // Recurse into derived tables and unions first.
  if (stmt->from) {
    std::vector<sql::TableRef*> stack = {stmt->from.get()};
    while (!stack.empty()) {
      sql::TableRef* t = stack.back();
      stack.pop_back();
      if (t->kind == sql::TableRef::Kind::kDerived) {
        VDB_RETURN_IF_ERROR(ApplySyntaxRules(dialect, t->derived.get()));
      } else if (t->kind == sql::TableRef::Kind::kJoin) {
        stack.push_back(t->left.get());
        stack.push_back(t->right.get());
      }
    }
  }
  if (stmt->union_next) {
    VDB_RETURN_IF_ERROR(ApplySyntaxRules(dialect, stmt->union_next.get()));
  }

  if (dialect.allows_rand_in_where || !stmt->where) return Status::Ok();
  // The WHERE's own rand-family calls; a subquery's calls stay in the
  // subquery, where they draw per subquery row.
  std::vector<sql::Expr*> calls;
  sql::ForEachRandCallInExpr(
      *stmt->where, [&calls](sql::Expr& e) { calls.push_back(&e); },
      /*into_subqueries=*/false);
  if (calls.empty()) return Status::Ok();

  // Hoist: from F where P(rand())  =>
  //   from (select *, rand() as __vdb_rand0, ... from F) as __vdb_r
  //   where P(__vdb_rand0, ...)
  // Back to front, so a call nested in another's arguments (which the
  // binder rejects) is replaced before the enclosing call is cloned.
  std::vector<sql::SelectItem> hoisted(calls.size());
  for (size_t i = calls.size(); i-- > 0;) {
    const std::string column = "__vdb_rand" + std::to_string(i);
    hoisted[i] = sql::SelectItem(calls[i]->Clone(), column);
    *calls[i] = sql::Expr(sql::ExprKind::kColumnRef);
    calls[i]->name = column;
  }
  auto inner = std::make_unique<sql::SelectStmt>();
  inner->items.emplace_back(sql::MakeStar(), "");
  for (auto& item : hoisted) inner->items.push_back(std::move(item));
  inner->from = std::move(stmt->from);
  stmt->from = sql::MakeDerivedTable(std::move(inner), "__vdb_r");
  return Status::Ok();
}

Result<engine::ResultSet> Connection::ExecuteAst(const sql::Statement& stmt) {
  // The dialect's workarounds act on a clone, which then runs in process.
  // Its printed text is the log's record of what was sent; the round-trip
  // suite keeps that text equivalent to the clone ("Text/AST agreement
  // contract" in docs/INVARIANTS.md).
  sql::Statement local;
  local.kind = stmt.kind;
  local.table_name = stmt.table_name;
  local.if_exists = stmt.if_exists;
  if (stmt.select) local.select = stmt.select->Clone();
  const Status rules = local.select
                           ? ApplySyntaxRules(dialect_, local.select.get())
                           : Status::Ok();
  // Logged even when a rule fails, so the log's last entry is always this
  // statement.
  log_.push_back(sql::PrintStatement(local, dialect_.print_options));
  VDB_RETURN_IF_ERROR(rules);
  return db_->ExecuteStatement(&local, guard_);
}

Result<engine::ResultSet> Connection::Execute(const std::string& sql) {
  log_.push_back(sql);
  return db_->Execute(sql, guard_);
}

Result<engine::ResultSet> Connection::ExecuteCached(const std::string& sql) {
  log_.push_back(sql);
  const uint64_t generation = db_->write_generation();
  if (generation != memo_generation_) {
    memo_.clear();
    memo_generation_ = generation;
  } else if (auto hit = memo_.find(sql); hit != memo_.end()) {
    return hit->second;
  }
  auto parsed = sql::ParseStatement(sql);
  if (!parsed.ok()) return parsed.status();
  sql::Statement& stmt = *parsed.value();
  auto rs = db_->ExecuteStatement(&stmt, guard_);
  if (rs.ok() && stmt.kind == sql::StatementKind::kSelect &&
      !sql::DrawsRand(*stmt.select) && db_->write_generation() == generation) {
    memo_.emplace(sql, rs.value());
  }
  return rs;
}

}  // namespace vdb::driver
