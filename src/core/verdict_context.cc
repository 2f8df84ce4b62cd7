#include "core/verdict_context.h"

#include <algorithm>
#include <map>
#include <optional>
#include <unordered_map>

#include "core/flattener.h"
#include "core/query_classifier.h"
#include "core/rewriter.h"
#include "core/sample_planner.h"
#include "engine/functions.h"
#include "engine/group_ids.h"
#include "sql/parser.h"
#include "sql/printer.h"

namespace vdb::core {

namespace {

using sql::Expr;
using sql::ExprKind;
using sql::SelectStmt;

bool ContainsExtreme(const Expr& e) {
  if (e.kind == ExprKind::kFunction && !e.is_window &&
      (e.name == "min" || e.name == "max")) {
    return true;
  }
  for (const auto& a : e.args) {
    if (a && ContainsExtreme(*a)) return true;
  }
  for (const auto& w : e.case_whens) {
    if (ContainsExtreme(*w)) return true;
  }
  for (const auto& t : e.case_thens) {
    if (ContainsExtreme(*t)) return true;
  }
  if (e.case_else && ContainsExtreme(*e.case_else)) return true;
  return false;
}

/// True if the item matches a group-by expression (returned items appear in
/// both halves of a decomposed query).
bool IsGroupItem(const sql::SelectItem& item, const SelectStmt& stmt) {
  std::string text = sql::PrintExpr(*item.expr);
  for (const auto& g : stmt.group_by) {
    if (sql::PrintExpr(*g) == text) return true;
    if (item.expr->kind == ExprKind::kColumnRef &&
        g->kind == ExprKind::kColumnRef && g->name == item.expr->name) {
      return true;
    }
  }
  return false;
}

/// The columns of `rs` at positions `cols`.
std::vector<const engine::Column*> KeyColumns(const engine::ResultSet& rs,
                                              const std::vector<int>& cols) {
  std::vector<const engine::Column*> keys;
  if (!rs.table) return keys;  // no rows, so no key is read
  for (int c : cols) keys.push_back(&rs.table->column(static_cast<size_t>(c)));
  return keys;
}

/// Each row's typed group-key hash over `keys` (engine/group_ids.h): NULL
/// hashes like NULL, 5 like 5.0, so it agrees with JoinKeysEqual.
std::vector<uint64_t> KeyHashes(const std::vector<const engine::Column*>& keys,
                                size_t num_rows) {
  std::vector<uint64_t> hashes(num_rows, engine::kGroupHashSeed);
  for (const engine::Column* k : keys) {
    engine::HashGroupColumn(*k, num_rows, &hashes);
  }
  return hashes;
}

}  // namespace

VerdictContext::VerdictContext(engine::Database* db,
                               driver::EngineKind engine_kind,
                               VerdictOptions options)
    : options_(options),
      conn_(db, engine_kind),
      catalog_(&conn_),
      builder_(&conn_, &catalog_) {
  db->set_num_threads(options_.num_threads);
  // The memory budget is a standing limit, armed from construction so the
  // offline stage (sample builds issued directly on the builder) is governed
  // too; deadlines are per-query and armed in ExecuteApprox.
  guard_.set_memory_budget_bytes(options_.memory_budget_bytes);
  conn_.set_exec_guard(&guard_);
}

Result<engine::ResultSet> VerdictContext::Execute(const std::string& sql,
                                                  ExecInfo* info) {
  auto ans = ExecuteApprox(sql, info);
  if (!ans.ok()) return ans.status();
  return std::move(ans).ValueOrDie().result;
}

Result<ApproxAnswer> VerdictContext::ExecuteApprox(const std::string& sql,
                                                   ExecInfo* info) {
  // Options are mutable between queries; re-sync the engine-side knob so
  // options().num_threads sweeps (benches, tests) take effect per query.
  conn_.database()->set_num_threads(options_.num_threads);
  // Re-arm the governor for this query: clear any stale cancel/accounting,
  // then arm the deadline and budget from the current options. Every
  // statement the query issues over conn_ runs under this one guard.
  guard_.ResetForStatement();
  guard_.set_memory_budget_bytes(options_.memory_budget_bytes);
  guard_.set_deadline_after_ms(options_.timeout_ms);
  conn_.set_exec_guard(&guard_);
  // Each user statement starts a fresh statement log, so the log holds
  // this statement's catalog read, probes and rewritten query, and stays
  // bounded in a long-lived context.
  conn_.ClearLog();
  ExecInfo local;
  ExecInfo* ei = info ? info : &local;
  auto finish = [&](Result<engine::ResultSet> rs) -> Result<ApproxAnswer> {
    ei->peak_memory_bytes = guard_.peak_reserved_bytes();
    if (!rs.ok()) return rs.status();
    ApproxAnswer out;
    out.result = std::move(rs).ValueOrDie();
    out.confidence = options_.confidence;
    return out;
  };
  // Parsed once: the approximation attempt, the pass-through and the HAC's
  // exact run all read this statement.
  auto parsed = sql::ParseStatement(sql);
  if (!parsed.ok() || parsed.value()->kind != sql::StatementKind::kSelect) {
    ei->skip_reason =
        parsed.ok() ? "not a SELECT" : "parse error (passed through)";
    return finish(conn_.Execute(sql));
  }
  sql::Statement& stmt = *parsed.value();
  // Comparison subqueries -> joins (§2.2), before classification and for the
  // pass-through alike: flattening is semantics-preserving, and many engines
  // (including ours) cannot evaluate correlated subqueries natively.
  auto flattened = FlattenComparisonSubqueries(stmt.select.get());
  if (!flattened.ok()) {
    // The statement may be half rewritten: pass the original text through.
    ei->skip_reason = "flattening failed";
    return finish(conn_.Execute(sql));
  }
  bool handled = false;
  auto approx = TryApproximate(stmt, ei, &handled);
  ei->peak_memory_bytes = guard_.peak_reserved_bytes();
  if (handled) return approx;
  // Passthrough: unsupported queries run unchanged on the underlying DB.
  return finish(conn_.ExecuteAst(stmt));
}

Result<ApproxAnswer> VerdictContext::TryApproximate(
    const sql::Statement& stmt, ExecInfo* info, bool* handled) {
  *handled = false;
  const SelectStmt* sel = stmt.select.get();
  QueryClass qc = ClassifyQuery(*sel);
  if (!qc.supported) {
    info->skip_reason = qc.reason;
    return Status::Unsupported(qc.reason);
  }

  // ---- Mixed extreme + mean-like statistics: decompose (paper §2.2) -----
  if (qc.has_extreme) {
    bool decomposable = !sel->having && sel->order_by.empty() &&
                        sel->limit < 0 && !qc.nested_aggregate;
    if (!decomposable) {
      info->skip_reason = "extreme statistics in a non-decomposable query";
      return Status::Unsupported(info->skip_reason);
    }
    return DecomposeAndExecute(*sel, qc, info, handled);
  }

  // ---- Plan samples -------------------------------------------------------
  QueryClass* plan_qc = &qc;
  QueryClass qc_inner;
  const SelectStmt* plan_sel = sel;
  if (qc.nested_aggregate) {
    qc_inner = ClassifyQuery(*qc.relations[0].derived);
    plan_qc = &qc_inner;
    plan_sel = qc.relations[0].derived;
  }
  QualifyJoinEdges(plan_qc, conn_.database()->catalog());

  std::map<std::string, uint64_t> base_rows;
  for (const auto& r : plan_qc->relations) {
    if (r.is_derived) {
      base_rows[r.alias] = 0;
      continue;
    }
    auto t = conn_.database()->catalog().GetTable(r.base_table);
    if (!t) {
      info->skip_reason = "unknown table: " + r.base_table;
      return Status::NotFound(info->skip_reason);
    }
    base_rows[r.alias] = t->num_rows();
  }

  auto samples = catalog_.SamplesFor("");
  if (!samples.ok()) {
    info->skip_reason = "sample catalog unavailable";
    return samples.status();
  }
  if (samples.value().empty()) {
    info->skip_reason = "no samples prepared";
    return Status::NotFound(info->skip_reason);
  }

  // The group-cardinality hint only ever rejects plans, so a query with no
  // sampled plan without it has none with it: plan once without the hint,
  // and send the probe only when a sampled plan exists for it to check.
  SamplePlanner planner(options_, samples.value());
  auto plan = planner.Plan(*plan_qc, base_rows);
  int64_t hint = 0;
  if (plan.ok() && plan.value().UsesSamples()) {
    hint = EstimateGroupCardinality(*plan_sel, *plan_qc, samples.value());
    if (hint > 0) plan = planner.Plan(*plan_qc, base_rows, hint);
  }
  if (!plan.ok()) {
    info->skip_reason = "sample planning failed";
    return plan.status();
  }
  if (!plan.value().UsesSamples()) {
    info->skip_reason = "AQP infeasible (no sample combination fits)";
    return Status::Unsupported(info->skip_reason);
  }

  // ---- Rewrite + execute ---------------------------------------------------
  AqpRewriter rewriter(options_);
  Result<RewriteResult> rewritten =
      qc.nested_aggregate
          ? rewriter.RewriteNested(*sel, qc, qc_inner, plan.value(), hint)
          : rewriter.RewriteFlat(*sel, qc, plan.value());
  if (!rewritten.ok()) {
    info->skip_reason = "rewrite failed: " + rewritten.status().message();
    return rewritten.status();
  }

  sql::Statement rew_stmt;
  rew_stmt.kind = sql::StatementKind::kSelect;
  rew_stmt.select = std::move(rewritten.value().rewritten);
  info->subsamples = rewritten.value().b;

  auto raw = conn_.ExecuteAst(rew_stmt);
  // The text the connection logged: the SQL sent, after syntax rules.
  info->rewritten_sql = conn_.statement_log().back();
  if (!raw.ok()) {
    info->skip_reason = "rewritten query failed: " + raw.status().message();
    return raw.status();
  }

  AnswerRewriter answerer(options_);
  auto answer = answerer.Rewrite(raw.value(), rewritten.value().columns);
  if (!answer.ok()) {
    info->skip_reason = "answer rewriting failed";
    return answer.status();
  }
  *handled = true;
  info->approximated = true;
  info->max_relative_error = answer.value().max_relative_error;

  // ---- High-level Accuracy Contract (§2.4) --------------------------------
  // Conservative: rows whose relative error could not be measured (NULL
  // stderr from single-subsample groups, near-zero points with real spread)
  // count as contract violations — the contract must never pass vacuously
  // on the measured subset.
  if (options_.min_accuracy > 0.0 &&
      (answer.value().max_relative_error > (1.0 - options_.min_accuracy) ||
       answer.value().unmeasured_rows > 0)) {
    info->exact_rerun = true;
    info->approximated = false;
    auto exact = conn_.ExecuteAst(stmt);
    if (!exact.ok()) {
      // Graceful degradation: when the exact fallback trips the governor
      // (out of time or budget after the approximate answer is already in
      // hand), serve the approximate answer with its error bounds instead
      // of failing the query. Genuine execution errors still propagate.
      const StatusCode code = exact.status().code();
      if (code == StatusCode::kCancelled ||
          code == StatusCode::kDeadlineExceeded ||
          code == StatusCode::kResourceExhausted) {
        info->approximated = true;
        info->degraded = true;
        info->degradation_note =
            "HAC exact fallback aborted (" + exact.status().message() +
            "); serving the approximate answer with error bounds";
        return answer;
      }
      return exact.status();
    }
    ApproxAnswer out;
    out.result = std::move(exact).ValueOrDie();
    out.confidence = options_.confidence;
    return out;
  }
  return answer;
}

Result<ApproxAnswer> VerdictContext::DecomposeAndExecute(
    const SelectStmt& sel, const QueryClass& /*qc*/, ExecInfo* info,
    bool* handled) {
  // Partition the select items.
  enum class ItemKind { kGroup, kMean, kExtreme };
  std::vector<ItemKind> kinds;
  for (const auto& item : sel.items) {
    if (IsGroupItem(item, sel)) {
      kinds.push_back(ItemKind::kGroup);
    } else if (ContainsExtreme(*item.expr)) {
      kinds.push_back(ItemKind::kExtreme);
    } else {
      kinds.push_back(ItemKind::kMean);
    }
  }

  auto subset = [&](bool keep_mean) {
    auto s = sel.Clone();
    std::vector<sql::SelectItem> kept;
    for (size_t i = 0; i < s->items.size(); ++i) {
      bool keep = kinds[i] == ItemKind::kGroup ||
                  (keep_mean ? kinds[i] == ItemKind::kMean
                             : kinds[i] == ItemKind::kExtreme);
      if (keep) kept.push_back(std::move(s->items[i]));
    }
    s->items = std::move(kept);
    return s;
  };

  // Approximate the mean-like half through the normal path.
  auto mean_sel = subset(/*keep_mean=*/true);
  sql::Statement mean_stmt;
  mean_stmt.kind = sql::StatementKind::kSelect;
  mean_stmt.select = std::move(mean_sel);
  ExecInfo sub_info;
  bool sub_handled = false;
  auto approx = TryApproximate(mean_stmt, &sub_info, &sub_handled);
  if (!sub_handled || !approx.ok()) {
    info->skip_reason = "decomposition: mean-like half not approximable (" +
                        sub_info.skip_reason + ")";
    return Status::Unsupported(info->skip_reason);
  }

  // Exact extreme half on the base tables.
  auto extreme_sel = subset(/*keep_mean=*/false);
  sql::Statement ex_stmt;
  ex_stmt.kind = sql::StatementKind::kSelect;
  ex_stmt.select = std::move(extreme_sel);
  auto exact = conn_.ExecuteAst(ex_stmt);
  if (!exact.ok()) {
    info->skip_reason = "decomposition: exact half failed";
    return exact.status();
  }

  // ---- Merge by group key, preserving the original item order -------------
  const ApproxAnswer& a = approx.value();
  const engine::ResultSet& e = exact.value();

  // Column positions of each original item inside the two halves.
  std::vector<int> pos_in_mean(sel.items.size(), -1);
  std::vector<int> pos_in_extreme(sel.items.size(), -1);
  int mi = 0, xi = 0;
  for (size_t i = 0; i < sel.items.size(); ++i) {
    if (kinds[i] == ItemKind::kGroup) {
      pos_in_mean[i] = mi++;
      pos_in_extreme[i] = xi++;
    } else if (kinds[i] == ItemKind::kMean) {
      pos_in_mean[i] = mi++;
    } else {
      pos_in_extreme[i] = xi++;
    }
  }
  std::vector<int> mean_group_cols, extreme_group_cols;
  for (size_t i = 0; i < sel.items.size(); ++i) {
    if (kinds[i] == ItemKind::kGroup) {
      mean_group_cols.push_back(pos_in_mean[i]);
      extreme_group_cols.push_back(pos_in_extreme[i]);
    }
  }
  // Exact rows by typed key hash. A key that repeats in the exact half (a
  // GROUP BY column left out of the select list) matches its last row.
  const auto exact_keys = KeyColumns(e, extreme_group_cols);
  const auto mean_keys = KeyColumns(a.result, mean_group_cols);
  const std::vector<uint64_t> exact_hashes = KeyHashes(exact_keys, e.NumRows());
  const std::vector<uint64_t> mean_hashes =
      KeyHashes(mean_keys, a.result.NumRows());
  std::unordered_map<uint64_t, std::vector<size_t>> exact_rows;
  for (size_t r = 0; r < e.NumRows(); ++r) {
    exact_rows[exact_hashes[r]].push_back(r);
  }
  auto exact_row_of = [&](size_t mean_row) -> std::optional<size_t> {
    auto it = exact_rows.find(mean_hashes[mean_row]);
    if (it == exact_rows.end()) return std::nullopt;
    for (auto r = it->second.rbegin(); r != it->second.rend(); ++r) {
      if (engine::JoinKeysEqual(mean_keys, mean_row, exact_keys, *r)) return *r;
    }
    return std::nullopt;
  };

  ApproxAnswer out;
  out.confidence = a.confidence;
  out.max_relative_error = a.max_relative_error;
  out.unmeasured_rows = a.unmeasured_rows;
  out.aggregates = a.aggregates;
  auto table = std::make_shared<engine::Table>();
  // Final schema: original items, then the error columns of the mean half.
  for (size_t i = 0; i < sel.items.size(); ++i) {
    std::string name = !sel.items[i].alias.empty()
                           ? sel.items[i].alias
                           : sql::PrintExpr(*sel.items[i].expr);
    out.result.names.push_back(name);
    table->AddColumn(name, TypeId::kNull);
  }
  size_t err_start = table->num_columns();
  for (size_t c = 0; c < a.result.NumCols(); ++c) {
    bool is_err = true;
    for (const auto& agg : a.aggregates) {
      if (agg.point_column == static_cast<int>(c)) is_err = false;
    }
    for (int gc : mean_group_cols) {
      if (gc == static_cast<int>(c)) is_err = false;
    }
    if (is_err) {
      out.result.names.push_back(a.result.names[c]);
      table->AddColumn(a.result.names[c], TypeId::kNull);
    }
  }

  for (size_t r = 0; r < a.result.NumRows(); ++r) {
    std::vector<Value> row;
    const std::optional<size_t> exact_row = exact_row_of(r);
    for (size_t i = 0; i < sel.items.size(); ++i) {
      if (kinds[i] == ItemKind::kExtreme) {
        row.push_back(exact_row ? e.Get(*exact_row,
                                        static_cast<size_t>(pos_in_extreme[i]))
                                : Value::Null());
      } else {
        row.push_back(a.result.Get(r, static_cast<size_t>(pos_in_mean[i])));
      }
    }
    // Error columns.
    size_t err_col = err_start;
    for (size_t c = 0; c < a.result.NumCols() && err_col < table->num_columns();
         ++c) {
      bool is_err = true;
      for (const auto& agg : a.aggregates) {
        if (agg.point_column == static_cast<int>(c)) is_err = false;
      }
      for (int gc : mean_group_cols) {
        if (gc == static_cast<int>(c)) is_err = false;
      }
      if (is_err) {
        row.push_back(a.result.Get(r, c));
        ++err_col;
      }
    }
    table->AppendRow(row);
  }
  out.result.table = std::move(table);
  *handled = true;
  info->approximated = true;
  info->max_relative_error = a.max_relative_error;
  info->subsamples = sub_info.subsamples;
  info->rewritten_sql = sub_info.rewritten_sql;
  return out;
}

int64_t VerdictContext::EstimateGroupCardinality(
    const SelectStmt& sel, const QueryClass& qc,
    const std::vector<sampling::SampleInfo>& samples) {
  if (sel.group_by.empty()) return 0;
  // Only plain column references are probed.
  std::vector<const Expr*> cols;
  for (const auto& g : sel.group_by) {
    if (g->kind != ExprKind::kColumnRef) return 0;
    cols.push_back(g.get());
  }
  // Locate the relation owning the majority of the group columns.
  const engine::Catalog& cat = conn_.database()->catalog();
  std::map<std::string, int> votes;  // base table -> count
  for (const Expr* c : cols) {
    for (const auto& r : qc.relations) {
      if (r.is_derived) continue;
      auto t = cat.GetTable(r.base_table);
      if (t && t->ColumnIndex(c->name) >= 0) {
        votes[r.base_table] += 1;
        break;
      }
    }
  }
  if (votes.empty()) return 0;
  std::string base = votes.begin()->first;
  for (const auto& [b, v] : votes) {
    if (v > votes[base]) base = b;
  }
  // Probe the smallest sample of that base table; fall back to scanning the
  // base table itself when it is dimension-sized (cheap and exact).
  const sampling::SampleInfo* probe = nullptr;
  for (const auto& s : samples) {
    if (s.base_table != base) continue;
    if (probe == nullptr || s.sample_rows < probe->sample_rows) probe = &s;
  }
  std::string probe_table;
  if (probe != nullptr) {
    probe_table = probe->sample_table;
  } else {
    auto t = cat.GetTable(base);
    if (!t || static_cast<int64_t>(t->num_rows()) >=
                  options_.min_rows_for_sampling) {
      return 0;
    }
    probe_table = base;
  }
  std::string expr;
  if (cols.size() == 1) {
    expr = cols[0]->name;
  } else {
    expr = "concat(";
    for (size_t i = 0; i < cols.size(); ++i) {
      if (i) expr += ", '|', ";
      expr += cols[i]->name;
    }
    expr += ")";
  }
  // This statement's text is part of aqpbench's trace-replay contract: the
  // replay re-issues the logged statements between the catalog read and the
  // rewritten query and accepts only ones starting "select count(distinct ".
  // Changing its shape breaks trace.replay_mismatch, not only this probe.
  auto rs = conn_.ExecuteCached("select count(distinct " + expr +
                                ") as c from " + probe_table);
  if (!rs.ok() || rs.value().NumRows() == 0) return 0;
  return rs.value().Get(0, 0).AsInt();
}

}  // namespace vdb::core
