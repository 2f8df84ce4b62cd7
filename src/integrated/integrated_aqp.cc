#include "integrated/integrated_aqp.h"

#include <algorithm>
#include <unordered_map>

#include "core/query_classifier.h"
#include "engine/aggregates.h"
#include "engine/functions.h"
#include "sql/parser.h"
#include "sql/printer.h"

namespace vdb::integrated {

namespace {

using sql::Expr;
using sql::ExprKind;

/// Replaces aggregate calls with Horvitz-Thompson-scaled equivalents over
/// the substituted sample (single-level: no subsampling machinery).
void ScaleAggregates(Expr* e, double ratio) {
  if (e->kind == ExprKind::kFunction && !e->is_window &&
      vdb::engine::IsAggregateFunction(e->name)) {
    bool star = e->args.empty() || e->args[0]->kind == ExprKind::kStar;
    if (e->name == "count" && e->distinct) {
      // count(distinct x) / ratio
      auto inner = e->Clone();
      auto scaled = sql::MakeBinary(sql::BinaryOp::kDiv, std::move(inner),
                                    sql::MakeDoubleLit(ratio));
      e->kind = ExprKind::kFunction;
      e->name = "round";
      e->distinct = false;
      e->args.clear();
      e->args.push_back(std::move(scaled));
      return;
    }
    if (e->name == "count") {
      // round(sum(1 / verdict_prob))
      Expr::Ptr v;
      if (star) {
        v = sql::MakeDoubleLit(1.0);
      } else {
        auto c = std::make_unique<Expr>(ExprKind::kCase);
        auto isnull = std::make_unique<Expr>(ExprKind::kIsNull);
        isnull->args.push_back(e->args[0]->Clone());
        c->case_whens.push_back(std::move(isnull));
        c->case_thens.push_back(sql::MakeDoubleLit(0.0));
        c->case_else = sql::MakeDoubleLit(1.0);
        v = std::move(c);
      }
      auto sum = sql::MakeFunction("sum", {});
      sum->args.push_back(sql::MakeBinary(
          sql::BinaryOp::kDiv, std::move(v),
          sql::MakeColumnRef("", "verdict_prob")));
      e->name = "round";
      e->distinct = false;
      e->args.clear();
      e->args.push_back(std::move(sum));
      return;
    }
    if (e->name == "sum") {
      auto arg = std::move(e->args[0]);
      e->args.clear();
      e->args.push_back(sql::MakeBinary(
          sql::BinaryOp::kDiv, std::move(arg),
          sql::MakeColumnRef("", "verdict_prob")));
      return;
    }
    if (e->name == "avg") {
      // sum(x/p) / sum(1/p)
      auto num = sql::MakeFunction("sum", {});
      num->args.push_back(sql::MakeBinary(
          sql::BinaryOp::kDiv, std::move(e->args[0]),
          sql::MakeColumnRef("", "verdict_prob")));
      auto den = sql::MakeFunction("sum", {});
      den->args.push_back(sql::MakeBinary(
          sql::BinaryOp::kDiv, sql::MakeDoubleLit(1.0),
          sql::MakeColumnRef("", "verdict_prob")));
      auto div = sql::MakeBinary(sql::BinaryOp::kDiv, std::move(num),
                                 std::move(den));
      *e = std::move(*div);
      return;
    }
    // min/max/var/stddev/quantile: evaluate directly on the sample.
    return;
  }
  for (auto& a : e->args) {
    if (a && a->kind != ExprKind::kStar) ScaleAggregates(a.get(), ratio);
  }
  for (auto& w : e->case_whens) ScaleAggregates(w.get(), ratio);
  for (auto& t : e->case_thens) ScaleAggregates(t.get(), ratio);
  if (e->case_else) ScaleAggregates(e->case_else.get(), ratio);
}

/// Substitutes the chosen relation's base table with the sample table.
void SubstituteOne(sql::TableRef* ref, const std::string& base,
                   const std::string& sample) {
  switch (ref->kind) {
    case sql::TableRef::Kind::kBase:
      if (ref->table_name == base) {
        if (ref->alias.empty()) ref->alias = ref->table_name;
        ref->table_name = sample;
      }
      return;
    case sql::TableRef::Kind::kDerived:
      return;
    case sql::TableRef::Kind::kJoin:
      SubstituteOne(ref->left.get(), base, sample);
      SubstituteOne(ref->right.get(), base, sample);
      return;
  }
}

}  // namespace

Result<IntegratedSample> IntegratedAqp::CreateUniformSample(
    const std::string& base, double tau) {
  auto t = db_->catalog().GetTable(base);
  if (!t) return Status::NotFound("no such table: " + base);
  auto sample = std::make_shared<engine::Table>();
  for (size_t c = 0; c < t->num_columns(); ++c) {
    sample->AddColumn(t->column_name(c), t->column(c).type());
  }
  sample->AddColumn("verdict_prob", TypeId::kDouble);
  Rng rng(db_->NewQuerySeed());
  std::vector<Value> row(t->num_columns() + 1);
  for (size_t r = 0; r < t->num_rows(); ++r) {
    if (!rng.NextBernoulli(tau)) continue;
    for (size_t c = 0; c < t->num_columns(); ++c) row[c] = t->Get(r, c);
    row[t->num_columns()] = Value::Double(tau);
    sample->AppendRow(row);
  }
  IntegratedSample info;
  info.base_table = base;
  info.sample_table = base + "_integrated_uniform";
  info.ratio = tau;
  info.base_rows = t->num_rows();
  info.sample_rows = sample->num_rows();
  db_->catalog().DropTable(info.sample_table, /*if_exists=*/true);
  VDB_RETURN_IF_ERROR(db_->catalog().CreateTable(info.sample_table, sample));
  samples_[base] = info;
  return info;
}

Result<IntegratedSample> IntegratedAqp::CreateStratifiedSample(
    const std::string& base, const std::vector<std::string>& columns,
    int64_t min_rows) {
  auto t = db_->catalog().GetTable(base);
  if (!t) return Status::NotFound("no such table: " + base);
  std::vector<int> strata_cols;
  for (const auto& c : columns) {
    int idx = t->ColumnIndex(c);
    if (idx < 0) return Status::NotFound("no such column: " + c);
    strata_cols.push_back(idx);
  }
  // Pass 1: per-stratum reservoir of row indices (in-memory; a luxury a
  // middleware does not have).
  struct Reservoir {
    std::vector<uint32_t> rows;
    int64_t seen = 0;
  };
  std::unordered_map<std::string, Reservoir> strata;
  Rng rng(db_->NewQuerySeed());
  for (size_t r = 0; r < t->num_rows(); ++r) {
    std::string key;
    for (int c : strata_cols) {
      key += engine::ValueGroupKey(t->Get(r, static_cast<size_t>(c)));
      key.push_back('\x1f');
    }
    Reservoir& res = strata[key];
    ++res.seen;
    if (static_cast<int64_t>(res.rows.size()) < min_rows) {
      res.rows.push_back(static_cast<uint32_t>(r));
    } else {
      uint64_t j = rng.NextBounded(static_cast<uint64_t>(res.seen));
      if (j < static_cast<uint64_t>(min_rows)) {
        res.rows[j] = static_cast<uint32_t>(r);
      }
    }
  }
  // Pass 2: materialize with per-stratum inclusion probabilities.
  auto sample = std::make_shared<engine::Table>();
  for (size_t c = 0; c < t->num_columns(); ++c) {
    sample->AddColumn(t->column_name(c), t->column(c).type());
  }
  sample->AddColumn("verdict_prob", TypeId::kDouble);
  std::vector<Value> row(t->num_columns() + 1);
  // Hash-map iteration order is nondeterministic across runs; emit strata in
  // sorted key order so the sample table (and everything derived from it) is
  // reproducible for a fixed seed.
  std::vector<const std::string*> ordered_keys;
  ordered_keys.reserve(strata.size());
  for (const auto& [key, res] : strata) ordered_keys.push_back(&key);  // vdb-lint: allow(unordered-iteration-in-result-path) keys sorted below before any row is emitted
  std::sort(ordered_keys.begin(), ordered_keys.end(),
            [](const std::string* a, const std::string* b) { return *a < *b; });
  for (const std::string* kp : ordered_keys) {
    const Reservoir& res = strata.at(*kp);
    double p = static_cast<double>(res.rows.size()) /
               static_cast<double>(res.seen);
    for (uint32_t r : res.rows) {
      for (size_t c = 0; c < t->num_columns(); ++c) row[c] = t->Get(r, c);
      row[t->num_columns()] = Value::Double(p);
      sample->AppendRow(row);
    }
  }
  IntegratedSample info;
  info.base_table = base;
  info.sample_table = base + "_integrated_stratified";
  info.strata_columns = columns;
  info.base_rows = t->num_rows();
  info.sample_rows = sample->num_rows();
  info.ratio = t->num_rows() == 0
                   ? 0.0
                   : static_cast<double>(sample->num_rows()) /
                         static_cast<double>(t->num_rows());
  db_->catalog().DropTable(info.sample_table, /*if_exists=*/true);
  VDB_RETURN_IF_ERROR(db_->catalog().CreateTable(info.sample_table, sample));
  samples_[base] = info;
  return info;
}

Result<engine::ResultSet> IntegratedAqp::Execute(const std::string& sql) {
  auto parsed = sql::ParseStatement(sql);
  if (!parsed.ok()) return parsed.status();
  auto stmt = std::move(parsed).ValueOrDie();
  if (stmt->kind != sql::StatementKind::kSelect) {
    return db_->Execute(sql);
  }
  core::QueryClass qc = core::ClassifyQuery(*stmt->select);
  if (!qc.supported || qc.nested_aggregate) {
    return db_->Execute(sql);
  }
  // Pick the single largest relation that has a sample (no sample joins).
  const IntegratedSample* chosen = nullptr;
  for (const auto& r : qc.relations) {
    auto it = samples_.find(r.base_table);
    if (it == samples_.end()) continue;
    if (chosen == nullptr || it->second.base_rows > chosen->base_rows) {
      chosen = &it->second;
    }
  }
  if (chosen == nullptr) return db_->Execute(sql);

  auto sel = stmt->select->Clone();
  SubstituteOne(sel->from.get(), chosen->base_table, chosen->sample_table);
  for (auto& item : sel->items) ScaleAggregates(item.expr.get(), chosen->ratio);
  if (sel->having) ScaleAggregates(sel->having.get(), chosen->ratio);
  return db_->ExecuteSelect(*sel);
}

}  // namespace vdb::integrated
