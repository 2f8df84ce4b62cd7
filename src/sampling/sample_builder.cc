#include "sampling/sample_builder.h"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <limits>
#include <sstream>

#include "engine/binder.h"
#include "engine/vector_eval.h"
#include "sampling/staircase.h"
#include "sql/ast.h"
#include "sql/printer.h"

namespace vdb::sampling {

namespace {

std::string JoinList(const std::vector<std::string>& items,
                     const std::string& sep, const std::string& prefix = "") {
  std::string out;
  for (size_t i = 0; i < items.size(); ++i) {
    if (i) out += sep;
    out += prefix + items[i];
  }
  return out;
}

/// Appends the constant verdict_prob column to a materialized sample. The
/// membership scan itself is engine::FilterGatherParallel — a
/// morsel-parallel filter over the base table, then one column-parallel
/// gather of the survivors. The probability attaches afterwards because
/// hashed samples derive it from the realized survivor count.
void AttachProbColumn(engine::Table* sample, double prob) {
  engine::Column prob_col = engine::Column::FromData(
      TypeId::kDouble, {}, std::vector<double>(sample->num_rows(), prob), {},
      {});
  sample->AddColumn("verdict_prob", std::move(prob_col));
}

}  // namespace

Result<int64_t> SampleBuilder::CountRows(const std::string& table) {
  auto rs = conn_->Execute("select count(*) as c from " + table);
  if (!rs.ok()) return rs.status();
  return rs.value().Get(0, 0).AsInt();
}

Result<std::vector<std::string>> SampleBuilder::BaseColumns(
    const std::string& table) {
  // The driver-level analogue of JDBC DatabaseMetaData: schema introspection
  // through the engine's catalog interface.
  auto t = conn_->database()->catalog().GetTable(table);
  if (!t) return Status::NotFound("no such table: " + table);
  std::vector<std::string> cols;
  for (size_t i = 0; i < t->num_columns(); ++i) {
    cols.push_back(t->column_name(i));
  }
  return cols;
}

std::string SampleBuilder::SampleName(
    const std::string& base, SampleType type,
    const std::vector<std::string>& cols) const {
  std::string name = base + "_vdb_" + SampleTypeName(type);
  for (const auto& c : cols) name += "_" + c;
  return name;
}

Result<SampleInfo> SampleBuilder::CreateUniformSample(const std::string& base,
                                                      double tau) {
  auto n = CountRows(base);
  if (!n.ok()) return n.status();
  auto cols = BaseColumns(base);
  if (!cols.ok()) return cols.status();

  SampleInfo info;
  info.base_table = base;
  info.type = SampleType::kUniform;
  info.ratio = tau;
  info.base_rows = static_cast<uint64_t>(n.value());
  info.sample_table = SampleName(base, SampleType::kUniform, {});

  // In-process engines take a vectorized direct scan: a Bernoulli selection
  // vector over the base table, bulk-gathered into the sample. Other
  // dialects go through SQL so their syntax rules still apply. The Bernoulli
  // draws are row-addressed (one query seed, CounterRandom per physical
  // row), so the membership scan runs morsel-parallel and still yields the
  // identical sample at every thread count; the gather is column-parallel.
  if (conn_->dialect().kind == driver::EngineKind::kGeneric) {
    auto* db = conn_->database();
    auto t = db->catalog().GetTable(base);
    if (!t) return Status::NotFound("no such table: " + base);
    auto pred = sql::MakeBinary(sql::BinaryOp::kLt,
                                sql::MakeFunction("rand", {}),
                                sql::MakeDoubleLit(tau));
    pred->args[0]->rand_site = 1;
    VDB_RETURN_IF_ERROR(engine::ResolveFunctions(pred.get()));
    auto sample = engine::FilterGatherParallel(*pred, t, db->NewQuerySeed(),
                                               db->num_threads(),
                                               conn_->exec_guard());
    if (!sample.ok()) return sample.status();
    db->AddRowsScanned(t->num_rows());
    info.sample_rows = sample.value()->num_rows();
    AttachProbColumn(sample.value().get(), tau);
    VDB_RETURN_IF_ERROR(db->catalog().CreateTable(
        info.sample_table, std::move(sample).ValueOrDie()));
    VDB_RETURN_IF_ERROR(catalog_->Register(info));
    return info;
  }

  // Dialect-safe Bernoulli selection: rand() is computed in a derived table
  // so engines that forbid rand() in WHERE (e.g. Impala) accept the query.
  std::ostringstream sql;
  sql << "create table " << info.sample_table << " as select "
      << JoinList(cols.value(), ", ") << ", " << tau
      << " as verdict_prob from (select *, rand() as __vdb_rand from " << base
      << ") as __vdb_b where __vdb_rand < " << tau;
  auto created = conn_->Execute(sql.str());
  if (!created.ok()) return created.status();

  auto ns = CountRows(info.sample_table);
  if (!ns.ok()) return ns.status();
  info.sample_rows = static_cast<uint64_t>(ns.value());
  VDB_RETURN_IF_ERROR(catalog_->Register(info));
  return info;
}

Result<SampleInfo> SampleBuilder::CreateHashedSample(const std::string& base,
                                                     const std::string& column,
                                                     double tau) {
  auto n = CountRows(base);
  if (!n.ok()) return n.status();
  auto cols = BaseColumns(base);
  if (!cols.ok()) return cols.status();

  SampleInfo info;
  info.base_table = base;
  info.type = SampleType::kHashed;
  info.columns = {column};
  info.hash_cutoff = tau;
  info.base_rows = static_cast<uint64_t>(n.value());
  info.sample_table = SampleName(base, SampleType::kHashed, {column});

  // In-process engines run the membership predicate verdict_hash(C) < tau
  // through the batch evaluator directly over the base table — one pass, no
  // temporary table. The hash predicate is deterministic (no RNG), so both
  // the scan and the gather run morsel-parallel.
  if (conn_->dialect().kind == driver::EngineKind::kGeneric) {
    auto* db = conn_->database();
    auto t = db->catalog().GetTable(base);
    if (!t) return Status::NotFound("no such table: " + base);
    int col_idx = t->ColumnIndex(column);
    if (col_idx < 0) {
      return Status::NotFound("no such column: " + base + "." + column);
    }
    auto colref = sql::MakeColumnRef("", column);
    colref->bound_column = col_idx;
    std::vector<sql::Expr::Ptr> args;
    args.push_back(std::move(colref));
    auto pred =
        sql::MakeBinary(sql::BinaryOp::kLt,
                        sql::MakeFunction("verdict_hash", std::move(args)),
                        sql::MakeDoubleLit(tau));
    VDB_RETURN_IF_ERROR(engine::ResolveFunctions(pred.get()));
    // The hash predicate is fully deterministic (no rand-family node), so
    // no query seed is drawn — drawing one would needlessly shift the
    // seeded per-statement seed sequence of everything that follows.
    auto sample = engine::FilterGatherParallel(*pred, t, /*rand_seed=*/0,
                                               db->num_threads(),
                                               conn_->exec_guard());
    if (!sample.ok()) return sample.status();
    db->AddRowsScanned(t->num_rows());
    info.sample_rows = sample.value()->num_rows();
    // Hashed samples record the realized ratio |Ts|/|T| (paper §3.1).
    info.ratio = n.value() == 0 ? 0.0
                                : static_cast<double>(info.sample_rows) /
                                      static_cast<double>(n.value());
    AttachProbColumn(sample.value().get(), info.ratio);
    VDB_RETURN_IF_ERROR(db->catalog().CreateTable(
        info.sample_table, std::move(sample).ValueOrDie()));
    VDB_RETURN_IF_ERROR(catalog_->Register(info));
    return info;
  }

  // Pass 1: select the universe (no randomness; pure hash predicate).
  std::string tmp = info.sample_table + "_tmp";
  VDB_RETURN_IF_ERROR(conn_->Execute("drop table if exists " + tmp).status());
  {
    std::ostringstream sql;
    sql << "create table " << tmp << " as select * from " << base
        << " where verdict_hash(" << column << ") < "
        << std::setprecision(std::numeric_limits<double>::max_digits10)
        << tau;
    auto r = conn_->Execute(sql.str());
    if (!r.ok()) return r.status();
  }
  auto ns = CountRows(tmp);
  if (!ns.ok()) return ns.status();
  info.sample_rows = static_cast<uint64_t>(ns.value());
  // Hashed samples record the realized ratio |Ts|/|T| (paper §3.1).
  info.ratio = n.value() == 0
                   ? 0.0
                   : static_cast<double>(ns.value()) /
                         static_cast<double>(n.value());

  // Pass 2: attach the probability column.
  {
    std::ostringstream sql;
    sql << "create table " << info.sample_table << " as select *, "
        << info.ratio << " as verdict_prob from " << tmp;
    auto r = conn_->Execute(sql.str());
    if (!r.ok()) return r.status();
  }
  VDB_RETURN_IF_ERROR(conn_->Execute("drop table " + tmp).status());
  VDB_RETURN_IF_ERROR(catalog_->Register(info));
  return info;
}

Result<SampleInfo> SampleBuilder::CreateStratifiedSample(
    const std::string& base, const std::vector<std::string>& columns,
    double tau) {
  if (columns.empty()) {
    return Status::InvalidArgument("stratified sample needs a column set");
  }
  auto n = CountRows(base);
  if (!n.ok()) return n.status();
  auto cols = BaseColumns(base);
  if (!cols.ok()) return cols.status();

  SampleInfo info;
  info.base_table = base;
  info.type = SampleType::kStratified;
  info.columns = columns;
  info.base_rows = static_cast<uint64_t>(n.value());
  info.sample_table = SampleName(base, SampleType::kStratified, columns);

  // Pass 1: per-stratum sizes.
  std::string sizes = info.sample_table + "_sizes";
  VDB_RETURN_IF_ERROR(
      conn_->Execute("drop table if exists " + sizes).status());
  {
    std::ostringstream sql;
    sql << "create table " << sizes << " as select "
        << JoinList(columns, ", ")
        << ", count(*) as strata_size from " << base << " group by "
        << JoinList(columns, ", ");
    auto r = conn_->Execute(sql.str());
    if (!r.ok()) return r.status();
  }
  auto d = CountRows(sizes);
  if (!d.ok()) return d.status();
  auto maxrs =
      conn_->Execute("select max(strata_size) as m from " + sizes);
  if (!maxrs.ok()) return maxrs.status();
  int64_t max_stratum = maxrs.value().Get(0, 0).AsInt();

  // Equation 1: per-stratum minimum m = |T| * tau / d.
  int64_t m = std::max<int64_t>(
      1, static_cast<int64_t>(
             static_cast<double>(n.value()) * tau /
             static_cast<double>(std::max<int64_t>(1, d.value()))));
  auto steps = BuildStaircase(max_stratum, m, options_.delta,
                              options_.staircase_growth);
  auto case_expr = StaircaseCaseExpr(steps, "strata_size");
  std::string case_sql = sql::PrintExpr(*case_expr);

  // Pass 2: Bernoulli-sample each stratum with the staircase probability.
  // The join key and rand() live in a derived table for dialect safety.
  std::string on_clause;
  for (size_t i = 0; i < columns.size(); ++i) {
    if (i) on_clause += " and ";
    on_clause += "__vdb_b." + columns[i] + " = __vdb_t." + columns[i];
  }
  {
    std::ostringstream sql;
    sql << "create table " << info.sample_table << " as select "
        << JoinList(cols.value(), ", ") << ", verdict_prob from (select "
        << JoinList(cols.value(), ", ", "__vdb_b.") << ", " << case_sql
        << " as verdict_prob, rand() as __vdb_rand from " << base
        << " as __vdb_b inner join " << sizes << " as __vdb_t on " << on_clause
        << ") as __vdb_j where __vdb_rand < verdict_prob";
    auto r = conn_->Execute(sql.str());
    if (!r.ok()) return r.status();
  }
  VDB_RETURN_IF_ERROR(conn_->Execute("drop table " + sizes).status());

  auto ns = CountRows(info.sample_table);
  if (!ns.ok()) return ns.status();
  info.sample_rows = static_cast<uint64_t>(ns.value());
  info.ratio = n.value() == 0
                   ? 0.0
                   : static_cast<double>(ns.value()) /
                         static_cast<double>(n.value());
  VDB_RETURN_IF_ERROR(catalog_->Register(info));
  return info;
}

Result<std::vector<SampleInfo>> SampleBuilder::CreateDefaultSamples(
    const std::string& base, double tau_override) {
  auto n = CountRows(base);
  if (!n.ok()) return n.status();
  if (n.value() == 0) {
    return Status::InvalidArgument("cannot sample an empty table");
  }
  double tau = tau_override > 0
                   ? tau_override
                   : std::min(1.0, static_cast<double>(
                                       options_.default_target_rows) /
                                       static_cast<double>(n.value()));
  auto cols = BaseColumns(base);
  if (!cols.ok()) return cols.status();

  std::vector<SampleInfo> created;
  auto uni = CreateUniformSample(base, tau);
  if (!uni.ok()) return uni.status();
  created.push_back(uni.value());

  // Column cardinalities (Appendix F), via SQL.
  struct ColCard {
    std::string name;
    int64_t card;
  };
  std::vector<ColCard> cards;
  for (const auto& c : cols.value()) {
    auto rs = conn_->Execute("select count(distinct " + c + ") as c from " +
                             base);
    if (!rs.ok()) return rs.status();
    cards.push_back(ColCard{c, rs.value().Get(0, 0).AsInt()});
  }
  const double threshold =
      options_.cardinality_threshold * static_cast<double>(n.value());

  // Hashed samples on the highest-cardinality columns above the threshold.
  std::sort(cards.begin(), cards.end(),
            [](const ColCard& a, const ColCard& b) { return a.card > b.card; });
  int made = 0;
  for (const auto& cc : cards) {
    if (made >= options_.max_column_samples) break;
    if (static_cast<double>(cc.card) <= threshold) break;
    auto s = CreateHashedSample(base, cc.name, tau);
    if (!s.ok()) return s.status();
    created.push_back(s.value());
    ++made;
  }
  // Stratified samples on the lowest-cardinality columns below the threshold.
  std::sort(cards.begin(), cards.end(),
            [](const ColCard& a, const ColCard& b) { return a.card < b.card; });
  made = 0;
  for (const auto& cc : cards) {
    if (made >= options_.max_column_samples) break;
    if (static_cast<double>(cc.card) >= threshold) break;
    auto s = CreateStratifiedSample(base, {cc.name}, tau);
    if (!s.ok()) return s.status();
    created.push_back(s.value());
    ++made;
  }
  return created;
}

Status SampleBuilder::AppendData(const std::string& base,
                                 const std::string& staging_table) {
  auto samples = catalog_->SamplesFor(base);
  if (!samples.ok()) return samples.status();
  auto cols = BaseColumns(base);
  if (!cols.ok()) return cols.status();

  // Append to the base table first.
  VDB_RETURN_IF_ERROR(
      conn_->Execute("insert into " + base + " select * from " +
                     staging_table)
          .status());
  auto n = CountRows(base);
  if (!n.ok()) return n.status();

  for (const auto& s : samples.value()) {
    std::ostringstream sql;
    switch (s.type) {
      case SampleType::kUniform:
        sql << "insert into " << s.sample_table << " select "
            << JoinList(cols.value(), ", ") << ", " << s.ratio
            << " as verdict_prob from (select *, rand() as __vdb_rand from "
            << staging_table << ") as __vdb_b where __vdb_rand < " << s.ratio;
        break;
      case SampleType::kHashed:
        // Universe membership is deterministic: the build's own cut-off,
        // not the realized ratio, so every key below it keeps all its rows.
        sql << "insert into " << s.sample_table << " select "
            << JoinList(cols.value(), ", ") << ", " << s.ratio
            << " as verdict_prob from " << staging_table
            << " where verdict_hash(" << s.columns[0] << ") < "
            << std::setprecision(std::numeric_limits<double>::max_digits10)
            << s.hash_cutoff;
        break;
      case SampleType::kStratified: {
        // Reuse the stored per-stratum probabilities (Appendix D); strata
        // unseen so far keep every tuple (probability 1).
        std::string on_clause;
        for (size_t i = 0; i < s.columns.size(); ++i) {
          if (i) on_clause += " and ";
          on_clause +=
              "__vdb_b." + s.columns[i] + " = __vdb_p." + s.columns[i];
        }
        sql << "insert into " << s.sample_table << " select "
            << JoinList(cols.value(), ", ")
            << ", verdict_prob from (select "
            << JoinList(cols.value(), ", ", "__vdb_b.")
            << ", coalesce(__vdb_p.verdict_prob, 1.0) as verdict_prob,"
            << " rand() as __vdb_rand from " << staging_table
            << " as __vdb_b left join (select " << JoinList(s.columns, ", ")
            << ", max(verdict_prob) as verdict_prob from " << s.sample_table
            << " group by " << JoinList(s.columns, ", ") << ") as __vdb_p on "
            << on_clause
            << ") as __vdb_j where __vdb_rand < verdict_prob";
        break;
      }
      case SampleType::kIrregular:
        continue;  // never materialized
    }
    auto r = conn_->Execute(sql.str());
    if (!r.ok()) return r.status();
    auto ns = CountRows(s.sample_table);
    if (!ns.ok()) return ns.status();
    VDB_RETURN_IF_ERROR(catalog_->UpdateCounts(
        s.sample_table, static_cast<uint64_t>(ns.value()),
        static_cast<uint64_t>(n.value())));
  }
  return Status::Ok();
}

}  // namespace vdb::sampling
