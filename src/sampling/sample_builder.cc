#include "sampling/sample_builder.h"

#include <algorithm>
#include <sstream>

#include "sampling/staircase.h"
#include "sql/parser.h"
#include "sql/printer.h"

namespace vdb::sampling {

namespace {

/// Failure probability delta of the per-stratum minimum-count guarantee
/// (Lemma 1); paper default 0.001.
constexpr double kStratumDelta = 0.001;
/// Geometric growth factor between staircase steps.
constexpr double kStaircaseGrowth = 1.2;
/// Appendix F: target sample size in rows; tau = target rows / |T|.
constexpr int64_t kDefaultTargetRows = 10'000'000;
/// Appendix F: at most this many hashed and this many stratified samples
/// per table.
constexpr int kMaxColumnSamples = 10;
/// Appendix F: column cardinality threshold as a fraction of |T|.
constexpr double kCardinalityThreshold = 0.01;

std::string JoinList(const std::vector<std::string>& items,
                     const std::string& sep, const std::string& prefix = "") {
  std::string out;
  for (size_t i = 0; i < items.size(); ++i) {
    if (i) out += sep;
    out += prefix + items[i];
  }
  return out;
}

/// The membership predicate of each sample type, written once: the build
/// selects by it from the base table, AppendData from the staging table. A
/// stratified source carries each row's verdict_prob (the staircase
/// probability when building, the stored one when appending).
std::string MembershipPredicate(const SampleInfo& s) {
  switch (s.type) {
    case SampleType::kUniform:
      return "rand() < " + sql::PrintDouble(s.ratio);
    case SampleType::kHashed:
      // The build's own cut-off, not the realized ratio, so every key
      // below it keeps all its rows however the table grows.
      return "verdict_hash(" + s.columns[0] +
             ") < " + sql::PrintDouble(s.hash_cutoff);
    case SampleType::kStratified:
      return "rand() < verdict_prob";
  }
  return "false";
}

/// The rows of `source` that a sample like `s` keeps, with their inclusion
/// probability: select <cols>, <p> as verdict_prob from <source> where
/// <membership predicate>.
std::string SelectMembers(const SampleInfo& s,
                          const std::vector<std::string>& cols,
                          const std::string& source) {
  const std::string prob = s.type == SampleType::kStratified
                               ? "verdict_prob"
                               : sql::PrintDouble(s.ratio);
  return "select " + JoinList(cols, ", ") + ", " + prob +
         " as verdict_prob from " + source + " where " +
         MembershipPredicate(s);
}

/// The equi-join condition of `left` and `right` on `columns`.
std::string OnColumns(const std::vector<std::string>& columns,
                      const std::string& left, const std::string& right) {
  std::string on;
  for (size_t i = 0; i < columns.size(); ++i) {
    if (i) on += " and ";
    on += left + "." + columns[i] + " = " + right + "." + columns[i];
  }
  return on;
}

}  // namespace

Status SampleBuilder::ExecuteThroughDialect(const std::string& sql) {
  auto stmt = sql::ParseStatement(sql);
  if (!stmt.ok()) return stmt.status();
  return conn_->ExecuteAst(*stmt.value()).status();
}

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

  // One statement with one rand() call site: it draws one query seed, and
  // the draws are row-addressed, so the sample is the same at every thread
  // count and under every dialect's hoist.
  VDB_RETURN_IF_ERROR(ExecuteThroughDialect(
      "create table " + info.sample_table + " as " +
      SelectMembers(info, cols.value(), base)));
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

  SampleInfo info;
  info.base_table = base;
  info.type = SampleType::kHashed;
  info.columns = {column};
  info.hash_cutoff = tau;
  info.base_rows = static_cast<uint64_t>(n.value());
  info.sample_table = SampleName(base, SampleType::kHashed, {column});

  // Pass 1: select the universe (no randomness, so no query seed).
  std::string tmp = info.sample_table + "_tmp";
  VDB_RETURN_IF_ERROR(conn_->Execute("drop table if exists " + tmp).status());
  VDB_RETURN_IF_ERROR(ExecuteThroughDialect("create table " + tmp +
                                            " as select * from " + base +
                                            " where " +
                                            MembershipPredicate(info)));
  auto ns = CountRows(tmp);
  if (!ns.ok()) return ns.status();
  info.sample_rows = static_cast<uint64_t>(ns.value());
  // Hashed samples record the realized ratio |Ts|/|T| (paper §3.1).
  info.ratio = n.value() == 0
                   ? 0.0
                   : static_cast<double>(ns.value()) /
                         static_cast<double>(n.value());

  // Pass 2: attach the probability column.
  VDB_RETURN_IF_ERROR(conn_->Execute("create table " + info.sample_table +
                                     " as select *, " +
                                     sql::PrintDouble(info.ratio) +
                                     " as verdict_prob from " + tmp)
                          .status());
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
  auto steps = BuildStaircase(max_stratum, m, kStratumDelta, kStaircaseGrowth);
  const std::string staircase = StaircaseCaseSql(steps, "strata_size");

  // Pass 2: Bernoulli-sample each stratum with the staircase probability.
  VDB_RETURN_IF_ERROR(ExecuteThroughDialect(
      "create table " + info.sample_table + " as " +
      SelectMembers(info, cols.value(),
                    "(select " + JoinList(cols.value(), ", ", "__vdb_b.") +
                        ", " + staircase +
                        " as verdict_prob from " + base +
                        " as __vdb_b inner join " + sizes + " as __vdb_t on " +
                        OnColumns(columns, "__vdb_b", "__vdb_t") +
                        ") as __vdb_j")));
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
                                       kDefaultTargetRows) /
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
      kCardinalityThreshold * static_cast<double>(n.value());

  // Hashed samples on the highest-cardinality columns above the threshold.
  std::sort(cards.begin(), cards.end(),
            [](const ColCard& a, const ColCard& b) { return a.card > b.card; });
  int made = 0;
  for (const auto& cc : cards) {
    if (made >= kMaxColumnSamples) break;
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
    if (made >= kMaxColumnSamples) break;
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

  std::vector<SampleCatalog::SampleCount> counts;
  for (const auto& s : samples.value()) {
    // Uniform and hashed samples select from the staging table by their
    // build's predicate. Stratified samples reuse the stored per-stratum
    // probabilities (Appendix D); strata unseen so far keep every tuple.
    std::string source = staging_table;
    if (s.type == SampleType::kStratified) {
      source = "(select " + JoinList(cols.value(), ", ", "__vdb_b.") +
               ", coalesce(__vdb_p.verdict_prob, 1.0) as verdict_prob from " +
               staging_table + " as __vdb_b left join (select " +
               JoinList(s.columns, ", ") +
               ", max(verdict_prob) as verdict_prob from " + s.sample_table +
               " group by " + JoinList(s.columns, ", ") + ") as __vdb_p on " +
               OnColumns(s.columns, "__vdb_b", "__vdb_p") + ") as __vdb_j";
    }
    VDB_RETURN_IF_ERROR(ExecuteThroughDialect(
        "insert into " + s.sample_table + " " +
        SelectMembers(s, cols.value(), source)));
    auto ns = CountRows(s.sample_table);
    if (!ns.ok()) return ns.status();
    counts.push_back({s.sample_table, static_cast<uint64_t>(ns.value()),
                      static_cast<uint64_t>(n.value())});
  }
  return catalog_->UpdateCounts(counts);
}

}  // namespace vdb::sampling
