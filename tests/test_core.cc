// End-to-end VerdictDB middleware tests: classification, flattening,
// planning, rewriting, answer accuracy, HAC, nested queries, joins of
// samples, and count-distinct.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <utility>

#include "common/fault_injection.h"
#include "common/random.h"
#include "core/flattener.h"
#include "core/query_classifier.h"
#include "core/rewriter.h"
#include "core/sample_planner.h"
#include "core/verdict_context.h"
#include "engine/aggregates.h"
#include "sql/parser.h"
#include "sql/printer.h"
#include "workload/queries.h"
#include "workload/synthetic.h"
#include "workload/tpch.h"

namespace vdb::core {
namespace {

// ---------------------------------------------------------------------------
// Classifier
// ---------------------------------------------------------------------------

QueryClass Classify(const std::string& sql) {
  auto sel = sql::ParseSelect(sql);
  EXPECT_TRUE(sel.ok()) << sql;
  return ClassifyQuery(*sel.value());
}

TEST(ClassifierTest, SupportsAggregates) {
  auto qc = Classify("select city, count(*), sum(x) from t group by city");
  EXPECT_TRUE(qc.supported);
  EXPECT_TRUE(qc.has_mean_like);
  EXPECT_FALSE(qc.has_extreme);
}

TEST(ClassifierTest, RejectsSelectStar) {
  EXPECT_FALSE(Classify("select * from t").supported);
}

TEST(ClassifierTest, RejectsExists) {
  EXPECT_FALSE(
      Classify("select count(*) from t where exists (select 1 from s)")
          .supported);
}

TEST(ClassifierTest, RejectsPureExtreme) {
  auto qc = Classify("select min(x), max(x) from t");
  EXPECT_FALSE(qc.supported);
  EXPECT_TRUE(qc.has_extreme);
}

TEST(ClassifierTest, DetectsCountDistinct) {
  auto qc = Classify("select count(distinct user_id) from t");
  EXPECT_TRUE(qc.supported);
  EXPECT_TRUE(qc.has_count_distinct);
  EXPECT_EQ(qc.count_distinct_column, "user_id");
}

TEST(ClassifierTest, DetectsNestedAggregate) {
  auto qc = Classify(
      "select avg(s) from (select city, sum(price) as s from orders "
      "group by city) as t");
  EXPECT_TRUE(qc.supported);
  EXPECT_TRUE(qc.nested_aggregate);
}

TEST(ClassifierTest, ExtractsJoinEdges) {
  auto qc = Classify(
      "select count(*) from a inner join b on a.k = b.k "
      "inner join c on b.j = c.j");
  ASSERT_EQ(qc.relations.size(), 3u);
  ASSERT_EQ(qc.join_edges.size(), 2u);
  EXPECT_EQ(qc.join_edges[0].left_alias, "a");
  EXPECT_EQ(qc.join_edges[0].right_column, "k");
}

// ---------------------------------------------------------------------------
// Flattener
// ---------------------------------------------------------------------------

TEST(FlattenerTest, FlattensCorrelatedComparison) {
  auto sel = sql::ParseSelect(
      "select sum(l_extendedprice) as s from lineitem "
      "inner join part on p_partkey = l_partkey "
      "where l_quantity < (select avg(l_quantity) from lineitem "
      "where l_partkey = part.p_partkey)");
  ASSERT_TRUE(sel.ok());
  auto n = FlattenComparisonSubqueries(sel.value().get());
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 1);
  std::string text = sql::PrintSelect(*sel.value());
  EXPECT_NE(text.find("group by"), std::string::npos);
  EXPECT_NE(text.find("__vdb_f0"), std::string::npos);
  EXPECT_EQ(text.find("(select avg"), std::string::npos);
}

TEST(FlattenerTest, LeavesUncorrelatedAlone) {
  auto sel = sql::ParseSelect(
      "select count(*) as c from t where x > (select avg(x) from t)");
  ASSERT_TRUE(sel.ok());
  auto n = FlattenComparisonSubqueries(sel.value().get());
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 0);
}

// ---------------------------------------------------------------------------
// End-to-end approximation
// ---------------------------------------------------------------------------

class VerdictE2E : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(
        workload::GenerateSynthetic(&db_, "big", 200000, 99).ok());
    VerdictOptions opts;
    opts.min_rows_for_sampling = 10000;
    opts.io_budget = 0.05;
    ctx_ = std::make_unique<VerdictContext>(&db_,
                                            driver::EngineKind::kGeneric,
                                            opts);
    // 4% of 200K = ~8000 rows (~800 per g10 group): per-group estimates
    // carry ~3.5% relative stderr, so the 15% tolerances below sit at >4
    // sigma for any seed rather than relying on a lucky draw.
    auto s = ctx_->sample_builder().CreateUniformSample("big", 0.04);
    ASSERT_TRUE(s.ok()) << s.status().ToString();
    sample_rows_ = s.value().sample_rows;
  }

  double Exact(const std::string& sql, int col = 0) {
    auto rs = db_.Execute(sql);
    EXPECT_TRUE(rs.ok()) << rs.status().ToString();
    return rs.value().GetDouble(0, static_cast<size_t>(col));
  }

  engine::Database db_{7777};
  std::unique_ptr<VerdictContext> ctx_;
  uint64_t sample_rows_ = 0;
};

TEST_F(VerdictE2E, SampleSizeNearExpectation) {
  EXPECT_NEAR(static_cast<double>(sample_rows_), 8000.0, 600.0);
}

TEST_F(VerdictE2E, ApproximateCount) {
  VerdictContext::ExecInfo info;
  auto rs = ctx_->Execute("select count(*) as c from big", &info);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_TRUE(info.approximated) << info.skip_reason;
  double approx = rs.value().GetDouble(0, 0);
  EXPECT_NEAR(approx, 200000.0, 200000.0 * 0.05);
  // Error column present and sane.
  int err_col = rs.value().ColumnIndex("c_err");
  ASSERT_GE(err_col, 0);
  double err = rs.value().GetDouble(0, static_cast<size_t>(err_col));
  EXPECT_GT(err, 0.0);
  EXPECT_LT(err, 200000.0 * 0.10);
}

TEST_F(VerdictE2E, ApproximateSumAvgWithFilter) {
  VerdictContext::ExecInfo info;
  auto rs = ctx_->Execute(
      "select sum(value) as s, avg(value) as a from big where u < 0.5",
      &info);
  ASSERT_TRUE(rs.ok());
  EXPECT_TRUE(info.approximated) << info.skip_reason;
  double exact_sum =
      Exact("select sum(value) as s from big where u < 0.5");
  double exact_avg =
      Exact("select avg(value) as a from big where u < 0.5");
  EXPECT_NEAR(rs.value().GetDouble(0, 0), exact_sum,
              std::abs(exact_sum) * 0.10);
  EXPECT_NEAR(rs.value().GetDouble(0, 1), exact_avg,
              std::abs(exact_avg) * 0.10);
}

TEST_F(VerdictE2E, ApproximateGroupBy) {
  VerdictContext::ExecInfo info;
  auto rs = ctx_->Execute(
      "select g10, count(*) as c, sum(value) as s from big group by g10 "
      "order by g10",
      &info);
  ASSERT_TRUE(rs.ok());
  EXPECT_TRUE(info.approximated) << info.skip_reason;
  ASSERT_EQ(rs.value().NumRows(), 10u);
  auto exact = db_.Execute(
      "select g10, count(*) as c, sum(value) as s from big group by g10 "
      "order by g10");
  ASSERT_TRUE(exact.ok());
  for (size_t r = 0; r < 10; ++r) {
    double ec = exact.value().GetDouble(r, 1);
    double es = exact.value().GetDouble(r, 2);
    EXPECT_NEAR(rs.value().GetDouble(r, 1), ec, ec * 0.15) << "group " << r;
    EXPECT_NEAR(rs.value().GetDouble(r, 2), es, std::abs(es) * 0.15);
  }
}

TEST_F(VerdictE2E, ErrorEstimateCoversTruth) {
  // The reported 95% CI should cover the exact answer in the vast majority
  // of groups (this is a smoke check, not a calibration study).
  auto ans = ctx_->ExecuteApprox(
      "select g10, avg(value) as a from big group by g10 order by g10");
  ASSERT_TRUE(ans.ok());
  auto exact = db_.Execute(
      "select g10, avg(value) as a from big group by g10 order by g10");
  ASSERT_TRUE(exact.ok());
  int err_col = ans.value().result.ColumnIndex("a_err");
  ASSERT_GE(err_col, 0);
  int covered = 0;
  for (size_t r = 0; r < 10; ++r) {
    double point = ans.value().result.GetDouble(r, 1);
    double half =
        ans.value().result.GetDouble(r, static_cast<size_t>(err_col));
    double truth = exact.value().GetDouble(r, 1);
    if (truth >= point - 2 * half && truth <= point + 2 * half) ++covered;
  }
  EXPECT_GE(covered, 8);
}

TEST_F(VerdictE2E, PassthroughOnUnsupported) {
  VerdictContext::ExecInfo info;
  auto rs = ctx_->Execute("select min(value) as m from big", &info);
  ASSERT_TRUE(rs.ok());
  EXPECT_FALSE(info.approximated);
  EXPECT_FALSE(info.skip_reason.empty());
  EXPECT_DOUBLE_EQ(rs.value().GetDouble(0, 0),
                   Exact("select min(value) as m from big"));
}

TEST_F(VerdictE2E, DecomposesExtremePlusMeanLike) {
  VerdictContext::ExecInfo info;
  auto rs = ctx_->Execute(
      "select g10, max(value) as mx, avg(value) as a from big group by g10",
      &info);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_TRUE(info.approximated) << info.skip_reason;
  ASSERT_EQ(rs.value().NumRows(), 10u);
  // max column must be exact.
  auto exact = db_.Execute(
      "select g10, max(value) as mx from big group by g10");
  ASSERT_TRUE(exact.ok());
  std::map<int64_t, double> exact_mx;
  for (size_t r = 0; r < exact.value().NumRows(); ++r) {
    exact_mx[exact.value().Get(r, 0).AsInt()] =
        exact.value().GetDouble(r, 1);
  }
  for (size_t r = 0; r < rs.value().NumRows(); ++r) {
    int64_t g = rs.value().Get(r, 0).AsInt();
    EXPECT_DOUBLE_EQ(rs.value().GetDouble(r, 1), exact_mx[g]);
  }

  // The halves merge on typed keys: a double key, a NULL key and a
  // two-column key each find their exact max.
  ASSERT_TRUE(db_.Execute("create table keyed as select value, "
                          "to_double(g10) / 4.0 as dg, case when g10 = 3 "
                          "then NULL else g10 end as ng from big")
                  .ok());
  ASSERT_TRUE(ctx_->sample_builder().CreateUniformSample("keyed", 0.04).ok());
  for (const std::string keys : {"dg", "ng", "ng, dg"}) {
    const std::string sql = "select " + keys +
                            ", max(value) as mx, avg(value) as a from keyed "
                            "group by " + keys;
    auto approx = ctx_->Execute(sql, &info);
    ASSERT_TRUE(approx.ok()) << sql << ": " << approx.status().ToString();
    EXPECT_TRUE(info.approximated) << sql << ": " << info.skip_reason;
    ASSERT_EQ(approx.value().NumRows(), 10u) << sql;
    const size_t nkeys = keys == "ng, dg" ? 2 : 1;
    auto exact_rs = db_.Execute("select " + keys + ", max(value) as mx "
                                "from keyed group by " + keys);
    ASSERT_TRUE(exact_rs.ok());
    size_t matched = 0, null_keys = 0;
    for (size_t r = 0; r < approx.value().NumRows(); ++r) {
      const Value mx = approx.value().Get(r, nkeys);
      ASSERT_FALSE(mx.is_null()) << sql << " row " << r;
      null_keys += approx.value().Get(r, 0).is_null() ? 1u : 0u;
      for (size_t e = 0; e < exact_rs.value().NumRows(); ++e) {
        bool same = true;
        for (size_t k = 0; k < nkeys; ++k) {
          same = same && engine::ValueGroupKey(approx.value().Get(r, k)) ==
                             engine::ValueGroupKey(exact_rs.value().Get(e, k));
        }
        if (!same) continue;
        EXPECT_EQ(mx.AsDouble(), exact_rs.value().GetDouble(e, nkeys)) << sql;
        ++matched;
      }
    }
    EXPECT_EQ(matched, 10u) << sql;
    EXPECT_EQ(null_keys, keys == "dg" ? 0u : 1u) << sql;
  }
}

TEST_F(VerdictE2E, HacFallsBackToExact) {
  ctx_->options().min_accuracy = 0.9999;  // impossible at 2% sampling
  VerdictContext::ExecInfo info;
  auto rs = ctx_->Execute("select avg(value) as a from big", &info);
  ASSERT_TRUE(rs.ok());
  EXPECT_TRUE(info.exact_rerun);
  EXPECT_DOUBLE_EQ(rs.value().GetDouble(0, 0),
                   Exact("select avg(value) as a from big"));
  ctx_->options().min_accuracy = 0.0;
}

TEST_F(VerdictE2E, WithoutErrorColumnsResultsKeepTheUserColumns) {
  // §2.4: legacy applications read approximate results unchanged.
  ctx_->options().include_error_columns = false;
  for (const auto& [sql, names] :
       std::vector<std::pair<std::string, std::vector<std::string>>>{
           {"select g10, count(*) as c, avg(value) as a from big group by g10",
            {"g10", "c", "a"}},
           {"select g10, max(value) as mx, avg(value) as a from big"
            " group by g10",
            {"g10", "mx", "a"}}}) {
    SCOPED_TRACE(sql);
    VerdictContext::ExecInfo info;
    auto answer = ctx_->ExecuteApprox(sql, &info);
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    EXPECT_TRUE(info.approximated) << info.skip_reason;
    EXPECT_EQ(answer.value().result.names, names);
    EXPECT_EQ(answer.value().result.NumRows(), 10u);
    // The error is still measured, only not returned as a column.
    EXPECT_GT(answer.value().max_relative_error, 0.0);
    EXPECT_GT(info.max_relative_error, 0.0);
  }

  // The accuracy contract still reads the stripped errors.
  ctx_->options().min_accuracy = 0.9999;
  VerdictContext::ExecInfo info;
  auto rs = ctx_->Execute("select avg(value) as a from big", &info);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_TRUE(info.exact_rerun);
  EXPECT_EQ(rs.value().names, std::vector<std::string>{"a"});
  EXPECT_DOUBLE_EQ(rs.value().GetDouble(0, 0),
                   Exact("select avg(value) as a from big"));
}

TEST_F(VerdictE2E, HacTreatsUnmeasurableGroupsConservatively) {
  // A group whose sample contains exactly ONE tuple lands in exactly one
  // subsample, so its stderr is NULL (stddev over one estimate) and its
  // relative error cannot be measured. The contract must count such groups
  // and fail conservatively instead of passing vacuously on the measured
  // subset.
  engine::Database db(4321);
  auto t = std::make_shared<engine::Table>();
  t->AddColumn("g", TypeId::kInt64);
  t->AddColumn("v", TypeId::kDouble);
  for (int i = 0; i < 5000; ++i) {
    t->AppendRow({Value::Int(1), Value::Double(10.0 + (i % 7))});
  }
  t->AppendRow({Value::Int(2), Value::Double(42.0)});  // the singleton group
  ASSERT_TRUE(db.RegisterTable("skew", t).ok());
  VerdictOptions opts;
  opts.min_rows_for_sampling = 1000;
  opts.io_budget = 1.0;
  VerdictContext vctx(&db, driver::EngineKind::kGeneric, opts);
  // tau = 1.0: every row (including the singleton) enters the sample, so
  // the vacuous-stderr row is guaranteed, not seed-dependent.
  ASSERT_TRUE(vctx.sample_builder().CreateUniformSample("skew", 1.0).ok());

  const std::string sql =
      "select g, sum(v) as s from skew group by g order by g";
  auto ans = vctx.ExecuteApprox(sql);
  ASSERT_TRUE(ans.ok());
  EXPECT_GT(ans.value().unmeasured_rows, 0);
  int64_t no_spread = 0;
  for (const auto& agg : ans.value().aggregates) {
    no_spread += agg.no_spread_rows;
  }
  EXPECT_GT(no_spread, 0);

  // With a (loose) contract enabled, the unverifiable group must force the
  // exact fallback even though every measured group is well within bounds.
  vctx.options().min_accuracy = 0.5;
  VerdictContext::ExecInfo info;
  auto rs = vctx.Execute(sql, &info);
  ASSERT_TRUE(rs.ok());
  EXPECT_TRUE(info.exact_rerun);
  auto exact = db.Execute(sql);
  ASSERT_TRUE(exact.ok());
  ASSERT_EQ(rs.value().NumRows(), exact.value().NumRows());
  for (size_t r = 0; r < rs.value().NumRows(); ++r) {
    EXPECT_DOUBLE_EQ(rs.value().GetDouble(r, 1), exact.value().GetDouble(r, 1));
  }
}

TEST_F(VerdictE2E, HighCardinalityGroupingIsRejected) {
  VerdictContext::ExecInfo info;
  auto rs = ctx_->Execute(
      "select id, sum(value) as s from big group by id limit 5", &info);
  ASSERT_TRUE(rs.ok());
  EXPECT_FALSE(info.approximated);
}

TEST_F(VerdictE2E, UpperCaseColumnNamesAreApproximated) {
  // The rewriter wraps the sample in a `select *, ... as __vdb_sid` derived
  // table whose outputs are pruned to the outer query's references. Names
  // compare case-folded, so an upper-case spelling keeps its column and the
  // statement is approximated, not passed through.
  VerdictContext::ExecInfo info;
  auto rs = ctx_->Execute("select sum(VALUE) as s from big", &info);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_TRUE(info.approximated) << info.skip_reason;
  const double exact = Exact("select sum(value) as s from big");
  EXPECT_NEAR(rs.value().GetDouble(0, 0), exact, std::abs(exact) * 0.10);

  VerdictContext::ExecInfo ginfo;
  auto grouped = ctx_->Execute(
      "select G10, count(*) as c from big group by G10 order by G10", &ginfo);
  ASSERT_TRUE(grouped.ok()) << grouped.status().ToString();
  EXPECT_TRUE(ginfo.approximated) << ginfo.skip_reason;
  EXPECT_EQ(grouped.value().NumRows(), 10u);
}

// The group-cardinality probe only ever rejects plans, so a query with no
// sampled plan skips it.
bool LogHasProbe(const std::vector<std::string>& log) {
  for (const auto& s : log) {
    if (s.rfind("select count(distinct ", 0) == 0) return true;
  }
  return false;
}

TEST_F(VerdictE2E, InfeasibleQuerySendsNoProbe) {
  // Below the sampling threshold and without samples: no sampled plan, with
  // or without a hint. The probe would have counted its groups directly.
  auto tiny = std::make_shared<engine::Table>();
  tiny->AddColumn("g", TypeId::kInt64);
  for (int i = 0; i < 500; ++i) tiny->AppendRow({Value::Int(i % 7)});
  ASSERT_TRUE(db_.RegisterTable("tiny", tiny).ok());
  VerdictContext::ExecInfo info;
  auto rs = ctx_->Execute("select g, count(*) as c from tiny group by g",
                          &info);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_FALSE(info.approximated);
  EXPECT_EQ(rs.value().NumRows(), 7u);
  EXPECT_FALSE(LogHasProbe(ctx_->connection().statement_log()));
}

TEST_F(VerdictE2E, FeasibleQueryPlansWithTheProbedHint) {
  const std::string sql =
      "select g10, count(*) as c from big group by g10 order by g10";
  VerdictContext::ExecInfo info;
  ASSERT_TRUE(ctx_->Execute(sql, &info).ok());
  ASSERT_TRUE(info.approximated) << info.skip_reason;
  const std::vector<std::string> log = ctx_->connection().statement_log();
  ASSERT_TRUE(LogHasProbe(log));

  // The plan a single hinted Plan call makes, with the probe's own answer.
  int64_t hint = 0;
  for (const auto& s : log) {
    if (s.rfind("select count(distinct ", 0) != 0) continue;
    auto rs = db_.Execute(s);
    ASSERT_TRUE(rs.ok());
    hint = rs.value().Get(0, 0).AsInt();
  }
  EXPECT_EQ(hint, 10);
  auto sel = sql::ParseSelect(sql);
  ASSERT_TRUE(sel.ok());
  QueryClass qc = ClassifyQuery(*sel.value());
  auto samples = ctx_->sample_catalog().SamplesFor("");
  ASSERT_TRUE(samples.ok());
  SamplePlanner planner(ctx_->options(), samples.value());
  auto plan = planner.Plan(qc, {{"big", 200000}}, hint);
  ASSERT_TRUE(plan.ok());
  AqpRewriter rewriter(ctx_->options());
  auto rewritten = rewriter.RewriteFlat(*sel.value(), qc, plan.value());
  ASSERT_TRUE(rewritten.ok());
  sql::Statement stmt;
  stmt.kind = sql::StatementKind::kSelect;
  stmt.select = std::move(rewritten.value().rewritten);
  EXPECT_EQ(sql::PrintStatement(stmt,
                                ctx_->connection().dialect().print_options),
            info.rewritten_sql);
}

TEST_F(VerdictE2E, RewrittenSqlIsExposed) {
  VerdictContext::ExecInfo info;
  auto rs = ctx_->Execute("select count(*) as c from big", &info);
  ASSERT_TRUE(rs.ok());
  EXPECT_NE(info.rewritten_sql.find("__vdb_sid"), std::string::npos);
  EXPECT_NE(info.rewritten_sql.find("big_vdb_uniform"), std::string::npos);
  EXPECT_GT(info.subsamples, 1);
}

// ---------------------------------------------------------------------------
// Metadata memo: the catalog read and the group-cardinality probe are
// answered from Connection::ExecuteCached until a table changes.
// ---------------------------------------------------------------------------

constexpr char kGroupedQuery[] =
    "select g10, count(*) as c, avg(value) as a from big group by g10"
    " order by g10";

/// Rows the engine scanned answering `sql` through the memo: 0 on a hit.
uint64_t ScannedThroughMemo(VerdictContext* ctx, engine::Database* db,
                            const std::string& sql) {
  const uint64_t before = db->rows_scanned();
  auto rs = ctx->connection().ExecuteCached(sql);
  EXPECT_TRUE(rs.ok()) << sql << ": " << rs.status().ToString();
  return db->rows_scanned() - before;
}

/// Same names, and every cell equal to the bit (NULLs in the same places).
void ExpectBitIdentical(const engine::ResultSet& a,
                        const engine::ResultSet& b) {
  ASSERT_EQ(a.names, b.names);
  ASSERT_EQ(a.NumRows(), b.NumRows());
  for (size_t r = 0; r < a.NumRows(); ++r) {
    for (size_t c = 0; c < a.NumCols(); ++c) {
      const Value x = a.Get(r, c), y = b.Get(r, c);
      ASSERT_EQ(x.is_null(), y.is_null()) << "row " << r << " col " << c;
      if (x.is_null()) continue;
      if (x.is_numeric()) {
        const double dx = x.AsDouble(), dy = y.AsDouble();
        EXPECT_EQ(std::memcmp(&dx, &dy, sizeof dx), 0)
            << "row " << r << " col " << c << ": " << dx << " vs " << dy;
      } else {
        EXPECT_EQ(x.AsString(), y.AsString()) << "row " << r << " col " << c;
      }
    }
  }
}

TEST_F(VerdictE2E, MemoHitKeepsTheLogShape) {
  ASSERT_TRUE(ctx_->Execute(kGroupedQuery).ok());
  const std::vector<std::string> cold = ctx_->connection().statement_log();
  const uint64_t before = db_.rows_scanned();
  VerdictContext::ExecInfo info;
  ASSERT_TRUE(ctx_->Execute(kGroupedQuery, &info).ok());
  ASSERT_TRUE(info.approximated) << info.skip_reason;
  // Each statement starts a fresh log: catalog read first, the probe, the
  // rewritten query last, on a hit as on a miss.
  const std::vector<std::string> warm = ctx_->connection().statement_log();
  EXPECT_EQ(warm, cold);
  ASSERT_EQ(warm.size(), 3u);
  EXPECT_EQ(warm[0], "select * from verdictdb_metadata");
  EXPECT_TRUE(LogHasProbe({warm[1]})) << warm[1];
  EXPECT_EQ(warm[2], info.rewritten_sql);
  // Only the rewritten query read rows: the other two were memo hits.
  EXPECT_EQ(db_.rows_scanned() - before, sample_rows_);
}

TEST(MetadataMemo, WarmAndColdAnswersAreBitIdentical) {
  // Two identical databases. One answers cold; the other first warms its
  // memo with the same rand-free reads, which draw no query seed, so its
  // rewritten query draws the same sids.
  auto make = [](engine::Database* db) {
    EXPECT_TRUE(workload::GenerateSynthetic(db, "big", 50000, 99).ok());
    VerdictOptions opts;
    opts.min_rows_for_sampling = 10000;
    opts.io_budget = 0.2;
    auto ctx = std::make_unique<VerdictContext>(
        db, driver::EngineKind::kGeneric, opts);
    EXPECT_TRUE(ctx->sample_builder().CreateUniformSample("big", 0.1).ok());
    return ctx;
  };
  engine::Database cold_db(31), warm_db(31);
  auto cold = make(&cold_db);
  auto warm = make(&warm_db);

  VerdictContext::ExecInfo cold_info;
  auto cold_answer = cold->Execute(kGroupedQuery, &cold_info);
  ASSERT_TRUE(cold_answer.ok()) << cold_answer.status().ToString();
  ASSERT_TRUE(cold_info.approximated) << cold_info.skip_reason;
  const std::vector<std::string> cold_log = cold->connection().statement_log();
  ASSERT_GE(cold_log.size(), 3u);

  for (size_t i = 0; i + 1 < cold_log.size(); ++i) {
    ASSERT_TRUE(warm->connection().ExecuteCached(cold_log[i]).ok());
  }
  const uint64_t before = warm_db.rows_scanned();
  VerdictContext::ExecInfo warm_info;
  auto warm_answer = warm->Execute(kGroupedQuery, &warm_info);
  ASSERT_TRUE(warm_answer.ok()) << warm_answer.status().ToString();
  EXPECT_EQ(warm->connection().statement_log(), cold_log);
  EXPECT_EQ(warm_info.rewritten_sql, cold_info.rewritten_sql);
  auto sample = warm_db.catalog().GetTable("big_vdb_uniform");
  ASSERT_NE(sample, nullptr);
  EXPECT_EQ(warm_db.rows_scanned() - before, sample->num_rows());  // all hits
  ExpectBitIdentical(warm_answer.value(), cold_answer.value());
}

TEST_F(VerdictE2E, EveryWriteInvalidatesTheMemo) {
  ASSERT_TRUE(
      db_.Execute("create table staging as select * from big where id < 100")
          .ok());
  auto small_table = [] {
    auto t = std::make_shared<engine::Table>();
    t->AddColumn("x", TypeId::kInt64);
    t->AppendRow({Value::Int(1)});
    return t;
  };
  VerdictContext other(&db_, driver::EngineKind::kGeneric, ctx_->options());
  const std::vector<std::pair<std::string, std::function<Status()>>> writes = {
      {"sample create",
       [&] {
         return ctx_->sample_builder()
             .CreateHashedSample("big", "g100", 0.5)
             .status();
       }},
      {"Unregister",
       [&] {
         return ctx_->sample_catalog().Unregister("big_vdb_hashed_g100");
       }},
      {"AppendData",
       [&] { return ctx_->sample_builder().AppendData("big", "staging"); }},
      {"INSERT through the context",
       [&] {
         return ctx_->Execute("insert into staging select * from staging")
             .status();
       }},
      {"CTAS through the context",
       [&] {
         return ctx_->Execute("create table side as select id from staging")
             .status();
       }},
      {"DROP through the context",
       [&] { return ctx_->Execute("drop table side").status(); }},
      {"db.RegisterTable",
       [&] { return db_.RegisterTable("side", small_table()); }},
      {"db.Execute", [&] { return db_.Execute("drop table side").status(); }},
      {"AppendData by a second context",
       [&] { return other.sample_builder().AppendData("big", "staging"); }},
  };
  for (const auto& [what, write] : writes) {
    SCOPED_TRACE(what);
    ASSERT_TRUE(ctx_->Execute(kGroupedQuery).ok());
    const std::vector<std::string> log = ctx_->connection().statement_log();
    ASSERT_GE(log.size(), 3u);
    for (size_t i = 0; i + 1 < log.size(); ++i) {
      EXPECT_EQ(ScannedThroughMemo(ctx_.get(), &db_, log[i]), 0u) << log[i];
    }
    const Status st = write();
    ASSERT_TRUE(st.ok()) << st.ToString();
    for (size_t i = 0; i + 1 < log.size(); ++i) {
      EXPECT_GT(ScannedThroughMemo(ctx_.get(), &db_, log[i]), 0u) << log[i];
    }
  }
}

TEST_F(VerdictE2E, CatalogReadSeesEverySampleChange) {
  auto samples = [&] {
    auto s = ctx_->sample_catalog().SamplesFor("");
    EXPECT_TRUE(s.ok()) << s.status().ToString();
    return s.ok() ? s.value() : std::vector<sampling::SampleInfo>{};
  };
  ASSERT_EQ(samples().size(), 1u);
  ASSERT_TRUE(
      ctx_->sample_builder().CreateHashedSample("big", "g100", 0.5).ok());
  EXPECT_EQ(samples().size(), 2u);
  ASSERT_TRUE(ctx_->sample_catalog().Unregister("big_vdb_hashed_g100").ok());
  EXPECT_EQ(samples().size(), 1u);
  // An append made through a second context on the same database shows in
  // the first context's catalog read.
  ASSERT_TRUE(ctx_->Execute(kGroupedQuery).ok());
  ASSERT_TRUE(
      db_.Execute("create table staging as select * from big where g10 = 3")
          .ok());
  const uint64_t added = db_.catalog().GetTable("staging")->num_rows();
  ASSERT_GT(added, 0u);
  VerdictContext other(&db_, driver::EngineKind::kGeneric, ctx_->options());
  ASSERT_TRUE(other.sample_builder().AppendData("big", "staging").ok());
  const auto after = samples();
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(after[0].base_rows, 200000u + added);
  EXPECT_EQ(after[0].sample_rows,
            db_.catalog().GetTable("big_vdb_uniform")->num_rows());
}

TEST_F(VerdictE2E, FailedProbeIsNotMemoized) {
  ASSERT_TRUE(ctx_->Execute(kGroupedQuery).ok());
  const std::string probe = ctx_->connection().statement_log()[1];
  ASSERT_TRUE(LogHasProbe({probe})) << probe;
  // The governed sites the probe consults.
  SetFaultObservationForTest(true);
  ASSERT_TRUE(db_.Execute(probe).ok());
  const std::vector<std::string> sites = ObservedFaultSites();
  SetFaultObservationForTest(false);
  DisarmAllFaultPoints();
  ASSERT_FALSE(sites.empty());

  // A write empties the memo; the probe's re-run then fails.
  auto t = std::make_shared<engine::Table>();
  t->AddColumn("x", TypeId::kInt64);
  ASSERT_TRUE(db_.RegisterTable("unrelated", t).ok());
  ArmFaultPointNth(sites.front(), 1, StatusCode::kResourceExhausted);
  auto failed = ctx_->connection().ExecuteCached(probe);
  DisarmAllFaultPoints();
  EXPECT_FALSE(failed.ok());
  // The failure was not memoized: the next read runs, and the one after it
  // hits.
  EXPECT_GT(ScannedThroughMemo(ctx_.get(), &db_, probe), 0u);
  EXPECT_EQ(ScannedThroughMemo(ctx_.get(), &db_, probe), 0u);
}

TEST_F(VerdictE2E, RandStatementsAreNotMemoized) {
  const std::string rand_free = "select count(*) as c from big";
  EXPECT_GT(ScannedThroughMemo(ctx_.get(), &db_, rand_free), 0u);
  EXPECT_EQ(ScannedThroughMemo(ctx_.get(), &db_, rand_free), 0u);
  const std::string draws = "select count(*) as c from big where rand() < 0.5";
  EXPECT_GT(ScannedThroughMemo(ctx_.get(), &db_, draws), 0u);
  EXPECT_GT(ScannedThroughMemo(ctx_.get(), &db_, draws), 0u);
}

// ---------------------------------------------------------------------------
// Joins of two samples (universe join) and count-distinct
// ---------------------------------------------------------------------------

class VerdictJoinE2E : public ::testing::Test {
 protected:
  void SetUp() override {
    // Fact and dimension-ish tables sharing a join key domain.
    auto fact = std::make_shared<engine::Table>();
    fact->AddColumn("k", TypeId::kInt64);
    fact->AddColumn("v", TypeId::kDouble);
    auto dim = std::make_shared<engine::Table>();
    dim->AddColumn("k", TypeId::kInt64);
    dim->AddColumn("w", TypeId::kDouble);
    Rng rng(5);
    const int64_t keys = 30000;
    for (int64_t i = 0; i < keys; ++i) {
      dim->AppendRow({Value::Int(i), Value::Double(rng.NextDouble())});
      int lines = static_cast<int>(1 + rng.NextBounded(4));
      for (int j = 0; j < lines; ++j) {
        fact->AppendRow(
            {Value::Int(i), Value::Double(5.0 + rng.NextDouble() * 10.0)});
      }
    }
    ASSERT_TRUE(db_.RegisterTable("fact", fact).ok());
    ASSERT_TRUE(db_.RegisterTable("dim", dim).ok());

    VerdictOptions opts;
    opts.min_rows_for_sampling = 10000;
    opts.io_budget = 0.20;
    ctx_ = std::make_unique<VerdictContext>(&db_,
                                            driver::EngineKind::kGeneric,
                                            opts);
    ASSERT_TRUE(
        ctx_->sample_builder().CreateHashedSample("fact", "k", 0.1).ok());
    ASSERT_TRUE(
        ctx_->sample_builder().CreateHashedSample("dim", "k", 0.1).ok());
  }

  engine::Database db_{1212};
  std::unique_ptr<VerdictContext> ctx_;
};

TEST_F(VerdictJoinE2E, UniverseJoinOfTwoSamples) {
  VerdictContext::ExecInfo info;
  auto rs = ctx_->Execute(
      "select sum(f.v * d.w) as s from fact f inner join dim d on f.k = d.k",
      &info);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_TRUE(info.approximated) << info.skip_reason;
  auto exact = db_.Execute(
      "select sum(f.v * d.w) as s from fact f inner join dim d on f.k = d.k");
  ASSERT_TRUE(exact.ok());
  double truth = exact.value().GetDouble(0, 0);
  EXPECT_NEAR(rs.value().GetDouble(0, 0), truth, std::abs(truth) * 0.15);
  // Both relations must be substituted with samples.
  EXPECT_NE(info.rewritten_sql.find("fact_vdb_hashed_k"), std::string::npos);
  EXPECT_NE(info.rewritten_sql.find("dim_vdb_hashed_k"), std::string::npos);
}

TEST_F(VerdictJoinE2E, CountDistinctOnHashedSample) {
  VerdictContext::ExecInfo info;
  auto rs = ctx_->Execute(
      "select count(distinct k) as d from fact", &info);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_TRUE(info.approximated) << info.skip_reason;
  EXPECT_NEAR(rs.value().GetDouble(0, 0), 30000.0, 30000.0 * 0.10);
}

TEST_F(VerdictJoinE2E, HashBlockSidsStayWithinB) {
  // Both samples keep fewer rows than their 0.1 cut-off; sids scaled by
  // the realized ratio instead of the cut-off would run past b.
  auto samples = ctx_->sample_catalog().SamplesFor("");
  ASSERT_TRUE(samples.ok());
  for (const auto& s : samples.value()) {
    ASSERT_LT(s.ratio, s.hash_cutoff) << s.sample_table;
  }
  for (const char* query :
       {"select count(distinct k) as d from fact",
        "select sum(f.v * d.w) as s from fact f inner join dim d"
        " on f.k = d.k"}) {
    SCOPED_TRACE(query);
    VerdictContext::ExecInfo info;
    ASSERT_TRUE(ctx_->Execute(query, &info).ok());
    ASSERT_TRUE(info.approximated) << info.skip_reason;
    ASSERT_EQ(info.rewritten_sql.find("rand()"), std::string::npos)
        << "expected hash-block sids: " << info.rewritten_sql;
    // The per-subsample query's sid item, evaluated over its own FROM.
    auto rewritten = sql::ParseSelect(info.rewritten_sql);
    ASSERT_TRUE(rewritten.ok());
    ASSERT_TRUE(rewritten.value()->from &&
                rewritten.value()->from->kind == sql::TableRef::Kind::kDerived);
    const sql::SelectStmt& inner = *rewritten.value()->from->derived;
    const sql::Expr* sid = nullptr;
    for (const auto& item : inner.items) {
      if (item.alias == "__vdb_sid") sid = item.expr.get();
    }
    ASSERT_NE(sid, nullptr) << info.rewritten_sql;
    sql::SelectStmt range;
    std::vector<sql::Expr::Ptr> lo_args, hi_args;
    lo_args.push_back(sid->Clone());
    hi_args.push_back(sid->Clone());
    range.items.emplace_back(sql::MakeFunction("min", std::move(lo_args)),
                             "lo");
    range.items.emplace_back(sql::MakeFunction("max", std::move(hi_args)),
                             "hi");
    range.from = inner.from->Clone();
    if (inner.where) range.where = inner.where->Clone();
    auto rs = db_.ExecuteSelect(range);
    ASSERT_TRUE(rs.ok()) << rs.status().ToString();
    EXPECT_GE(rs.value().Get(0, 0).AsInt(), 1);
    EXPECT_LE(rs.value().Get(0, 1).AsInt(), info.subsamples);
  }
}

/// Plans `sql` as ExecuteApprox does (join edges qualified, base row
/// counts from the catalog, no group hint) over the given samples.
Result<SamplePlan> PlanOver(const engine::Database& db,
                            const VerdictOptions& opts,
                            std::vector<sampling::SampleInfo> samples,
                            const std::string& sql) {
  auto sel = sql::ParseSelect(sql);
  if (!sel.ok()) return sel.status();
  QueryClass qc = ClassifyQuery(*sel.value());
  QualifyJoinEdges(&qc, db.catalog());
  std::map<std::string, uint64_t> base_rows;
  for (const auto& r : qc.relations) {
    base_rows[r.alias] = db.catalog().GetTable(r.base_table)->num_rows();
  }
  SamplePlanner planner(opts, std::move(samples));
  return planner.Plan(qc, base_rows);
}

TEST_F(VerdictJoinE2E, PlannerRecordsTheUniverseColumn) {
  auto samples = ctx_->sample_catalog().SamplesFor("");
  ASSERT_TRUE(samples.ok());
  // Two hashed samples joined on their hash column: hash blocks of the
  // first alias in `choices` order.
  auto join = PlanOver(db_, ctx_->options(), samples.value(),
                       "select sum(f.v * d.w) as s from fact f inner join dim"
                       " d on f.k = d.k");
  ASSERT_TRUE(join.ok()) << join.status().ToString();
  EXPECT_EQ(join.value().sampled_relations, 2);
  EXPECT_EQ(join.value().universe_alias, "d");
  EXPECT_EQ(join.value().universe_column, "k");

  // count(distinct k) over the sample hashed on k.
  auto distinct = PlanOver(db_, ctx_->options(), samples.value(),
                           "select count(distinct k) as d from fact");
  ASSERT_TRUE(distinct.ok()) << distinct.status().ToString();
  EXPECT_EQ(distinct.value().sampled_relations, 1);
  EXPECT_EQ(distinct.value().universe_alias, "fact");
  EXPECT_EQ(distinct.value().universe_column, "k");
}

TEST_F(VerdictJoinE2E, NoPlanReadsTwoUniformSamples) {
  ASSERT_TRUE(ctx_->sample_builder().CreateUniformSample("fact", 0.1).ok());
  ASSERT_TRUE(ctx_->sample_builder().CreateUniformSample("dim", 0.1).ok());
  auto samples = ctx_->sample_catalog().SamplesFor("");
  ASSERT_TRUE(samples.ok());
  std::vector<sampling::SampleInfo> uniform;
  for (const auto& s : samples.value()) {
    if (s.type == sampling::SampleType::kUniform) uniform.push_back(s);
  }
  ASSERT_EQ(uniform.size(), 2u);
  for (const char* query :
       {"select sum(f.v * d.w) as s from fact f inner join dim d"
        " on f.k = d.k",
        "select count(*) as c from fact f inner join dim d on f.k = d.k"
        " where d.w > 0.5"}) {
    SCOPED_TRACE(query);
    auto plan = PlanOver(db_, ctx_->options(), uniform, query);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    EXPECT_LT(plan.value().sampled_relations, 2);
    EXPECT_TRUE(plan.value().universe_alias.empty());
  }
}

TEST_F(VerdictJoinE2E, RewriterRejectsTwoSamplesWithoutAUniverseColumn) {
  ASSERT_TRUE(ctx_->sample_builder().CreateUniformSample("fact", 0.1).ok());
  ASSERT_TRUE(ctx_->sample_builder().CreateUniformSample("dim", 0.1).ok());
  auto samples = ctx_->sample_catalog().SamplesFor("");
  ASSERT_TRUE(samples.ok());
  const std::string sql =
      "select sum(f.v * d.w) as s from fact f inner join dim d on f.k = d.k";
  auto sel = sql::ParseSelect(sql);
  ASSERT_TRUE(sel.ok());
  QueryClass qc = ClassifyQuery(*sel.value());
  QualifyJoinEdges(&qc, db_.catalog());
  // A hand-built plan no planner makes: independently drawn samples joined.
  SamplePlan plan;
  for (const auto& s : samples.value()) {
    if (s.type != sampling::SampleType::kUniform) continue;
    RelationChoice choice;
    choice.alias = s.base_table == "fact" ? "f" : "d";
    choice.sample = s;
    choice.sampled = true;
    plan.choices[choice.alias] = choice;
    ++plan.sampled_relations;
  }
  ASSERT_EQ(plan.sampled_relations, 2);
  AqpRewriter rewriter(ctx_->options());
  auto rewritten = rewriter.RewriteFlat(*sel.value(), qc, plan);
  ASSERT_FALSE(rewritten.ok());
  EXPECT_EQ(rewritten.status().code(), StatusCode::kInternal)
      << rewritten.status().ToString();
}

// ---------------------------------------------------------------------------
// Nested aggregation (§5.2)
// ---------------------------------------------------------------------------

TEST(VerdictNestedTest, NestedAggregateQuery) {
  engine::Database db(31);
  ASSERT_TRUE(workload::GenerateSynthetic(&db, "big", 120000, 3).ok());
  VerdictOptions opts;
  opts.min_rows_for_sampling = 10000;
  opts.io_budget = 0.05;
  VerdictContext ctx(&db, driver::EngineKind::kGeneric, opts);
  ASSERT_TRUE(ctx.sample_builder().CreateUniformSample("big", 0.02).ok());

  VerdictContext::ExecInfo info;
  auto rs = ctx.Execute(
      "select avg(s) as a from (select g100, sum(value) as s from big "
      "group by g100) as t",
      &info);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_TRUE(info.approximated) << info.skip_reason;
  auto exact = db.Execute(
      "select avg(s) as a from (select g100, sum(value) as s from big "
      "group by g100) as t");
  ASSERT_TRUE(exact.ok());
  double truth = exact.value().GetDouble(0, 0);
  EXPECT_NEAR(rs.value().GetDouble(0, 0), truth, std::abs(truth) * 0.15);
}

// ---------------------------------------------------------------------------
// Flattened correlated subquery, end to end
// ---------------------------------------------------------------------------

TEST(VerdictFlattenE2E, CorrelatedComparisonSubquery) {
  engine::Database db(64);
  auto t = std::make_shared<engine::Table>();
  t->AddColumn("grp", TypeId::kInt64);
  t->AddColumn("x", TypeId::kDouble);
  Rng rng(11);
  for (int i = 0; i < 60000; ++i) {
    t->AppendRow({Value::Int(static_cast<int64_t>(rng.NextBounded(50))),
                  Value::Double(rng.NextDouble() * 100.0)});
  }
  ASSERT_TRUE(db.RegisterTable("measurements", t).ok());
  VerdictOptions opts;
  opts.min_rows_for_sampling = 10000;
  opts.io_budget = 0.10;
  VerdictContext ctx(&db, driver::EngineKind::kGeneric, opts);
  ASSERT_TRUE(
      ctx.sample_builder().CreateUniformSample("measurements", 0.05).ok());

  const char* sql =
      "select count(*) as c from measurements m"
      " where m.x > (select avg(x) from measurements where grp = m.grp)";
  VerdictContext::ExecInfo info;
  auto rs = ctx.Execute(sql, &info);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_TRUE(info.approximated) << info.skip_reason;
  // The engine itself cannot evaluate correlated subqueries; the exact
  // reference uses the manually flattened equivalent.
  auto exact = db.Execute(
      "select count(*) as c from measurements m"
      " inner join (select grp, avg(x) as ax from measurements group by grp)"
      " as g on g.grp = m.grp where m.x > g.ax");
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  double truth = exact.value().GetDouble(0, 0);
  EXPECT_NEAR(rs.value().GetDouble(0, 0), truth, truth * 0.15);
}

// ---------------------------------------------------------------------------
// Derived relations over a universe sample
// ---------------------------------------------------------------------------
//
// A derived relation grouped by column c of table T reads T's universe
// sample on c when a chain of ON equalities ties it to a relation that reads
// that sample; in every other case it keeps reading T.

class DerivedSampleE2E : public ::testing::Test {
 protected:
  void SetUp() override {
    // fact: 5 rows per key k on average; j has 1000 values. other shares
    // fact's keys; dim holds every key once.
    auto fact = std::make_shared<engine::Table>();
    fact->AddColumn("k", TypeId::kInt64);
    fact->AddColumn("j", TypeId::kInt64);
    fact->AddColumn("v", TypeId::kDouble);
    auto other = std::make_shared<engine::Table>();
    other->AddColumn("k", TypeId::kInt64);
    other->AddColumn("v", TypeId::kDouble);
    auto dim = std::make_shared<engine::Table>();
    dim->AddColumn("k", TypeId::kInt64);
    dim->AddColumn("w", TypeId::kDouble);
    Rng rng(17);
    const int64_t keys = 12000;
    for (int64_t i = 0; i < keys; ++i) {
      dim->AppendRow({Value::Int(i), Value::Double(rng.NextDouble())});
    }
    for (int i = 0; i < 60000; ++i) {
      fact->AppendRow({Value::Int(rng.NextInRange(0, keys - 1)),
                       Value::Int(rng.NextInRange(0, 999)),
                       Value::Double(rng.NextDouble() * 100.0)});
      if (i % 2 == 0) {
        other->AppendRow({Value::Int(rng.NextInRange(0, keys - 1)),
                          Value::Double(rng.NextDouble() * 100.0)});
      }
    }
    ASSERT_TRUE(db_.RegisterTable("fact", fact).ok());
    ASSERT_TRUE(db_.RegisterTable("other", other).ok());
    ASSERT_TRUE(db_.RegisterTable("dim", dim).ok());
    VerdictOptions opts;
    opts.min_rows_for_sampling = 10000;
    opts.io_budget = 0.2;
    ctx_ = std::make_unique<VerdictContext>(&db_,
                                            driver::EngineKind::kGeneric,
                                            opts);
  }

  void Hashed(const std::string& table, const std::string& column) {
    ASSERT_TRUE(
        ctx_->sample_builder().CreateHashedSample(table, column, 0.1).ok());
  }

  /// The rewritten SQL of `sql`, which must be approximated.
  std::string Rewritten(const std::string& sql) {
    VerdictContext::ExecInfo info;
    auto rs = ctx_->Execute(sql, &info);
    EXPECT_TRUE(rs.ok()) << rs.status().ToString();
    EXPECT_TRUE(info.approximated) << info.skip_reason;
    return info.rewritten_sql;
  }

  engine::Database db_{2121};
  std::unique_ptr<VerdictContext> ctx_;
};

// fact joined to its own per-key averages: the flattened shape of a
// correlated comparison subquery.
constexpr const char* kAboveKeyAvg =
    "select count(*) as c from fact f inner join"
    " (select k, avg(v) as av from fact group by k) as g on g.k = f.k"
    " where f.v > g.av";
constexpr const char* kReadsFactSample =
    "from fact_vdb_hashed_k as fact group by k) as g";
constexpr const char* kReadsFact = "from fact group by k) as g";

TEST_F(DerivedSampleE2E, ReadsTheUniverseSampleUnderRandomSids) {
  Hashed("fact", "k");
  const std::string sql = Rewritten(kAboveKeyAvg);
  EXPECT_NE(sql.find("rand()"), std::string::npos) << sql;
  EXPECT_NE(sql.find(kReadsFactSample), std::string::npos) << sql;
}

TEST_F(DerivedSampleE2E, KeepsTheDerivedWhereHavingAndCountStar) {
  Hashed("fact", "k");
  const std::string sql = Rewritten(
      "select count(*) as c from fact f inner join"
      " (select k, avg(v) as av, count(*) as n from fact where v > 1"
      " group by k having count(*) > 1) as g on g.k = f.k"
      " where f.v > g.av and g.n > 2");
  EXPECT_NE(sql.find("count(*) as n from fact_vdb_hashed_k as fact where"
                     " (v > 1) group by k having (count(*) > 1)) as g"),
            std::string::npos)
      << sql;
}

TEST_F(DerivedSampleE2E, ReadsTheUniverseSampleUnderHashBlockSids) {
  Hashed("fact", "k");
  const std::string sql = Rewritten(
      "select count(distinct f.k) as d from fact f inner join"
      " (select k, avg(v) as av from fact group by k) as g on g.k = f.k"
      " where f.v > g.av");
  EXPECT_NE(sql.find("verdict_hash"), std::string::npos) << sql;
  EXPECT_NE(sql.find(kReadsFactSample), std::string::npos) << sql;
}

TEST_F(DerivedSampleE2E, FollowsTheEqualityChainThroughAnotherRelation) {
  // A universe join of two hashed samples; the derived relation reaches
  // fact's sample only through dim.
  Hashed("fact", "k");
  Hashed("dim", "k");
  const std::string sql = Rewritten(
      "select sum(f.v * d.w) as s from fact f inner join dim d on f.k = d.k"
      " inner join (select k, avg(v) as av from fact group by k) as g"
      " on g.k = d.k where f.v > g.av");
  EXPECT_NE(sql.find("dim_vdb_hashed_k"), std::string::npos) << sql;
  EXPECT_NE(sql.find(kReadsFactSample), std::string::npos) << sql;
}

TEST_F(DerivedSampleE2E, KeepsTheBaseTableUnderAUniformSample) {
  ASSERT_TRUE(ctx_->sample_builder().CreateUniformSample("fact", 0.1).ok());
  const std::string sql = Rewritten(kAboveKeyAvg);
  EXPECT_NE(sql.find("fact_vdb_uniform"), std::string::npos) << sql;
  EXPECT_NE(sql.find(kReadsFact), std::string::npos) << sql;
}

TEST_F(DerivedSampleE2E, KeepsTheBaseTableWhenTheHashIsOnAnotherColumn) {
  Hashed("fact", "j");
  const std::string sql = Rewritten(kAboveKeyAvg);
  EXPECT_NE(sql.find("fact_vdb_hashed_j"), std::string::npos) << sql;
  EXPECT_NE(sql.find(kReadsFact), std::string::npos) << sql;
}

TEST_F(DerivedSampleE2E, KeepsTheBaseTableWhenTheInnerTableDiffers) {
  Hashed("fact", "k");
  Hashed("other", "k");
  const std::string sql = Rewritten(
      "select count(*) as c from fact f inner join"
      " (select k, avg(v) as av from other group by k) as g on g.k = f.k"
      " where f.v > g.av");
  EXPECT_NE(sql.find("from other group by k) as g"), std::string::npos)
      << sql;
}

TEST_F(DerivedSampleE2E, KeepsTheBaseTableWhenGroupedByTwoColumns) {
  Hashed("fact", "k");
  const std::string sql = Rewritten(
      "select count(*) as c from fact f inner join"
      " (select k, j, avg(v) as av from fact group by k, j) as g"
      " on g.k = f.k and g.j = f.j where f.v > g.av");
  EXPECT_NE(sql.find("from fact group by k, j) as g"), std::string::npos)
      << sql;
}

TEST_F(DerivedSampleE2E, KeepsTheBaseTableWithoutAnEqualityChain) {
  // Joined on fact's other column: keys of g are not the sample's keys.
  Hashed("fact", "k");
  const std::string sql = Rewritten(
      "select count(*) as c from fact f inner join"
      " (select k, avg(v) as av from fact group by k) as g on g.k = f.j"
      " where f.v > g.av");
  EXPECT_NE(sql.find(kReadsFact), std::string::npos) << sql;
}

// The benchmark fixture's lineitem samples and sampling threshold, at TPC-H
// scale 0.1.
class DerivedSampleWorkload : public ::testing::Test {
 protected:
  void SetUp() override {
    workload::TpchConfig tc;
    tc.scale = 0.1;
    ASSERT_TRUE(workload::GenerateTpch(&db_, tc).ok());
    VerdictOptions opts;
    opts.io_budget = 0.12;
    opts.min_tuples_per_group = 16;
    opts.min_rows_for_sampling = 30000;
    ctx_ = std::make_unique<VerdictContext>(&db_, driver::EngineKind::kGeneric,
                                            opts);
    auto& b = ctx_->sample_builder();
    ASSERT_TRUE(b.CreateUniformSample("lineitem", 0.01).ok());
    ASSERT_TRUE(b.CreateHashedSample("lineitem", "l_orderkey", 0.02).ok());
    ASSERT_TRUE(b.CreateHashedSample("lineitem", "l_partkey", 0.02).ok());
    for (const auto& q : workload::TpchQueries()) {
      if (q.id == "tq-17") tq17_ = q.sql;
    }
    ASSERT_FALSE(tq17_.empty()) << "no tq-17 template";
  }

  engine::Database db_{4242};
  std::unique_ptr<VerdictContext> ctx_;
  std::string tq17_;
};

TEST_F(DerivedSampleWorkload, Tq17ReadsTheLineitemUniverseSample) {
  // A silent fall-back to the full lineitem scan inside __vdb_f0 fails here.
  VerdictContext::ExecInfo info;
  auto rs = ctx_->Execute(tq17_, &info);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_TRUE(info.approximated) << info.skip_reason;
  EXPECT_NE(info.rewritten_sql.find(
                "avg(l_quantity) as __vdb_corr0 from"
                " lineitem_vdb_hashed_l_partkey as lineitem group by"
                " l_partkey) as __vdb_f0"),
            std::string::npos)
      << info.rewritten_sql;
}

TEST_F(DerivedSampleWorkload, Tq17HacFallbackRunsTheFlattenedStatement) {
  // The contract cannot hold at 1% sampling, so the exact run answers. It
  // must run the flattened statement: the engine has no correlated
  // subqueries.
  ctx_->options().min_accuracy = 0.9999;
  VerdictContext::ExecInfo info;
  auto rs = ctx_->Execute(tq17_, &info);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_TRUE(info.exact_rerun);
  EXPECT_FALSE(info.approximated);
  auto exact = sql::ParseSelect(tq17_);
  ASSERT_TRUE(exact.ok());
  ASSERT_TRUE(FlattenComparisonSubqueries(exact.value().get()).ok());
  auto truth = db_.ExecuteSelect(*exact.value());
  ASSERT_TRUE(truth.ok()) << truth.status().ToString();
  ExpectBitIdentical(rs.value(), truth.value());
}

}  // namespace
}  // namespace vdb::core
