// The Text/AST agreement contract (docs/INVARIANTS.md): the driver runs the
// middleware's AST in process and logs its printed text, so that text must
// be the statement that ran.
//
// Two layers, both at fixed seeds:
//   * generated statements (tests/oracle/sql_gen.h): under every dialect's
//     print options, Print(Parse(Print(s))) == Print(s), the same holds
//     after the dialect's syntax rules, and a SELECT run in process
//     (Connection::ExecuteAst) returns bit-identical results to its logged
//     text run through Connection::Execute on a twin database;
//   * the 33 workload templates under all four dialects at 1 and 4
//     threads: the sample builds and every query's logged statements,
//     re-executed as text on a twin database, reproduce the in-process
//     run bit for bit (sample tables, pass-through results, approximate
//     answers with their error columns).

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "core/answer_rewriter.h"
#include "core/flattener.h"
#include "core/query_classifier.h"
#include "core/rewriter.h"
#include "core/sample_planner.h"
#include "core/verdict_context.h"
#include "driver/dialect.h"
#include "engine/database.h"
#include "oracle/sql_gen.h"
#include "sql/parser.h"
#include "sql/printer.h"
#include "workload/insta.h"
#include "workload/queries.h"
#include "workload/tpch.h"

namespace vdb {
namespace {

constexpr driver::EngineKind kDialects[] = {
    driver::EngineKind::kGeneric, driver::EngineKind::kImpala,
    driver::EngineKind::kSparkSql, driver::EngineKind::kRedshift};

/// Bit identity of two cells: same type, and for doubles the same bits
/// (every NaN matches every NaN: NaN payloads carry no value).
bool SameCell(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case TypeId::kNull: return true;
    case TypeId::kBool:
    case TypeId::kInt64: return a.AsInt() == b.AsInt();
    case TypeId::kDouble: {
      const double x = a.AsDouble(), y = b.AsDouble();
      if (std::isnan(x) || std::isnan(y)) return std::isnan(x) && std::isnan(y);
      return std::memcmp(&x, &y, sizeof(x)) == 0;
    }
    case TypeId::kString: return a.AsString() == b.AsString();
  }
  return false;
}

/// Empty when the two results are bit-identical (names, shape, cells),
/// otherwise the first difference.
std::string ResultDiff(const engine::ResultSet& a, const engine::ResultSet& b) {
  if (a.names != b.names) return "column names differ";
  if (a.NumRows() != b.NumRows()) {
    return "row counts differ: " + std::to_string(a.NumRows()) + " vs " +
           std::to_string(b.NumRows());
  }
  for (size_t r = 0; r < a.NumRows(); ++r) {
    for (size_t c = 0; c < a.NumCols(); ++c) {
      if (!SameCell(a.Get(r, c), b.Get(r, c))) {
        return "row " + std::to_string(r) + " column " + a.names[c] + ": " +
               a.Get(r, c).ToString() + " vs " + b.Get(r, c).ToString();
      }
    }
  }
  return "";
}

/// Empty when `text` parses and prints back to itself under `opts`.
std::string ReprintDiff(const std::string& text,
                        const sql::PrintOptions& opts) {
  auto parsed = sql::ParseStatement(text);
  if (!parsed.ok()) return "does not parse: " + parsed.status().ToString();
  const std::string again = sql::PrintStatement(*parsed.value(), opts);
  return again == text ? "" : "reprints as: " + again;
}

// ---------------------------------------------------------------------------
// Generated statements
// ---------------------------------------------------------------------------

TEST(GeneratedRoundTrip, PrintParsePrintIsStableUnderEveryDialect) {
  Rng rng(0x5EED2026);
  sqlgen::StatementGen gen(&rng);
  for (int i = 0; i < 1500; ++i) {
    auto stmt = gen.Statement(2);
    for (driver::EngineKind kind : kDialects) {
      const driver::Dialect& d = driver::GetDialect(kind);
      const std::string text = sql::PrintStatement(*stmt, d.print_options);
      ASSERT_EQ(ReprintDiff(text, d.print_options), "")
          << d.name << " #" << i << ": " << text;
      if (!stmt->select) continue;
      // The syntax rules' output parses and reprints as itself too.
      sql::Statement ruled;
      ruled.kind = stmt->kind;
      ruled.table_name = stmt->table_name;
      ruled.select = stmt->select->Clone();
      ASSERT_TRUE(driver::ApplySyntaxRules(d, ruled.select.get()).ok());
      const std::string ruled_text =
          sql::PrintStatement(ruled, d.print_options);
      ASSERT_EQ(ReprintDiff(ruled_text, d.print_options), "")
          << d.name << " #" << i << ": " << ruled_text;
    }
  }
}

TEST(GeneratedRoundTrip, SelectsReturnTheSameBitsInProcessAndAsText) {
  // Twin databases in lockstep: every statement runs once on each, so a
  // rand statement draws the same query seed on both.
  engine::Database in_process(77), as_text(77);
  sqlgen::RegisterGenTables(&in_process, 2026, 24);
  sqlgen::RegisterGenTables(&as_text, 2026, 24);
  Rng rng(0xA57A57);
  sqlgen::StatementGen gen(&rng);
  size_t ran = 0, failed_alike = 0;
  for (driver::EngineKind kind : kDialects) {
    driver::Connection ast(&in_process, kind);
    driver::Connection text(&as_text, kind);
    for (int i = 0; i < 250; ++i) {
      sql::Statement stmt;
      stmt.select = gen.Select(2);
      auto a = ast.ExecuteAst(stmt);
      const std::string& sent = ast.statement_log().back();
      auto b = text.Execute(sent);
      ASSERT_EQ(a.ok(), b.ok())
          << ast.dialect().name << " #" << i << ": " << sent << "\n  "
          << (a.ok() ? b.status() : a.status()).ToString();
      if (!a.ok()) {
        EXPECT_EQ(a.status().code(), b.status().code()) << sent;
        ++failed_alike;
        continue;
      }
      ++ran;
      ASSERT_EQ(ResultDiff(a.value(), b.value()), "")
          << ast.dialect().name << " #" << i << ": " << sent;
    }
  }
  // Most generated statements must run, or the comparison says little.
  EXPECT_GT(ran, failed_alike) << ran << " ran, " << failed_alike << " failed";
}

TEST(AstTextAgreement, NegativeLiteralsRunLikeTheirPrintedNegations) {
  // A negative literal prints as a negation, so where the engine asks for
  // a literal (ORDER BY ordinal, quantile fraction) the AST must not pass
  // where its text fails, or fail differently.
  engine::Database in_process(5), as_text(5);
  sqlgen::RegisterGenTables(&in_process, 1, 16);
  sqlgen::RegisterGenTables(&as_text, 1, 16);
  driver::Connection ast(&in_process, driver::EngineKind::kGeneric);
  driver::Connection text(&as_text, driver::EngineKind::kGeneric);
  auto run = [&](std::unique_ptr<sql::SelectStmt> sel) {
    sql::Statement stmt;
    stmt.select = std::move(sel);
    auto a = ast.ExecuteAst(stmt);
    auto b = text.Execute(ast.statement_log().back());
    ASSERT_EQ(a.status().code(), b.status().code())
        << ast.statement_log().back() << ": " << a.status().ToString()
        << " vs " << b.status().ToString();
    if (a.ok()) {
      EXPECT_EQ(ResultDiff(a.value(), b.value()), "");
    }
  };
  for (bool item : {false, true}) {
    auto sel = std::make_unique<sql::SelectStmt>();
    sel->items.emplace_back(sql::MakeColumnRef("", "i1"), "");
    if (item) sel->items.emplace_back(sql::MakeIntLit(-1), "");
    sel->from = sql::MakeBaseTable("fact");
    sql::OrderItem o;
    o.expr = sql::MakeIntLit(-1);
    sel->order_by.push_back(std::move(o));
    run(std::move(sel));
  }
  for (double p : {-0.0, 0.0, -0.5}) {
    auto sel = std::make_unique<sql::SelectStmt>();
    std::vector<sql::Expr::Ptr> args;
    args.push_back(sql::MakeColumnRef("", "d1"));
    args.push_back(sql::MakeDoubleLit(p));
    sel->items.emplace_back(sql::MakeFunction("quantile", std::move(args)), "q");
    sel->from = sql::MakeBaseTable("fact");
    run(std::move(sel));
  }
}

// ---------------------------------------------------------------------------
// Workload templates
// ---------------------------------------------------------------------------

void Generate(engine::Database* db) {
  workload::TpchConfig tc;
  tc.scale = 0.05;
  ASSERT_TRUE(workload::GenerateTpch(db, tc).ok());
  workload::InstaConfig ic;
  ic.scale = 0.05;
  ASSERT_TRUE(workload::GenerateInsta(db, ic).ok());
}

core::VerdictOptions TemplateOptions() {
  core::VerdictOptions opts;
  opts.min_rows_for_sampling = 3000;
  opts.io_budget = 0.3;
  opts.min_tuples_per_group = 4;
  return opts;
}

/// The approximate answer of `sql` computed from `raw`, the result of the
/// rewritten query: the middleware's stages rerun one public call at a time
/// (as in VerdictContext::TryApproximate), with the group-cardinality hint
/// read from the logged probe. Also checks that the rerun rewrite prints
/// as `sent`, the text the connection logged.
Result<core::ApproxAnswer> AnswerFrom(core::VerdictContext* ctx,
                                      engine::Database* db,
                                      const std::string& sql,
                                      const std::vector<std::string>& log,
                                      const engine::ResultSet& raw) {
  auto parsed = sql::ParseStatement(sql);
  if (!parsed.ok()) return parsed.status();
  sql::SelectStmt* sel = parsed.value()->select.get();
  VDB_RETURN_IF_ERROR(core::FlattenComparisonSubqueries(sel).status());
  core::QueryClass qc = core::ClassifyQuery(*sel);
  core::QueryClass qc_inner;
  core::QueryClass* plan_qc = &qc;
  if (qc.nested_aggregate) {
    qc_inner = core::ClassifyQuery(*qc.relations[0].derived);
    plan_qc = &qc_inner;
  }
  core::QualifyJoinEdges(plan_qc, db->catalog());
  std::map<std::string, uint64_t> base_rows;
  for (const auto& r : plan_qc->relations) {
    auto t = r.is_derived ? nullptr : db->catalog().GetTable(r.base_table);
    base_rows[r.alias] = t ? t->num_rows() : 0;
  }
  int64_t hint = 0;
  for (const std::string& s : log) {
    if (s.rfind("select count(distinct ", 0) != 0) continue;
    auto rs = db->Execute(s);
    if (rs.ok() && rs.value().NumRows() > 0) hint = rs.value().Get(0, 0).AsInt();
  }
  auto samples = ctx->sample_catalog().SamplesFor("");
  if (!samples.ok()) return samples.status();
  core::SamplePlanner planner(ctx->options(), samples.value());
  auto plan = planner.Plan(*plan_qc, base_rows, hint);
  if (!plan.ok()) return plan.status();
  core::AqpRewriter rewriter(ctx->options());
  auto rewritten =
      qc.nested_aggregate
          ? rewriter.RewriteNested(*sel, qc, qc_inner, plan.value(), hint)
          : rewriter.RewriteFlat(*sel, qc, plan.value());
  if (!rewritten.ok()) return rewritten.status();
  sql::Statement ruled;
  ruled.select = std::move(rewritten.value().rewritten);
  const driver::Dialect& d = ctx->connection().dialect();
  VDB_RETURN_IF_ERROR(driver::ApplySyntaxRules(d, ruled.select.get()));
  if (sql::PrintStatement(ruled, d.print_options) != log.back()) {
    return Status::Internal("the rerun rewrite differs from the logged one");
  }
  return core::AnswerRewriter(ctx->options())
      .Rewrite(raw, rewritten.value().columns);
}

class TemplateRoundTrip
    : public ::testing::TestWithParam<driver::EngineKind> {};

TEST_P(TemplateRoundTrip, LoggedTextReproducesTheInProcessRun) {
  const driver::EngineKind kind = GetParam();
  engine::Database in_process(4242), as_text(4242);
  Generate(&in_process);
  Generate(&as_text);
  core::VerdictContext ctx(&in_process, kind, TemplateOptions());
  driver::Connection text(&as_text, kind);

  // Sample builds: the in-process build's statements, replayed as text,
  // build cell-identical tables.
  auto& b = ctx.sample_builder();
  ctx.connection().ClearLog();
  ASSERT_TRUE(b.CreateUniformSample("lineitem", 0.1).ok());
  ASSERT_TRUE(b.CreateHashedSample("lineitem", "l_orderkey", 0.1).ok());
  ASSERT_TRUE(b.CreateHashedSample("lineitem", "l_partkey", 0.1).ok());
  ASSERT_TRUE(b.CreateUniformSample("orders", 0.2).ok());
  ASSERT_TRUE(b.CreateHashedSample("orders", "o_orderkey", 0.1).ok());
  ASSERT_TRUE(b.CreateUniformSample("partsupp", 0.2).ok());
  ASSERT_TRUE(b.CreateHashedSample("partsupp", "ps_suppkey", 0.2).ok());
  ASSERT_TRUE(b.CreateHashedSample("partsupp", "ps_partkey", 0.2).ok());
  ASSERT_TRUE(b.CreateUniformSample("order_products", 0.1).ok());
  ASSERT_TRUE(b.CreateHashedSample("order_products", "order_id", 0.1).ok());
  ASSERT_TRUE(b.CreateStratifiedSample("orders_insta", {"order_dow"}, 0.1)
                  .ok());
  ASSERT_TRUE(b.CreateUniformSample("orders_insta", 0.2).ok());
  ASSERT_TRUE(b.CreateHashedSample("orders_insta", "user_id", 0.1).ok());
  for (const std::string& s : ctx.connection().statement_log()) {
    ASSERT_TRUE(text.Execute(s).ok()) << s;
  }
  for (const std::string& name : in_process.catalog().ListTables()) {
    const std::string scan = "select * from " + name;
    auto a = in_process.Execute(scan);
    auto t = as_text.Execute(scan);
    ASSERT_TRUE(a.ok() && t.ok()) << name;
    EXPECT_EQ(ResultDiff(a.value(), t.value()), "") << name;
  }

  auto queries = workload::TpchQueries();
  for (const auto& q : workload::InstaQueries()) queries.push_back(q);
  size_t approximated = 0;
  for (int threads : {1, 4}) {
    ctx.options().num_threads = threads;
    as_text.set_num_threads(threads);
    for (const auto& q : queries) {
      core::VerdictContext::ExecInfo info;
      auto answer = ctx.ExecuteApprox(q.sql, &info);
      ASSERT_TRUE(answer.ok()) << q.id << ": " << answer.status().ToString();
      const std::vector<std::string> log = ctx.connection().statement_log();
      Result<engine::ResultSet> last = Status::Internal("empty log");
      for (const std::string& s : log) last = text.Execute(s);
      ASSERT_TRUE(last.ok()) << q.id << ": " << last.status().ToString();
      if (!info.approximated) {
        EXPECT_EQ(ResultDiff(answer.value().result, last.value()), "")
            << q.id << " (passed through) at " << threads << " threads";
        continue;
      }
      ++approximated;
      EXPECT_EQ(info.rewritten_sql, log.back()) << q.id;
      auto replayed = AnswerFrom(&ctx, &in_process, q.sql, log, last.value());
      ASSERT_TRUE(replayed.ok()) << q.id << ": " << replayed.status().ToString();
      EXPECT_EQ(ResultDiff(answer.value().result, replayed.value().result), "")
          << q.id << " at " << threads << " threads";
    }
  }
  // Both kinds of run are covered.
  EXPECT_GT(approximated, 2 * 15u);
  EXPECT_LT(approximated, 2 * queries.size());
}

INSTANTIATE_TEST_SUITE_P(
    AllDialects, TemplateRoundTrip, ::testing::ValuesIn(kDialects),
    [](const ::testing::TestParamInfo<driver::EngineKind>& p) {
      return driver::GetDialect(p.param).name;
    });

}  // namespace
}  // namespace vdb
