// TPC-H-style analytics through VerdictDB: runs a handful of the tq-*
// workload queries exactly and approximately, reporting latency and error —
// a miniature of the paper's §6.2 experiment.

#include <chrono>
#include <cstdio>

#include "core/flattener.h"
#include "core/verdict_context.h"
#include "sql/parser.h"
#include "workload/queries.h"
#include "workload/tpch.h"

int main() {
  using namespace vdb;
  engine::Database db;
  workload::TpchConfig cfg;
  cfg.scale = 0.4;
  if (!workload::GenerateTpch(&db, cfg).ok()) return 1;

  core::VerdictOptions opts;
  opts.min_rows_for_sampling = 15000;
  opts.io_budget = 0.10;
  core::VerdictContext verdict(&db, driver::EngineKind::kImpala, opts);
  auto& builder = verdict.sample_builder();
  for (const auto& built :
       {builder.CreateUniformSample("lineitem", 0.02),
        builder.CreateHashedSample("lineitem", "l_orderkey", 0.02),
        builder.CreateHashedSample("orders", "o_orderkey", 0.02)}) {
    if (!built.ok()) {
      std::printf("sample build failed: %s\n",
                  built.status().ToString().c_str());
      return 1;
    }
  }

  // The exact run of a correlated subquery (tq-17) needs flattening too:
  // the engine has no native correlated evaluation.
  auto run_exact = [&db](const std::string& sql) {
    auto parsed = sql::ParseStatement(sql);
    if (!parsed.ok()) return Result<engine::ResultSet>(parsed.status());
    auto* select = parsed.value()->select.get();
    auto flattened = core::FlattenComparisonSubqueries(select);
    if (!flattened.ok()) return Result<engine::ResultSet>(flattened.status());
    return db.ExecuteSelect(*select);
  };

  auto ms_since = [](std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
  };

  std::printf("%-6s %12s %12s  %s\n", "query", "exact(ms)", "verdict(ms)",
              "mode");
  int failures = 0;
  for (const auto& q : workload::TpchQueries()) {
    if (q.id != "tq-1" && q.id != "tq-5" && q.id != "tq-6" &&
        q.id != "tq-14" && q.id != "tq-17" && q.id != "tq-19") {
      continue;
    }
    auto t0 = std::chrono::steady_clock::now();
    auto exact = run_exact(q.sql);
    double exact_ms = ms_since(t0);
    core::VerdictContext::ExecInfo info;
    t0 = std::chrono::steady_clock::now();
    auto approx = verdict.Execute(q.sql, &info);
    double approx_ms = ms_since(t0);
    if (!exact.ok() || !approx.ok()) {
      std::printf("%-6s failed: %s\n", q.id.c_str(),
                  (!exact.ok() ? exact.status() : approx.status())
                      .ToString()
                      .c_str());
      ++failures;
      continue;
    }
    std::printf("%-6s %12.1f %12.1f  %s\n", q.id.c_str(), exact_ms, approx_ms,
                info.approximated ? "approx" : "exact passthrough");
  }

  std::printf("\ntq-17 demonstrates correlated-subquery flattening;"
              " its rewritten SQL begins:\n");
  core::VerdictContext::ExecInfo info;
  for (const auto& q : workload::TpchQueries()) {
    if (q.id != "tq-17") continue;
    auto approx = verdict.Execute(q.sql, &info);
    if (!approx.ok()) {
      std::printf("tq-17 failed: %s\n", approx.status().ToString().c_str());
      ++failures;
    }
  }
  std::printf("  %.200s...\n", info.rewritten_sql.c_str());
  return failures == 0 ? 0 : 1;
}
