// A grocery-sales "dashboard": the workload the paper's introduction
// motivates — interactive aggregates over a large fact table, sped up
// transparently. Demonstrates the default sampling policy (Appendix F) and
// several query shapes including count-distinct and a sample-sample join.

#include <cstdio>

#include "core/verdict_context.h"
#include "workload/insta.h"

int main() {
  using namespace vdb;
  engine::Database db;
  workload::InstaConfig cfg;
  cfg.scale = 0.5;
  if (!workload::GenerateInsta(&db, cfg).ok()) return 1;

  core::VerdictOptions opts;
  opts.min_rows_for_sampling = 15000;
  opts.io_budget = 0.10;
  core::VerdictContext verdict(&db, driver::EngineKind::kSparkSql, opts);

  // Let the Appendix F policy decide which samples to build for the fact
  // table (uniform + hashed on high-cardinality + stratified on
  // low-cardinality columns), then add universe samples for the join.
  auto made =
      verdict.sample_builder().CreateDefaultSamples("order_products", 0.02);
  if (!made.ok()) {
    std::fprintf(stderr, "%s\n", made.status().ToString().c_str());
    return 1;
  }
  std::printf("default policy built %zu samples for order_products:\n",
              made.value().size());
  for (const auto& s : made.value()) {
    std::printf("  %-45s %-10s ratio %.3f\n", s.sample_table.c_str(),
                sampling::SampleTypeName(s.type), s.ratio);
  }
  (void)verdict.sample_builder().CreateHashedSample("orders_insta",
                                                    "order_id", 0.05);
  (void)verdict.sample_builder().CreateHashedSample("orders_insta",
                                                    "user_id", 0.05);

  const char* dashboard[] = {
      // Revenue by weekday (joins two universe samples on order_id).
      "select o.order_dow, sum(op.price) as revenue from order_products op"
      " inner join orders_insta o on op.order_id = o.order_id"
      " group by o.order_dow order by o.order_dow",
      // How many distinct customers ordered this week?
      "select count(distinct user_id) as active_users from orders_insta",
      // Reorder share (a ratio statistic).
      "select sum(case when reordered = 1 then price else 0.0 end) /"
      " sum(price) as reorder_share from order_products",
  };
  int failed = 0;
  for (const char* sql : dashboard) {
    core::VerdictContext::ExecInfo info;
    auto rs = verdict.Execute(sql, &info);
    std::printf("\n>>> %s\n", sql);
    if (!rs.ok()) {
      std::printf("error: %s\n", rs.status().ToString().c_str());
      ++failed;
      continue;
    }
    std::printf("[%s, max rel. error bound %.2f%%]\n%s",
                info.approximated ? "approximate" : "exact",
                info.max_relative_error * 100.0,
                rs.value().ToString(10).c_str());
  }
  return failed == 0 ? 0 : 1;
}
