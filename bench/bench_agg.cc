// Grouped-aggregation benchmark: the open-addressing group table + SoA
// scatter-accumulate lanes (engine/agg_table.h, FlatAggregator), swept
// across group counts and thread counts.
//
// Two shapes:
//   - group-count sweep: GROUP BY g, sum+count over 10 / 1K / 100K / 1M
//     distinct groups — from a handful of cache-resident accumulator lanes
//     to group tables far beyond LLC, where probe misses dominate.
//   - sid shape: GROUP BY (g, sid) over a derived table assigning a
//     row-addressed `1 + floor(rand() * 100)` subsample id — the AQP hot
//     path the VerdictDB rewriter emits (Figure 7's inner loop), with its
//     Double sid key. Two sizes: 1M rows over g10 (1000 groups of ~1000
//     rows), and a sample-sized 20K rows over g25 with six sum/stddev
//     aggregates (2500 groups of ~8 rows) — the shape of a rewritten query
//     over a sample, where per-group merge and finalize costs are not
//     amortized over many rows.
//
// Results are bit-identical at every thread count (pinned by FlatAggTest);
// speedups are against the 1-thread run. --smoke shrinks rows/reps for the
// sanitizer CI jobs; --json writes BENCH_agg.json.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "engine/database.h"

namespace {

using namespace vdb;
using engine::Column;
using engine::Database;
using engine::Table;
using engine::TablePtr;

/// Rows with `g` uniform over [0, groups) in random order plus a double
/// measure; the same data for every thread count.
TablePtr BuildTable(size_t rows, size_t groups, uint64_t seed) {
  Rng rng(seed);
  std::vector<int64_t> g(rows);
  std::vector<double> v(rows);
  for (size_t r = 0; r < rows; ++r) {
    g[r] = static_cast<int64_t>(rng.NextBounded(groups));
    // Multiples of 0.25: partial-sum merge order cannot perturb results.
    v[r] = static_cast<double>(rng.NextInRange(0, 4000)) * 0.25;
  }
  auto t = std::make_shared<Table>();
  t->AddColumn("g", Column::FromData(TypeId::kInt64, std::move(g), {}, {}, {}));
  t->AddColumn("v",
               Column::FromData(TypeId::kDouble, {}, std::move(v), {}, {}));
  return t;
}

struct SweepPoint {
  size_t groups;
  const char* label;
};

void RunCase(Database* db, const std::string& sql, const std::string& op,
             size_t rows, int reps) {
  db->set_num_threads(1);
  (void)db->Execute(sql);  // warm-up: thread pool, faults, allocator
  double serial = 0.0;
  for (int threads : {1, 2, 4, 8}) {
    db->set_num_threads(threads);
    const double ms =
        bench::TimeMedianMs(reps, [&] { (void)db->Execute(sql); });
    if (threads == 1) serial = ms;
    char label[64];
    std::snprintf(label, sizeof(label), "flat sink @%d", threads);
    std::printf("%-34s %10.1f %11.2fM %8.2fx\n", label, ms,
                static_cast<double>(rows) / ms / 1e3, serial / ms);
    bench::BenchJsonRecord(op, "flat", ms, threads);
  }
  db->set_num_threads(1);
}

void RunGroupSweep(bool smoke) {
  const size_t rows = smoke ? 100'000 : 1'000'000;
  const int reps = smoke ? 1 : 5;
  const std::vector<SweepPoint> points =
      smoke ? std::vector<SweepPoint>{{10, "10"}, {1'000, "1K"}}
            : std::vector<SweepPoint>{{10, "10"},
                                      {1'000, "1K"},
                                      {100'000, "100K"},
                                      {1'000'000, "1M"}};
  for (const SweepPoint& p : points) {
    std::printf("\n== GROUP BY g: %zu rows, %s groups ==\n", rows, p.label);
    std::printf("%-34s %10s %12s %10s\n", "sink", "ms", "rows/s", "speedup");
    Database db(4242);
    if (!db.RegisterTable("t", BuildTable(rows, p.groups, 17)).ok()) return;
    RunCase(&db, "select g, sum(v) as s, count(*) as c from t group by g",
            std::string("group by g (") + p.label + " groups)", rows, reps);
  }
}

void RunSidShape(bool smoke) {
  const size_t rows = smoke ? 100'000 : 1'000'000;
  const int reps = smoke ? 1 : 5;
  std::printf("\n== GROUP BY (g10, sid): %zu rows, b = 100 ==\n", rows);
  std::printf("%-34s %10s %12s %10s\n", "sink", "ms", "rows/s", "speedup");
  Database db(4242);
  if (!db.RegisterTable("t", BuildTable(rows, 10, 23)).ok()) return;
  RunCase(&db,
          "select g, sid, sum(v) as e, count(*) as ss from "
          "(select *, 1 + floor(rand() * 100) as sid from t) as d "
          "group by g, sid",
          "group by (g10, sid)", rows, reps);
}

void RunSampleSidShape(bool smoke) {
  const size_t rows = 20'000;
  const int reps = smoke ? 1 : 21;
  std::printf("\n== GROUP BY (g25, sid): %zu rows, b = 100, 6 aggs ==\n",
              rows);
  std::printf("%-34s %10s %12s %10s\n", "sink", "ms", "rows/s", "speedup");
  Database db(4242);
  if (!db.RegisterTable("t", BuildTable(rows, 25, 29)).ok()) return;
  RunCase(&db,
          "select g, sid, sum(v) as s1, stddev(v) as d1, sum(v * v) as s2, "
          "stddev(v * v) as d2, sum(v + g) as s3, stddev(v + g) as d3 from "
          "(select *, 1 + floor(rand() * 100) as sid from t) as d "
          "group by g, sid",
          "group by (g25, sid) sample", rows, reps);
}

}  // namespace

int main(int argc, char** argv) {
  vdb::bench::BenchJsonInit("agg", argc, argv);
  const bool smoke = vdb::bench::HasFlag(argc, argv, "--smoke");
  RunGroupSweep(smoke);
  RunSidShape(smoke);
  RunSampleSidShape(smoke);
  vdb::bench::BenchJsonWrite();
  return 0;
}
