// Figure 7: runtime of flat / join / nested aggregate queries under four
// error-estimation regimes, all expressed as SQL against the underlying
// engine (as a middleware must):
//   - none:          single scaled aggregate over the sample (baseline)
//   - variational:   VerdictDB's rewritten query (O(n))
//   - traditional:   subsample-table construction + per-sid case-sums
//                    (Query 1 of the paper; O(b*n))
//   - consolidated:  single pass with b Poisson-weighted resample columns
//                    (O(b*n) evaluation work)

#include <cstring>
#include <string>

#include "bench_util.h"
#include "workload/synthetic.h"

namespace {

using namespace vdb;

constexpr int kB = 100;

/// The AQP hot path as the rewriter emits it: GROUP BY (g, __vdb_sid) over a
/// derived table assigning a row-addressed `1 + floor(rand() * b)` sid.
/// Sweeps 1/2/4/8 threads; speedups are against the 1-thread run. Results
/// are identical at every thread count — only the execution strategy
/// differs.
void RunAqpThreadSweep(engine::Database* db, const std::string& table,
                       int64_t rows) {
  const std::string sql =
      "select g10, sid, sum(value) as e, count(*) as ss from (select *, 1 + "
      "floor(rand() * " +
      std::to_string(kB) + ") as sid from " + table +
      ") as t group by g10, sid";
  std::printf("\n== AQP thread sweep: GROUP BY (g, __vdb_sid) over %lld rows"
              " (b = %d) ==\n",
              static_cast<long long>(rows), kB);
  std::printf("%-38s %10s %12s %10s\n", "mode", "ms", "rows/s", "speedup");

  // One untimed warm-up first: the 1-thread run would otherwise absorb lazy
  // thread-pool growth, page faults, and allocator warm-up as the first
  // query on a fresh database, inflating every speedup below.
  db->set_num_threads(1);
  (void)db->Execute(sql);

  double serial = 0.0;
  for (int threads : {1, 2, 4, 8}) {
    db->set_num_threads(threads);
    double ms = bench::TimeMs([&] { (void)db->Execute(sql); });
    if (threads == 1) serial = ms;
    const std::string label = "row-addressed vectorized @" +
                              std::to_string(threads) +
                              (threads == 1 ? " thread" : " threads");
    std::printf("%-38s %10.1f %11.2fM %9.2fx\n", label.c_str(), ms,
                static_cast<double>(rows) / ms / 1e3, serial / ms);
    bench::BenchJsonRecord("aqp sweep: group by (g, sid)", "vectorized", ms,
                           threads);
  }
  db->set_num_threads(1);
}

struct Shape {
  const char* name;
  std::string none_sql;      // no error estimation
  std::string verdict_sql;   // original user query (VerdictDB rewrites it)
};

double RunTraditionalFlat(engine::Database* db, const std::string& sample,
                          const std::string& agg_arg, int64_t n) {
  return bench::TimeMs([&] {
    // Subsample construction: b scans of the sample (the O(b*n) part).
    (void)db->Execute("drop table if exists __ss");
    (void)db->Execute("create table __ss as select *, 1 as __sid from " +
                      sample + " where rand() < " +
                      std::to_string(1.0 / kB));
    for (int j = 2; j <= kB; ++j) {
      (void)db->Execute("insert into __ss select *, " + std::to_string(j) +
                        " as __sid from " + sample + " where rand() < " +
                        std::to_string(1.0 / kB));
    }
    // Query 1: one case-guarded sum per subsample.
    std::string q = "select ";
    for (int j = 1; j <= kB; ++j) {
      if (j > 1) q += ", ";
      q += "sum(" + agg_arg + " * (case when __sid = " + std::to_string(j) +
           " then 1.0 else 0.0 end)) as s" + std::to_string(j);
    }
    q += " from __ss";
    (void)db->Execute(q);
    (void)n;
  });
}

double RunConsolidatedFlat(engine::Database* db, const std::string& sample,
                           const std::string& agg_arg) {
  return bench::TimeMs([&] {
    std::string q = "select ";
    for (int j = 1; j <= kB; ++j) {
      if (j > 1) q += ", ";
      q += "sum(" + agg_arg + " * rand_poisson() + 0.0 * " +
           std::to_string(j) + ") as s" + std::to_string(j);
    }
    q += " from " + sample;
    (void)db->Execute(q);
  });
}

}  // namespace

int main(int argc, char** argv) {
  // --smoke (CI sanitizer jobs): a reduced end-to-end AQP thread-sweep
  // only — sample prep + the rewritten variational query at 1/2/4/8
  // threads — small enough to finish promptly under TSan/ASan.
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  bench::BenchJsonInit("fig7", argc, argv);
  if (smoke) {
    engine::Database db(808);
    const int64_t n = 60000;
    if (!workload::GenerateSynthetic(&db, "sweep", n, 19).ok()) return 1;
    RunAqpThreadSweep(&db, "sweep", n);
    core::VerdictOptions opts;
    opts.min_rows_for_sampling = 10000;
    opts.io_budget = 0.2;
    core::VerdictContext ctx(&db, driver::EngineKind::kGeneric, opts);
    if (!ctx.sample_builder().CreateUniformSample("sweep", 0.1).ok()) {
      return 1;
    }
    for (int threads : {1, 2, 8}) {
      ctx.options().num_threads = threads;
      core::VerdictContext::ExecInfo info;
      double ms = bench::TimeMs([&] {
        (void)ctx.Execute(
            "select g10, sum(value) as s from sweep group by g10", &info);
      });
      std::printf("middleware AQP e2e @%d threads: %.1f ms (%s)\n", threads,
                  ms, info.approximated ? "approx" : "EXACT!");
      if (!info.approximated) return 1;
    }
    bench::BenchJsonWrite();
    return 0;
  }

  engine::Database db(808);
  const int64_t n = 400000;
  if (!workload::GenerateSynthetic(&db, "big", n, 17).ok()) return 1;
  // Second table for the join shape.
  if (!workload::GenerateSynthetic(&db, "big2", n / 4, 18).ok()) return 1;

  core::VerdictOptions opts;
  opts.min_rows_for_sampling = 10000;
  opts.io_budget = 0.2;
  core::VerdictContext ctx(&db, driver::EngineKind::kGeneric, opts);
  if (!ctx.sample_builder().CreateHashedSample("big", "id", 0.10).ok() ||
      !ctx.sample_builder().CreateHashedSample("big2", "id", 0.10).ok() ||
      !ctx.sample_builder().CreateUniformSample("big", 0.05).ok()) {
    return 1;
  }

  std::printf("== Figure 7: error-estimation cost, all methods in SQL"
              " (b = %d) ==\n", kB);
  std::printf("%-8s %10s %12s %14s %14s\n", "shape", "none(ms)",
              "variational", "traditional", "consolidated");

  // ---- flat ---------------------------------------------------------------
  {
    double none = bench::TimeMs([&] {
      (void)db.Execute(
          "select sum(value / verdict_prob) as s from big_vdb_uniform");
    });
    core::VerdictContext::ExecInfo info;
    double vdb = bench::TimeMs([&] {
      (void)ctx.Execute("select sum(value) as s from big", &info);
    });
    double trad = RunTraditionalFlat(&db, "big_vdb_uniform", "value", n);
    double cons = RunConsolidatedFlat(&db, "big_vdb_uniform", "value");
    std::printf("%-8s %10.1f %12.1f %14.1f %14.1f   (%s)\n", "flat", none,
                vdb, trad, cons, info.approximated ? "approx" : "EXACT!");
    bench::BenchJsonRecord("fig7 flat", "none", none, 1);
    bench::BenchJsonRecord("fig7 flat", "variational", vdb, 1);
    bench::BenchJsonRecord("fig7 flat", "traditional", trad, 1);
    bench::BenchJsonRecord("fig7 flat", "consolidated", cons, 1);
  }
  // ---- join ---------------------------------------------------------------
  {
    // Materialize the joined universe sample once; the estimation methods
    // then operate on it (trad/consolidated pay O(b*n) on top).
    (void)db.Execute("drop table if exists __joined");
    (void)db.Execute(
        "create table __joined as select a.value as v, a.verdict_prob as p"
        " from big_vdb_hashed_id a inner join big2_vdb_hashed_id b"
        " on a.id = b.id");
    double none = bench::TimeMs([&] {
      (void)db.Execute("select sum(v / p) as s from __joined");
    });
    core::VerdictContext::ExecInfo info;
    double vdb = bench::TimeMs([&] {
      (void)ctx.Execute(
          "select sum(a.value) as s from big a inner join big2 b"
          " on a.id = b.id",
          &info);
    });
    double trad = RunTraditionalFlat(&db, "__joined", "v", n);
    double cons = RunConsolidatedFlat(&db, "__joined", "v");
    std::printf("%-8s %10.1f %12.1f %14.1f %14.1f   (%s)\n", "join", none,
                vdb, trad, cons, info.approximated ? "approx" : "EXACT!");
    bench::BenchJsonRecord("fig7 join", "none", none, 1);
    bench::BenchJsonRecord("fig7 join", "variational", vdb, 1);
    bench::BenchJsonRecord("fig7 join", "traditional", trad, 1);
    bench::BenchJsonRecord("fig7 join", "consolidated", cons, 1);
  }
  // ---- nested -------------------------------------------------------------
  {
    double none = bench::TimeMs([&] {
      (void)db.Execute(
          "select avg(s) as a from (select g100, sum(value / verdict_prob)"
          " as s from big_vdb_uniform group by g100) as t");
    });
    core::VerdictContext::ExecInfo info;
    double vdb = bench::TimeMs([&] {
      (void)ctx.Execute(
          "select avg(s) as a from (select g100, sum(value) as s from big"
          " group by g100) as t",
          &info);
    });
    // Traditional nested: the paper's Query 6 — one grouped select per sid.
    (void)db.Execute("drop table if exists __vt");
    (void)db.Execute("create table __vt as select *, 1 + floor(rand() * " +
                     std::to_string(kB) +
                     ") as __sid from big_vdb_uniform");
    double trad = bench::TimeMs([&] {
      for (int j = 1; j <= kB; ++j) {
        (void)db.Execute(
            "select avg(s) as a from (select g100, sum(value / verdict_prob)"
            " as s from __vt where __sid = " +
            std::to_string(j) + " group by g100) as t");
      }
    });
    double cons = bench::TimeMs([&] {
      for (int j = 1; j <= kB; ++j) {
        (void)db.Execute(
            "select avg(s) as a from (select g100,"
            " sum(value * rand_poisson() / verdict_prob) as s"
            " from big_vdb_uniform group by g100) as t");
      }
    });
    std::printf("%-8s %10.1f %12.1f %14.1f %14.1f   (%s)\n", "nested", none,
                vdb, trad, cons, info.approximated ? "approx" : "EXACT!");
    bench::BenchJsonRecord("fig7 nested", "none", none, 1);
    bench::BenchJsonRecord("fig7 nested", "variational", vdb, 1);
    bench::BenchJsonRecord("fig7 nested", "traditional", trad, 1);
    bench::BenchJsonRecord("fig7 nested", "consolidated", cons, 1);
  }
  std::printf("expected shape: variational within a small factor of 'none';"
              " traditional/consolidated ~b times slower\n");

  // ---- AQP thread sweep (the unpinned rand() hot path) --------------------
  {
    engine::Database sweep_db(909);
    const int64_t sweep_n = 1000000;
    if (!workload::GenerateSynthetic(&sweep_db, "sweep", sweep_n, 19).ok()) {
      return 1;
    }
    RunAqpThreadSweep(&sweep_db, "sweep", sweep_n);
    std::printf("expected shape: scaling with threads\n");
  }
  bench::BenchJsonWrite();
  return 0;
}
