// Micro-benchmark: row-at-a-time (the test oracle in tests/oracle/) vs.
// batch (vectorized) predicate evaluation on a 1M-row table, plus the
// morsel-driven parallel scan-and-aggregate scale-up at 1/2/4/8 threads.
// Acceptance bars: >= 3x batch vs row throughput on the numeric filter, and
// >= 2.5x at 4 threads vs 1 thread on the filter+sum workload (on hardware
// with >= 4 cores).

#include <cmath>
#include <cstdio>
#include <cstring>

#include "bench_util.h"
#include "common/random.h"
#include "engine/database.h"
#include "engine/kernels/bitmap.h"
#include "engine/kernels/kernels.h"
#include "engine/table.h"
#include "engine/vector_eval.h"
#include "oracle/row_interpreter.h"
#include "sql/ast.h"
#include "sql/printer.h"

namespace vdb::bench {
namespace {

using engine::Batch;
using engine::Column;
using engine::EvalPredicate;
using engine::EvalPredicateBatch;
using engine::RowCtx;
using engine::SelVector;
using engine::Table;
using engine::TablePtr;
using sql::BinaryOp;
using sql::Expr;

constexpr size_t kRows = 1'000'000;
constexpr int kReps = 5;

TablePtr BuildTable(Rng* rng) {
  std::vector<int64_t> ids(kRows), qtys(kRows);
  std::vector<double> prices(kRows);
  for (size_t r = 0; r < kRows; ++r) {
    ids[r] = static_cast<int64_t>(r);
    qtys[r] = rng->NextInRange(0, 99);
    prices[r] = rng->NextDouble() * 1000.0;
  }
  auto t = std::make_shared<Table>();
  t->AddColumn("id", Column::FromData(TypeId::kInt64, std::move(ids), {}, {},
                                      {}));
  t->AddColumn("price", Column::FromData(TypeId::kDouble, {},
                                         std::move(prices), {}, {}));
  t->AddColumn("qty", Column::FromData(TypeId::kInt64, std::move(qtys), {},
                                       {}, {}));
  return t;
}

Expr::Ptr Ref(const Table& t, const std::string& name) {
  auto e = sql::MakeColumnRef("", name);
  e->bound_column = t.ColumnIndex(name);
  return e;
}

struct Case {
  const char* label;
  Expr::Ptr pred;
};

void RunCase(const Table& t, const Expr& pred, const char* label) {
  size_t row_hits = 0, batch_hits = 0;

  double row_ms = 1e300;
  for (int rep = 0; rep < kReps; ++rep) {
    row_ms = std::min(row_ms, TimeMs([&] {
      SelVector sel;
      for (size_t r = 0; r < t.num_rows(); ++r) {
        RowCtx ctx{&t, r, /*rand_seed=*/1};
        auto pass = EvalPredicate(pred, ctx);
        if (pass.ok() && pass.value()) sel.push_back(static_cast<uint32_t>(r));
      }
      row_hits = sel.size();
    }));
  }

  double batch_ms = 1e300;
  for (int rep = 0; rep < kReps; ++rep) {
    batch_ms = std::min(batch_ms, TimeMs([&] {
      SelVector sel;
      Batch batch{&t, nullptr, /*rand_seed=*/1};
      (void)EvalPredicateBatch(pred, batch, &sel);
      batch_hits = sel.size();
    }));
  }

  BenchJsonRecord(std::string("predicate: ") + label, "row", row_ms, 1);
  BenchJsonRecord(std::string("predicate: ") + label, "batch", batch_ms, 1);
  const double row_rps = static_cast<double>(kRows) / (row_ms / 1000.0);
  const double batch_rps = static_cast<double>(kRows) / (batch_ms / 1000.0);
  std::printf("%-34s %10.1f %12.2fM %10.2f %12.2fM %8.1fx  %s\n", label,
              row_ms, row_rps / 1e6, batch_ms, batch_rps / 1e6,
              row_ms / batch_ms,
              row_hits == batch_hits ? "ok" : "MISMATCH");
}

/// Gather cost: eager vs late materialization on a 1M-row filter→project
/// path over a wide table (id, price, qty + 4 payload columns). Eager
/// gathers the WHERE survivors into a fresh full-width table and projects
/// from it — the pre-RowView pipeline, which pays for payload columns the
/// query never outputs. Late carries a (table, SelVector) RowView and the
/// projection's per-column gathers are the only materialization.
void RunGatherCost(Rng* rng) {
  const size_t rows = kRows;
  std::vector<int64_t> ids(rows), qtys(rows);
  std::vector<double> prices(rows), p1(rows), p2(rows), p3(rows);
  std::vector<std::string> tags(rows);
  static const char* kTags[] = {"alpha", "bravo", "charlie", "delta"};
  for (size_t r = 0; r < rows; ++r) {
    ids[r] = static_cast<int64_t>(r);
    qtys[r] = rng->NextInRange(0, 99);
    prices[r] = rng->NextDouble() * 1000.0;
    p1[r] = rng->NextDouble();
    p2[r] = rng->NextDouble();
    p3[r] = rng->NextDouble();
    tags[r] = kTags[r % 4];
  }
  auto t = std::make_shared<Table>();
  t->AddColumn("id", Column::FromData(TypeId::kInt64, std::move(ids), {}, {}, {}));
  t->AddColumn("price",
               Column::FromData(TypeId::kDouble, {}, std::move(prices), {}, {}));
  t->AddColumn("qty", Column::FromData(TypeId::kInt64, std::move(qtys), {}, {}, {}));
  t->AddColumn("pay1", Column::FromData(TypeId::kDouble, {}, std::move(p1), {}, {}));
  t->AddColumn("pay2", Column::FromData(TypeId::kDouble, {}, std::move(p2), {}, {}));
  t->AddColumn("pay3", Column::FromData(TypeId::kDouble, {}, std::move(p3), {}, {}));
  t->AddColumn("tag",
               Column::FromData(TypeId::kString, {}, {}, std::move(tags), {}));

  auto pred = sql::MakeBinary(BinaryOp::kGt, Ref(*t, "price"),
                              sql::MakeDoubleLit(500.0));
  auto out_expr = sql::MakeBinary(
      BinaryOp::kMul, Ref(*t, "price"),
      sql::MakeBinary(BinaryOp::kAdd, Ref(*t, "qty"), sql::MakeIntLit(1)));

  SelVector sel;
  Batch batch{t.get(), nullptr, /*rand_seed=*/3};
  (void)EvalPredicateBatch(*pred, batch, &sel);

  size_t eager_rows = 0, late_rows = 0;
  double eager_ms = 1e300, late_ms = 1e300;
  for (int rep = 0; rep < kReps; ++rep) {
    eager_ms = std::min(eager_ms, TimeMs([&] {
      // Full-width intermediate gather (all 7 columns), then project.
      auto filtered = t->CloneSchema();
      filtered->AppendSelected(*t, sel);
      auto out = std::make_shared<Table>();
      out->AddColumn("id", filtered->column(0));
      Batch fb{filtered.get(), nullptr, /*rand_seed=*/3};
      auto col = EvalExprBatch(*out_expr, fb);
      if (col.ok()) out->AddColumn("e", std::move(col).ValueOrDie());
      eager_rows = out->num_rows();
    }));
    late_ms = std::min(late_ms, TimeMs([&] {
      // View pipeline: the projection's column gathers are the only
      // materialization; payload columns are never touched.
      auto view = engine::RowView::Select(t, sel);
      if (!view.ok()) return;
      auto out = std::make_shared<Table>();
      out->AddColumn("id", view.value().GatherColumn(t->column(0)));
      auto col = engine::EvalExprView(*out_expr, view.value(), /*rand_seed=*/3, 1);
      if (col.ok()) out->AddColumn("e", std::move(col).ValueOrDie());
      late_rows = out->num_rows();
    }));
  }

  PrintHeader(
      "micro: gather cost, eager vs late materialization (1M-row wide-table "
      "filter->project, ~50% selectivity)");
  std::printf("%-34s %10s %13s %9s\n", "pipeline", "ms", "rows/s", "speedup");
  std::printf("%-34s %10.1f %12.2fM %9s\n", "eager (full-width gather)",
              eager_ms, static_cast<double>(rows) / (eager_ms / 1000.0) / 1e6,
              "1.0x");
  std::printf("%-34s %10.1f %12.2fM %8.1fx  %s\n", "late (RowView, gather once)",
              late_ms, static_cast<double>(rows) / (late_ms / 1000.0) / 1e6,
              eager_ms / late_ms,
              eager_rows == late_rows ? "ok" : "MISMATCH");
}

/// Dispatch-kernel sweep: the same 1M-row kernel timed at every available
/// SIMD level (SetSimdLevelForTest swaps the dispatch table in place), with
/// a checksum cross-check — the AVX2 lanes must be bit-identical to the
/// scalar reference, so any speedup is pure execution, not semantics.
void RunSimdKernels(Rng* rng) {
  namespace k = engine::kernels;
  const size_t n = kRows;
  std::vector<double> da(n), db(n), dout(n);
  std::vector<int64_t> ia(n), ib(n);
  std::vector<int64_t> iout(n);
  std::vector<uint64_t> h(n);
  for (size_t r = 0; r < n; ++r) {
    da[r] = rng->NextDouble() * 1000.0;
    db[r] = rng->NextDouble() * 1000.0;
    ia[r] = rng->NextInRange(0, 1'000'000);
    ib[r] = rng->NextInRange(0, 1'000'000);
  }
  k::Bitmap bits;
  bits.ResetForOverwrite(n);

  struct KernelCase {
    const char* label;
    std::function<uint64_t()> run;  // returns a checksum
  };
  auto bits_sum = [&]() {
    uint64_t s = 0;
    for (size_t w = 0; w < bits.num_words(); ++w) s += bits.word(w);
    return s;
  };
  std::vector<KernelCase> cases;
  cases.push_back({"cmp_f64_vc: a < 500.0", [&] {
                     k::Ops().cmp_f64_vc(k::CmpOp::kLt, da.data(), 500.0, n,
                                         bits.words());
                     return bits_sum();
                   }});
  cases.push_back({"cmp_i64_vv: a < b", [&] {
                     k::Ops().cmp_i64_vv(k::CmpOp::kLt, ia.data(), ib.data(),
                                         n, bits.words());
                     return bits_sum();
                   }});
  cases.push_back({"arith_f64_vv: a * b", [&] {
                     k::Ops().arith_f64_vv(k::ArithOp::kMul, da.data(),
                                           db.data(), n, dout.data());
                     uint64_t s;
                     std::memcpy(&s, &dout[n - 1], sizeof(s));
                     return s;
                   }});
  cases.push_back({"arith_i64_vc: a + 7", [&] {
                     k::Ops().arith_i64_vc(k::ArithOp::kAdd, ia.data(), 7, n,
                                           iout.data());
                     return static_cast<uint64_t>(iout[n - 1]);
                   }});
  cases.push_back({"rand_f64_seq (CounterRandom)", [&] {
                     k::Ops().rand_f64_seq(/*seed=*/42, /*row0=*/0,
                                           /*site=*/1, n, dout.data());
                     uint64_t s;
                     std::memcpy(&s, &dout[n - 1], sizeof(s));
                     return s;
                   }});
  cases.push_back({"hash_mix_i64 (group/join keys)", [&] {
                     std::fill(h.begin(), h.end(), 0x2545F4914F6CDD1Dull);
                     k::Ops().hash_mix_i64(h.data(), ia.data(), nullptr,
                                           /*null_hash=*/0, n);
                     return h[n - 1];
                   }});

  PrintHeader(
      "micro: dispatch kernels, scalar vs AVX2 (1M rows, identical results "
      "required)");
  std::printf("%-34s %12s %12s %9s  %s\n", "kernel", "scalar ms", "simd ms",
              "speedup", "");
  const bool have_avx2 =
      engine::kernels::DetectedSimdLevel() != k::SimdLevel::kScalar;
  for (auto& c : cases) {
    uint64_t scalar_sum = 0, simd_sum = 0;
    k::SetSimdLevelForTest(k::SimdLevel::kScalar);
    const double scalar_ms = TimeMedianMs(kReps, [&] { scalar_sum = c.run(); });
    BenchJsonRecord(c.label, "scalar", scalar_ms, 1);
    if (!have_avx2) {
      std::printf("%-34s %12.2f %12s %9s  (no AVX2 on this host)\n", c.label,
                  scalar_ms, "-", "-");
      continue;
    }
    k::SetSimdLevelForTest(k::SimdLevel::kAvx2);
    const double simd_ms = TimeMedianMs(kReps, [&] { simd_sum = c.run(); });
    k::SetSimdLevelForTest(k::DetectedSimdLevel());
    BenchJsonRecord(c.label, "avx2", simd_ms, 1);
    std::printf("%-34s %12.2f %12.2f %8.1fx  %s\n", c.label, scalar_ms,
                simd_ms, scalar_ms / simd_ms,
                scalar_sum == simd_sum ? "ok" : "MISMATCH");
  }
  k::SetSimdLevelForTest(k::DetectedSimdLevel());
}

/// Thread scale-up on the engine's full execution path: parse, morsel-
/// parallel WHERE, column-parallel materialization, parallel partial
/// aggregation with morsel-order merge.
void RunThreadSweep(TablePtr t) {
  engine::Database db(7);
  if (!db.RegisterTable("t", t).ok()) return;
  const char* sql =
      "select sum(price) as sp, sum(price * qty) as spq, count(*) as c "
      "from t where price > 500 and qty < 50";

  PrintHeader(
      "micro: morsel-parallel filter+sum scale-up (1M rows, full engine "
      "path)");
  std::printf("%-10s %10s %13s %10s  %s\n", "threads", "ms", "rows/s",
              "scaleup", "vs 1-thread result");

  double base_ms = 0.0;
  double base_sum = 0.0;
  int64_t base_count = 0;
  for (int threads : {1, 2, 4, 8}) {
    db.set_num_threads(threads);
    double ms = 1e300;
    double sum = 0.0;
    int64_t count = 0;
    bool all_ok = true;
    for (int rep = 0; rep < kReps; ++rep) {
      ms = std::min(ms, TimeMs([&] {
        auto rs = db.Execute(sql);
        if (rs.ok()) {
          sum = rs.value().GetDouble(0, 0);
          count = rs.value().Get(0, 2).AsInt();
        } else {
          all_ok = false;
        }
      }));
    }
    if (!all_ok) {
      std::printf("%-10d ERROR: query failed\n", threads);
      continue;
    }
    if (threads == 1) {
      base_ms = ms;
      base_sum = sum;
      base_count = count;
    }
    const bool same =
        count == base_count &&
        std::abs(sum - base_sum) <= 1e-9 * std::max(1.0, std::abs(base_sum));
    std::printf("%-10d %10.1f %12.2fM %9.2fx  %s\n", threads, ms,
                static_cast<double>(kRows) / (ms / 1000.0) / 1e6, base_ms / ms,
                same ? "ok" : "MISMATCH");
  }
}

}  // namespace
}  // namespace vdb::bench

int main(int argc, char** argv) {
  using namespace vdb;
  using namespace vdb::bench;
  using sql::BinaryOp;

  BenchJsonInit("micro_filter", argc, argv);
  Rng rng(20260729);
  auto t = BuildTable(&rng);

  PrintHeader("micro: predicate evaluation, row-at-a-time vs. batch (1M rows)");
  std::printf("%-34s %10s %13s %10s %13s %9s\n", "predicate", "row ms",
              "row rows/s", "batch ms", "batch rows/s", "speedup");

  {
    auto pred = sql::MakeBinary(
        BinaryOp::kAnd,
        sql::MakeBinary(BinaryOp::kGt, Ref(*t, "price"),
                        sql::MakeDoubleLit(500.0)),
        sql::MakeBinary(BinaryOp::kLt, Ref(*t, "qty"), sql::MakeIntLit(50)));
    RunCase(*t, *pred, "price > 500 and qty < 50");
  }
  {
    auto pred = sql::MakeBinary(BinaryOp::kGt, Ref(*t, "price"),
                                sql::MakeDoubleLit(900.0));
    RunCase(*t, *pred, "price > 900");
  }
  {
    auto pred = sql::MakeBinary(
        BinaryOp::kLt,
        sql::MakeBinary(BinaryOp::kMul, Ref(*t, "price"),
                        sql::MakeBinary(BinaryOp::kAdd, Ref(*t, "qty"),
                                        sql::MakeIntLit(1))),
        sql::MakeDoubleLit(20000.0));
    RunCase(*t, *pred, "price * (qty + 1) < 20000");
  }
  {
    auto in = std::make_unique<sql::Expr>(sql::ExprKind::kInList);
    in->args.push_back(Ref(*t, "qty"));
    in->args.push_back(sql::MakeIntLit(1));
    in->args.push_back(sql::MakeIntLit(17));
    in->args.push_back(sql::MakeIntLit(42));
    RunCase(*t, *in, "qty in (1, 17, 42)");
  }

  RunSimdKernels(&rng);
  RunGatherCost(&rng);
  RunThreadSweep(t);
  BenchJsonWrite();
  return 0;
}
