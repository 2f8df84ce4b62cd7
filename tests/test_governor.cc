// Query governor end-to-end: cooperative cancellation, deadlines, memory
// budgets, and the fault-injection sweep.
//
// The contract under test (docs/INVARIANTS.md, "Cancellation / budget
// contract"):
//   - a tripped guard unwinds every execution stage with a clean Status
//     (kCancelled / kDeadlineExceeded / kResourceExhausted) at 1, 2 and 8
//     threads — no crash, no partial result, no corrupted engine state;
//   - an armed-but-untripped guard is invisible: results are bit-identical
//     to an unguarded run, including row order and rand()-derived values;
//   - budget trips are leak-free (the CI fault-injection leg runs this
//     binary under ASan+UBSan) and a statement that tripped leaves the
//     Database fully usable;
//   - every governed site doubles as a fault point, and injecting a failure
//     at each reachable site produces a clean error, never an abort.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "common/governor.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "core/verdict_context.h"
#include "engine/database.h"
#include "workload/tpch.h"

namespace vdb::engine {
namespace {

constexpr uint64_t kSeed = 20260808;
constexpr size_t kTestMorselRows = 500;

TablePtr BuildOrders(size_t n) {
  Rng rng(kSeed);
  auto t = std::make_shared<Table>();
  t->AddColumn("id", TypeId::kInt64);
  t->AddColumn("city", TypeId::kString);
  t->AddColumn("price", TypeId::kDouble);
  t->AddColumn("k", TypeId::kInt64);
  const char* cities[] = {"ann arbor", "detroit", "chicago", "nyc", "sf"};
  for (size_t r = 0; r < n; ++r) {
    double price = static_cast<double>(rng.NextInRange(0, 4000)) * 0.25;
    t->AppendRow({Value::Int(static_cast<int64_t>(r)),
                  Value::String(cities[rng.NextBounded(5)]),
                  Value::Double(price),
                  Value::Int(rng.NextInRange(0, 60))});
  }
  return t;
}

TablePtr BuildDim() {
  auto t = std::make_shared<Table>();
  t->AddColumn("k", TypeId::kInt64);
  t->AddColumn("label", TypeId::kString);
  for (int64_t k = 0; k < 50; ++k) {
    t->AppendRow({Value::Int(k), Value::String("label_" + std::to_string(k))});
  }
  return t;
}

std::unique_ptr<Database> MakeDb(size_t rows, int num_threads) {
  auto db = std::make_unique<Database>(kSeed);
  db->set_num_threads(num_threads);
  EXPECT_TRUE(db->RegisterTable("orders", BuildOrders(rows)).ok());
  EXPECT_TRUE(db->RegisterTable("dim", BuildDim()).ok());
  return db;
}

// One query per execution stage the governor polls: scan/filter, grouped
// aggregation (all paths), hash join build+probe, a join tree (row-set
// composition and key gathers), non-equi (cross) join, derived table, and
// the row-addressed rand() rewrite shape.
const std::vector<std::string>& WorkloadQueries() {
  static const std::vector<std::string> kQueries = {
      "select id, price from orders where price > 500",
      "select city, count(*) as c, sum(price) as sp from orders "
      "group by city order by city",
      "select d.label, count(*) as c, avg(o.price) as ap from orders o "
      "inner join dim d on o.k = d.k group by d.label order by d.label",
      "select d2.label, sum(o.price) as sp from orders o join dim d1 "
      "on o.k = d1.k join dim d2 on d1.k + 1 = d2.k group by d2.label "
      "order by d2.label",
      "select count(*) as c from orders o inner join dim d on o.k < d.k "
      "where d.k > 47",
      "select count(*) as c from orders o cross join dim d",
      "select city, c from (select city, count(*) as c from orders "
      "group by city) t order by city",
      "select city, sid, count(*) as c from (select *, 1 + floor(rand() * 8) "
      "as sid from orders) t group by city, sid order by city, sid",
  };
  return kQueries;
}

bool IsGovernorCode(StatusCode code) {
  return code == StatusCode::kCancelled ||
         code == StatusCode::kDeadlineExceeded ||
         code == StatusCode::kResourceExhausted;
}

void ExpectBitIdentical(const ResultSet& ref, const ResultSet& got,
                        const std::string& what) {
  ASSERT_EQ(ref.NumCols(), got.NumCols()) << what;
  ASSERT_EQ(ref.NumRows(), got.NumRows()) << what;
  for (size_t r = 0; r < ref.NumRows(); ++r) {
    for (size_t c = 0; c < ref.NumCols(); ++c) {
      ASSERT_TRUE(ref.Get(r, c).Equals(got.Get(r, c)))
          << what << " cell (" << r << "," << c << "): "
          << ref.Get(r, c).ToString() << " vs " << got.Get(r, c).ToString();
    }
  }
}

class GovernorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DisarmAllFaultPoints();
    SetMorselRowsForTest(kTestMorselRows);
  }
  void TearDown() override {
    SetMorselRowsForTest(0);
    DisarmAllFaultPoints();
  }
};

// ---- ExecGuard unit behavior ------------------------------------------------

TEST_F(GovernorTest, GuardStartsDisarmedAndPollsOk) {
  ExecGuard g;
  EXPECT_TRUE(g.Check("unit").ok());
  EXPECT_TRUE(g.TryReserve(1 << 20, "unit").ok());
  EXPECT_EQ(g.reserved_bytes(), static_cast<uint64_t>(1 << 20));
  g.Release(1 << 20);
  EXPECT_EQ(g.reserved_bytes(), 0u);
}

TEST_F(GovernorTest, CancelTripsEveryPollAndNamesTheSite) {
  ExecGuard g;
  g.RequestCancel();
  const Status s = g.Check("join_probe");
  EXPECT_EQ(s.code(), StatusCode::kCancelled);
  EXPECT_NE(s.message().find("join_probe"), std::string::npos) << s.message();
  // TryReserve polls first: a cancelled guard charges nothing.
  EXPECT_EQ(g.TryReserve(64, "join_probe").code(), StatusCode::kCancelled);
  EXPECT_EQ(g.reserved_bytes(), 0u);
  g.ResetForStatement();
  EXPECT_TRUE(g.Check("join_probe").ok());
}

TEST_F(GovernorTest, DeadlineTripsAfterItPasses) {
  ExecGuard g;
  g.set_deadline_after_ms(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(3));
  const Status s = g.Check("agg_partial");
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(s.message().find("agg_partial"), std::string::npos);
  g.set_deadline_after_ms(0);  // disarm
  EXPECT_TRUE(g.Check("agg_partial").ok());
}

TEST_F(GovernorTest, BudgetChargesExactlyAndTripsWithoutCharging) {
  ExecGuard g;
  g.set_memory_budget_bytes(1000);
  EXPECT_TRUE(g.TryReserve(600, "a").ok());
  const Status s = g.TryReserve(600, "b");
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(s.message().find("b"), std::string::npos);
  EXPECT_EQ(g.reserved_bytes(), 600u);  // the failed reserve charged nothing
  EXPECT_TRUE(g.TryReserve(400, "c").ok());
  EXPECT_EQ(g.peak_reserved_bytes(), 1000u);
  g.Release(1000);
  g.Release(1 << 30);  // saturating: over-release never underflows
  EXPECT_EQ(g.reserved_bytes(), 0u);
  EXPECT_EQ(g.peak_reserved_bytes(), 1000u);  // peak survives releases
  g.ResetForStatement();
  EXPECT_EQ(g.peak_reserved_bytes(), 0u);
  EXPECT_EQ(g.memory_budget_bytes(), 1000u);  // budget survives re-arming
}

TEST_F(GovernorTest, ScopedReservationReleasesAndReportsFailure) {
  ExecGuard g;
  g.set_memory_budget_bytes(100);
  {
    ScopedReservation ok(&g, 80, "scratch");
    EXPECT_TRUE(ok.status().ok());
    EXPECT_EQ(g.reserved_bytes(), 80u);
    ScopedReservation fail(&g, 80, "scratch");
    EXPECT_EQ(fail.status().code(), StatusCode::kResourceExhausted);
    EXPECT_EQ(g.reserved_bytes(), 80u);  // failed charge stays zero
  }
  EXPECT_EQ(g.reserved_bytes(), 0u);  // both released on scope exit
  // Null guard: free, always ok.
  ScopedReservation null_guard(nullptr, 1 << 30, "scratch");
  EXPECT_TRUE(null_guard.status().ok());
}

// ---- whole-statement unwinding at 1 / 2 / 8 threads -------------------------

TEST_F(GovernorTest, CancelUnwindsEveryStageAtEveryThreadCount) {
  for (int threads : {1, 2, 8}) {
    auto db = MakeDb(4001, threads);
    ExecGuard guard;
    for (const std::string& sql : WorkloadQueries()) {
      guard.ResetForStatement();
      guard.RequestCancel();
      auto got = db->Execute(sql, &guard);
      ASSERT_FALSE(got.ok()) << sql << " @" << threads;
      EXPECT_EQ(got.status().code(), StatusCode::kCancelled)
          << sql << " @" << threads << " -> " << got.status().ToString();
      // The aborted statement must leave the Database fully usable.
      guard.ResetForStatement();
      auto again = db->Execute(sql, &guard);
      ASSERT_TRUE(again.ok())
          << sql << " @" << threads << " -> " << again.status().ToString();
    }
  }
}

TEST_F(GovernorTest, DeadlineUnwindsEveryStageAtEveryThreadCount) {
  for (int threads : {1, 2, 8}) {
    auto db = MakeDb(4001, threads);
    ExecGuard guard;
    for (const std::string& sql : WorkloadQueries()) {
      guard.ResetForStatement();
      guard.set_deadline_after_ms(1);
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
      auto got = db->Execute(sql, &guard);
      ASSERT_FALSE(got.ok()) << sql << " @" << threads;
      EXPECT_EQ(got.status().code(), StatusCode::kDeadlineExceeded)
          << sql << " @" << threads << " -> " << got.status().ToString();
    }
    guard.set_deadline_after_ms(0);
  }
}

TEST_F(GovernorTest, TinyBudgetTripsRowProportionalStagesCleanly) {
  // 4001 orders rows: the join's key-hash scratch alone wants ~36 KB, the
  // probe's pair lists more; a 1 KB budget must trip them all with
  // kResourceExhausted and charge nothing durable (ASan leg proves
  // leak-free).
  for (int threads : {1, 2, 8}) {
    auto db = MakeDb(4001, threads);
    ExecGuard guard;
    guard.set_memory_budget_bytes(1024);
    int tripped = 0;
    for (const std::string& sql : WorkloadQueries()) {
      guard.ResetForStatement();
      auto got = db->Execute(sql, &guard);
      if (got.ok()) continue;  // stages with no row-proportional reserve
      EXPECT_EQ(got.status().code(), StatusCode::kResourceExhausted)
          << sql << " @" << threads << " -> " << got.status().ToString();
      ++tripped;
    }
    EXPECT_GT(tripped, 0) << "@" << threads;
    // A generous budget on the same guard runs the whole workload again.
    guard.set_memory_budget_bytes(1ull << 32);
    for (const std::string& sql : WorkloadQueries()) {
      guard.ResetForStatement();
      auto got = db->Execute(sql, &guard);
      ASSERT_TRUE(got.ok())
          << sql << " @" << threads << " -> " << got.status().ToString();
    }
    EXPECT_GT(guard.peak_reserved_bytes(), 0u);
  }
}

// ---- armed-but-untripped guard: bit-identity --------------------------------

TEST_F(GovernorTest, UntrippedGuardIsBitIdenticalToUnguardedRun) {
  for (int threads : {1, 2, 8}) {
    for (const std::string& sql : WorkloadQueries()) {
      // Identical databases so NewQuerySeed draws match run for run.
      auto ref_db = MakeDb(4001, threads);
      auto ref = ref_db->Execute(sql);
      ASSERT_TRUE(ref.ok()) << sql << " -> " << ref.status().ToString();

      auto db = MakeDb(4001, threads);
      ExecGuard guard;
      guard.set_memory_budget_bytes(1ull << 40);
      guard.set_deadline_after_ms(10l * 60 * 1000);
      auto got = db->Execute(sql, &guard);
      ASSERT_TRUE(got.ok()) << sql << " -> " << got.status().ToString();
      ExpectBitIdentical(ref.value(), got.value(),
                         sql + " @" + std::to_string(threads));
    }
  }
}

// ---- concurrent-statement isolation -----------------------------------------

TEST_F(GovernorTest, DoomedStatementDoesNotPerturbConcurrentOnes) {
  // Two guards, one shared Database: thread A's pre-cancelled statements
  // must never leak into thread B's ungoverned exact results. (The CI TSan
  // job runs this suite; see also ParallelTest.SharedDatabaseConcurrentSelects.)
  auto db = MakeDb(4001, 4);
  const std::string sql =
      "select city, count(*) as c, sum(price) as sp from orders "
      "group by city order by city";
  auto ref = db->Execute(sql);
  ASSERT_TRUE(ref.ok());

  constexpr int kIters = 15;
  int cancelled_bad = 0, clean_bad = 0;
  std::thread doomed([&]() {
    ExecGuard guard;
    for (int i = 0; i < kIters; ++i) {
      guard.ResetForStatement();
      guard.RequestCancel();
      auto got = db->Execute(sql, &guard);
      if (got.ok() || got.status().code() != StatusCode::kCancelled) {
        ++cancelled_bad;
      }
    }
  });
  std::thread clean([&]() {
    for (int i = 0; i < kIters; ++i) {
      auto got = db->Execute(sql);
      if (!got.ok() || got.value().NumRows() != ref.value().NumRows()) {
        ++clean_bad;
        continue;
      }
      for (size_t r = 0; r < ref.value().NumRows(); ++r) {
        for (size_t c = 0; c < ref.value().NumCols(); ++c) {
          if (!ref.value().Get(r, c).Equals(got.value().Get(r, c))) {
            ++clean_bad;
          }
        }
      }
    }
  });
  doomed.join();
  clean.join();
  EXPECT_EQ(cancelled_bad, 0);
  EXPECT_EQ(clean_bad, 0);
}

// ---- fault-injection sweep --------------------------------------------------

TEST_F(GovernorTest, FaultSweepEveryReachableSiteFailsClean) {
  auto db = MakeDb(4001, 4);

  // Pass 1: observation mode discovers which governed sites this workload
  // actually reaches (fault points fire even for ungoverned statements).
  SetFaultObservationForTest(true);
  for (const std::string& sql : WorkloadQueries()) {
    auto got = db->Execute(sql);
    ASSERT_TRUE(got.ok()) << sql << " -> " << got.status().ToString();
  }
  SetFaultObservationForTest(false);
  const std::vector<std::string> sites = ObservedFaultSites();
  ASSERT_FALSE(sites.empty());
  // The stages the tentpole governs must all be represented.
  for (const char* must : {"agg_partial", "join_build", "join_probe",
                           "gather", "gather_alloc", "join_rows",
                           "join_rows_alloc", "cross_join"}) {
    EXPECT_NE(std::find(sites.begin(), sites.end(), must), sites.end())
        << "workload never reached governed site " << must;
  }

  // Pass 2: arm each site to fail on its first hit; every query either
  // avoids the site or unwinds with the injected status — never a crash.
  for (const std::string& site : sites) {
    DisarmAllFaultPoints();
    ArmFaultPointNth(site, 1, StatusCode::kResourceExhausted);
    int failed = 0;
    for (const std::string& sql : WorkloadQueries()) {
      auto got = db->Execute(sql);
      if (got.ok()) continue;
      EXPECT_EQ(got.status().code(), StatusCode::kResourceExhausted)
          << site << " / " << sql << " -> " << got.status().ToString();
      EXPECT_NE(got.status().message().find(site), std::string::npos)
          << got.status().ToString();
      ++failed;
    }
    EXPECT_GT(failed, 0) << "armed site " << site << " never fired";
  }

  // Pass 3: disarmed again, the workload runs clean.
  DisarmAllFaultPoints();
  for (const std::string& sql : WorkloadQueries()) {
    auto got = db->Execute(sql);
    ASSERT_TRUE(got.ok()) << sql << " -> " << got.status().ToString();
  }
}

// ---- join gather accounting -------------------------------------------------

TEST_F(GovernorTest, JoinGatherChargesOnlyReferencedColumns) {
  // A join over a wide table that references two of its columns gathers,
  // and charges, only the columns the statement names. It must run under a
  // budget below the full-width gather's footprint.
  constexpr size_t kRows = 4001;
  auto wide = std::make_shared<Table>();
  wide->AddColumn("k", TypeId::kInt64);
  wide->AddColumn("v", TypeId::kDouble);
  for (int c = 0; c < 8; ++c) {
    wide->AddColumn("n" + std::to_string(c), TypeId::kDouble);
    wide->AddColumn("s" + std::to_string(c), TypeId::kString);
  }
  Rng rng(kSeed);
  for (size_t r = 0; r < kRows; ++r) {
    std::vector<Value> row = {Value::Int(rng.NextInRange(0, 60)),
                              Value::Double(static_cast<double>(r) * 0.5)};
    for (int c = 0; c < 8; ++c) {
      row.push_back(Value::Double(rng.NextDouble()));
      row.push_back(Value::String("pad_" + std::to_string(r % 97)));
    }
    wide->AppendRow(row);
  }
  const TablePtr dim = BuildDim();
  const uint64_t per_pair = wide->ApproxBytes() / wide->num_rows() +
                            dim->ApproxBytes() / dim->num_rows();

  for (int threads : {1, 2, 8}) {
    auto db = MakeDb(kRows, threads);
    ASSERT_TRUE(db->RegisterTable("wide", wide).ok());
    const std::string sql =
        "select sum(w.v) as s from wide w join dim d on w.k = d.k";
    auto pairs = db->Execute(
        "select count(*) as c from wide w join dim d on w.k = d.k");
    ASSERT_TRUE(pairs.ok()) << pairs.status().ToString();
    const uint64_t full_width =
        per_pair * static_cast<uint64_t>(pairs.value().Get(0, 0).AsInt());
    ASSERT_GT(full_width, 0u);
    auto ref = db->Execute(sql);
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();

    ExecGuard guard;
    guard.set_memory_budget_bytes(1ull << 40);
    auto open = db->Execute(sql, &guard);
    ASSERT_TRUE(open.ok()) << open.status().ToString();
    EXPECT_LT(guard.peak_reserved_bytes(), full_width) << "@" << threads;

    guard.ResetForStatement();
    guard.set_memory_budget_bytes(full_width / 2);
    auto tight = db->Execute(sql, &guard);
    ASSERT_TRUE(tight.ok()) << "@" << threads << " budget " << full_width / 2
                            << " -> " << tight.status().ToString();
    ExpectBitIdentical(ref.value(), tight.value(),
                       sql + " @" + std::to_string(threads));
  }

  // The join's gather still polls its governed site. This statement polls
  // "gather" twice, at the join and at the result boundary; a join gather
  // that skipped its poll would leave the second hit unreached.
  auto db = MakeDb(kRows, 4);
  ArmFaultPointNth("gather", 2, StatusCode::kResourceExhausted);
  auto got = db->Execute(
      "select d.label, o.price from orders o join dim d on o.k = d.k");
  DisarmAllFaultPoints();
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(got.status().message().find("gather"), std::string::npos)
      << got.status().ToString();
}

TEST_F(GovernorTest, FilteredProjectionChargesItsGather) {
  // A filtered SELECT gathers its survivors into new columns, so the
  // projection charges them at "gather_alloc" before materializing: half of
  // lineitem's 30k rows trips a 2 KB budget, and a generous budget leaves
  // the result bit-identical to an ungoverned run. (A filter every row
  // passes leaves the view the identity, which shares the base columns and
  // gathers nothing.)
  const std::string sql = "select * from lineitem where l_quantity > 25";
  for (int threads : {1, 8}) {
    auto make_db = [threads] {
      auto db = std::make_unique<Database>(kSeed);
      db->set_num_threads(threads);
      workload::TpchConfig cfg;
      cfg.scale = 0.05;
      EXPECT_TRUE(workload::GenerateTpch(db.get(), cfg).ok());
      return db;
    };
    const std::string at = "@" + std::to_string(threads);
    auto db = make_db();
    ExecGuard tiny;
    tiny.set_memory_budget_bytes(2048);
    auto tripped = db->Execute(sql, &tiny);
    ASSERT_FALSE(tripped.ok()) << at;
    EXPECT_EQ(tripped.status().code(), StatusCode::kResourceExhausted) << at;
    EXPECT_NE(tripped.status().ToString().find("gather_alloc"),
              std::string::npos)
        << at << " " << tripped.status().ToString();

    ExecGuard generous;
    generous.set_memory_budget_bytes(1ull << 40);
    auto got = db->Execute(sql, &generous);
    ASSERT_TRUE(got.ok()) << at << " " << got.status().ToString();
    EXPECT_GT(got.value().NumRows(), 0u) << at;
    EXPECT_GE(generous.peak_reserved_bytes(), 8 * got.value().NumRows() *
                                                  got.value().NumCols())
        << at;
    auto ref = make_db()->Execute(sql);
    ASSERT_TRUE(ref.ok()) << at;
    ExpectBitIdentical(ref.value(), got.value(), sql + " " + at);
  }
}

TEST_F(GovernorTest, JoinTreeGathersOnceUnderPerLevelFootprint) {
  // A 4-way join tree hands row sets up the tree and gathers once, at the
  // FROM root, only the columns read after the joins (every `label`). A
  // per-level gather would have held, at each level, every referenced
  // column of the relations joined so far: the `k`s the ONs name and the
  // `label`s. The tree must complete under a budget below that footprint,
  // with the composed index vectors ("join_rows_alloc") and the parent
  // joins' transient key gathers ("gather_alloc") charged.
  const std::string sql =
      "select d3.label, count(*) as c, sum(o.price) as sp from orders o "
      "join dim d1 on o.k = d1.k join dim d2 on d1.k = d2.k "
      "join dim d3 on d2.k = d3.k group by d3.label order by d3.label";
  constexpr uint64_t kKey = 8, kLabel = 24;  // ApproxCellBytes
  for (int threads : {1, 2, 8}) {
    auto db = MakeDb(4001, threads);
    auto pairs = db->Execute(
        "select count(*) as c from orders o join dim d on o.k = d.k");
    ASSERT_TRUE(pairs.ok()) << pairs.status().ToString();
    // dim is keyed 1:1, so every level of the tree has the same rows.
    const uint64_t rows = static_cast<uint64_t>(pairs.value().Get(0, 0).AsInt());
    ASSERT_GT(rows, 0u);
    // Per-level gathers: o.k d1.k d1.label, then + d2.k d2.label, then
    // + d3.k d3.label.
    const uint64_t per_level = rows * ((2 * kKey + kLabel) +
                                       (3 * kKey + 2 * kLabel) +
                                       (4 * kKey + 3 * kLabel));
    auto ref = db->Execute(sql);
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();

    SetFaultObservationForTest(true);
    auto seen = db->Execute(sql);
    SetFaultObservationForTest(false);
    ASSERT_TRUE(seen.ok()) << seen.status().ToString();
    // Levels 2 and 3 compose their left child's vectors and gather its key.
    EXPECT_EQ(FaultPointHits("join_rows_alloc"), 2u) << "@" << threads;
    EXPECT_GE(FaultPointHits("gather_alloc"), 3u) << "@" << threads;
    DisarmAllFaultPoints();

    ExecGuard guard;
    guard.set_memory_budget_bytes(per_level);
    auto got = db->Execute(sql, &guard);
    ASSERT_TRUE(got.ok()) << "@" << threads << " budget " << per_level
                          << " -> " << got.status().ToString();
    EXPECT_LT(guard.peak_reserved_bytes(), per_level) << "@" << threads;
    // The charge includes the composed vectors: two at level 2 and three
    // at level 3, 4 bytes per row each.
    EXPECT_GE(guard.peak_reserved_bytes(), rows * (2 + 3) * sizeof(uint32_t))
        << "@" << threads;
    ExpectBitIdentical(ref.value(), got.value(),
                       sql + " @" + std::to_string(threads));
  }
}

TEST_F(GovernorTest, ProbePairListsChargedAtEveryThreadCount) {
  // A 400-row probe side is one morsel (kTestMorselRows = 500). Four keys
  // of 100 rows on each side make 40,000 pairs, so the pair lists (8 bytes
  // per pair) dwarf the build's charges. The probe charges them at every
  // thread count: one morsel path, no serial branch that skips the charge.
  constexpr size_t kRows = 400;
  auto keyed = [&]() {
    auto t = std::make_shared<Table>();
    t->AddColumn("k", TypeId::kInt64);
    for (size_t r = 0; r < kRows; ++r) {
      t->AppendRow({Value::Int(static_cast<int64_t>(r % 4))});
    }
    return t;
  };
  const std::string sql = "select count(*) as c from l join r on l.k = r.k";
  constexpr uint64_t kPairBytes = kRows * kRows / 4 * 2 * sizeof(uint32_t);
  for (int threads : {1, 2, 8}) {
    auto db = std::make_unique<Database>(kSeed);
    db->set_num_threads(threads);
    ASSERT_TRUE(db->RegisterTable("l", keyed()).ok());
    ASSERT_TRUE(db->RegisterTable("r", keyed()).ok());

    SetFaultObservationForTest(true);
    auto seen = db->Execute(sql);
    SetFaultObservationForTest(false);
    ASSERT_TRUE(seen.ok()) << seen.status().ToString();
    EXPECT_EQ(seen.value().Get(0, 0).AsInt(),
              static_cast<int64_t>(kRows * kRows / 4));
    EXPECT_EQ(FaultPointHits("join_probe_alloc"), 1u) << "@" << threads;
    DisarmAllFaultPoints();

    ExecGuard guard;
    guard.set_memory_budget_bytes(kPairBytes / 2);
    auto got = db->Execute(sql, &guard);
    ASSERT_FALSE(got.ok()) << "@" << threads;
    EXPECT_EQ(got.status().code(), StatusCode::kResourceExhausted)
        << "@" << threads;
    EXPECT_NE(got.status().message().find("join_probe_alloc"),
              std::string::npos)
        << "@" << threads << " -> " << got.status().ToString();
  }
}

TEST_F(GovernorTest, EnvSpecArmsAndRejectsMalformedInput) {
  EXPECT_TRUE(ArmFromEnvSpec("agg_partial=3,join_build=1"));
  auto db = MakeDb(2001, 2);
  auto got = db->Execute(
      "select d.label, count(*) as c from orders o "
      "inner join dim d on o.k = d.k group by d.label");
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kResourceExhausted);
  DisarmAllFaultPoints();

  EXPECT_FALSE(ArmFromEnvSpec("=3"));
  EXPECT_FALSE(ArmFromEnvSpec("no_equals_sign"));
  DisarmAllFaultPoints();
}

// ---- the middleware facade: options-driven limits ---------------------------

class GovernorFacadeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DisarmAllFaultPoints();
    SetMorselRowsForTest(kTestMorselRows);
  }
  void TearDown() override {
    SetMorselRowsForTest(0);
    DisarmAllFaultPoints();
  }
};

TEST_F(GovernorFacadeTest, GenerousLimitsReportPeakMemoryAndSucceed) {
  // A universe join of two hashed samples: the rewritten query exercises the
  // join build/probe charges, so the reported peak must be nonzero while the
  // generous limits never trip.
  Database db(777);
  Rng rng(kSeed);
  auto fact = std::make_shared<Table>();
  fact->AddColumn("k", TypeId::kInt64);
  fact->AddColumn("v", TypeId::kDouble);
  for (int i = 0; i < 8000; ++i) {
    fact->AppendRow({Value::Int(rng.NextInRange(0, 299)),
                     Value::Double(rng.NextDouble() * 100.0)});
  }
  auto dim = std::make_shared<Table>();
  dim->AddColumn("k", TypeId::kInt64);
  dim->AddColumn("w", TypeId::kDouble);
  for (int64_t k = 0; k < 300; ++k) {
    dim->AppendRow(
        {Value::Int(k), Value::Double(1.0 + static_cast<double>(k % 5))});
  }
  ASSERT_TRUE(db.RegisterTable("fact", fact).ok());
  ASSERT_TRUE(db.RegisterTable("dim", dim).ok());
  db.set_num_threads(4);
  core::VerdictOptions opts;
  opts.min_rows_for_sampling = 100;
  opts.io_budget = 0.30;
  opts.timeout_ms = 10 * 60 * 1000;
  opts.memory_budget_bytes = 1ull << 40;
  core::VerdictContext ctx(&db, driver::EngineKind::kGeneric, opts);
  ASSERT_TRUE(ctx.sample_builder().CreateHashedSample("fact", "k", 0.2).ok());
  ASSERT_TRUE(ctx.sample_builder().CreateHashedSample("dim", "k", 0.2).ok());

  core::VerdictContext::ExecInfo info;
  auto rs = ctx.Execute(
      "select sum(f.v * d.w) as s from fact f inner join dim d on f.k = d.k",
      &info);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_TRUE(info.approximated) << info.skip_reason;
  EXPECT_FALSE(info.degraded);
  EXPECT_GT(info.peak_memory_bytes, 0u);
}

TEST_F(GovernorFacadeTest, InjectedFailureSurfacesAsCleanStatus) {
  Database db(778);
  ASSERT_TRUE(db.RegisterTable("orders", BuildOrders(8000)).ok());
  db.set_num_threads(4);
  core::VerdictOptions opts;
  opts.min_rows_for_sampling = 1000;
  core::VerdictContext ctx(&db, driver::EngineKind::kGeneric, opts);
  ASSERT_TRUE(ctx.sample_builder().CreateUniformSample("orders", 0.10).ok());

  ArmFaultPointNth("agg_partial", 1, StatusCode::kResourceExhausted);
  auto rs = ctx.Execute(
      "select city, sum(price) as sp from orders group by city");
  ASSERT_FALSE(rs.ok());
  EXPECT_TRUE(IsGovernorCode(rs.status().code())) << rs.status().ToString();
  DisarmAllFaultPoints();

  // Disarmed, the same context serves the query.
  auto again = ctx.Execute(
      "select city, sum(price) as sp from orders group by city");
  EXPECT_TRUE(again.ok()) << again.status().ToString();
}

TEST_F(GovernorFacadeTest, SampleBuildsAreGovernedByTheStandingBudget) {
  // The budget is armed from construction, so the offline stage is governed
  // too: a sample gather that would exceed it unwinds with
  // kResourceExhausted instead of materializing.
  Database db(779);
  ASSERT_TRUE(db.RegisterTable("orders", BuildOrders(8000)).ok());
  core::VerdictOptions opts;
  opts.min_rows_for_sampling = 1000;
  opts.memory_budget_bytes = 2048;
  core::VerdictContext ctx(&db, driver::EngineKind::kGeneric, opts);
  auto st = ctx.sample_builder().CreateUniformSample("orders", 0.5);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.status().code(), StatusCode::kResourceExhausted)
      << st.status().ToString();
  // Lifting the budget makes the same build succeed on the same context.
  ctx.exec_guard().ResetForStatement();
  ctx.exec_guard().set_memory_budget_bytes(0);
  EXPECT_TRUE(ctx.sample_builder().CreateUniformSample("orders", 0.5).ok());
}

TEST_F(GovernorFacadeTest, TrippedExactFallbackDegradesToApproximateAnswer) {
  // The HAC setup from test_core: a singleton group's stderr is unmeasurable,
  // so min_accuracy > 0 forces the exact fallback deterministically. We then
  // inject a budget failure into that fallback (and only it) by arming
  // agg_partial to fail on the hit AFTER the approximate phase's last one —
  // hit counts depend only on row counts, so the threshold is stable.
  Database db(4321);
  auto t = std::make_shared<Table>();
  t->AddColumn("g", TypeId::kInt64);
  t->AddColumn("v", TypeId::kDouble);
  for (int i = 0; i < 5000; ++i) {
    t->AppendRow({Value::Int(1), Value::Double(10.0 + (i % 7))});
  }
  t->AppendRow({Value::Int(2), Value::Double(42.0)});
  ASSERT_TRUE(db.RegisterTable("skew", t).ok());
  db.set_num_threads(4);
  core::VerdictOptions opts;
  opts.min_rows_for_sampling = 1000;
  opts.io_budget = 1.0;
  core::VerdictContext ctx(&db, driver::EngineKind::kGeneric, opts);
  ASSERT_TRUE(ctx.sample_builder().CreateUniformSample("skew", 1.0).ok());

  const std::string sql =
      "select g, sum(v) as s from skew group by g order by g";

  // Count the approximate phase's agg_partial consultations (no fallback),
  // with the metadata memo warm as it is for the armed run: a memo hit
  // skips the group-cardinality probe's aggregation.
  ASSERT_TRUE(ctx.ExecuteApprox(sql).ok());
  SetFaultObservationForTest(true);
  {
    auto warm = ctx.ExecuteApprox(sql);
    ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  }
  const uint64_t approx_hits = FaultPointHits("agg_partial");
  SetFaultObservationForTest(false);
  DisarmAllFaultPoints();
  ASSERT_GT(approx_hits, 0u);

  // Now force the fallback and make its first aggregation poll fail.
  ctx.options().min_accuracy = 0.5;
  ArmFaultPointNth("agg_partial", approx_hits + 1,
                   StatusCode::kResourceExhausted);
  core::VerdictContext::ExecInfo info;
  auto ans = ctx.ExecuteApprox(sql, &info);
  DisarmAllFaultPoints();
  ASSERT_TRUE(ans.ok()) << ans.status().ToString();
  EXPECT_TRUE(info.approximated);
  EXPECT_TRUE(info.exact_rerun);
  EXPECT_TRUE(info.degraded);
  EXPECT_NE(info.degradation_note.find("exact fallback"), std::string::npos)
      << info.degradation_note;
}

}  // namespace
}  // namespace vdb::engine
