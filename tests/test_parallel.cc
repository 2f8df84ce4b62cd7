// Morsel-driven parallel execution: determinism across thread counts.
//
// Every query here is executed against identical databases configured with
// 1, 2 and 8 threads, and the full result sets (values AND row order) must
// match BIT-IDENTICALLY — floating-point aggregates included. Mergeable
// aggregation always runs through per-morsel partials merged in fixed morsel
// order (the decomposition depends only on the row count, never the thread
// count), and sum/avg kernels carry Neumaier compensation, so 1-thread and
// N-thread runs execute the identical computation. The fixtures shrink the
// morsel size so small tables still span many morsels, and cover the
// boundary cases: row counts smaller than one morsel, exact multiples of
// the morsel size, off-by-one around it, and empty inputs.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "core/verdict_context.h"
#include "engine/database.h"
#include "engine/planner.h"
#include "engine/vector_eval.h"

namespace vdb::engine {
namespace {

constexpr uint64_t kSeed = 20260729;
constexpr size_t kTestMorselRows = 1000;

TablePtr BuildOrders(size_t n) {
  Rng rng(kSeed);
  auto t = std::make_shared<Table>();
  t->AddColumn("id", TypeId::kInt64);
  t->AddColumn("city", TypeId::kString);
  t->AddColumn("price", TypeId::kDouble);
  t->AddColumn("qty", TypeId::kInt64);
  t->AddColumn("k", TypeId::kInt64);
  const char* cities[] = {"ann arbor", "detroit", "chicago", "nyc", "sf"};
  for (size_t r = 0; r < n; ++r) {
    // Prices are multiples of 0.25: every partial sum is exactly
    // representable, so parallel merge order cannot change the result.
    double price = static_cast<double>(rng.NextInRange(0, 4000)) * 0.25;
    Value qty = (r % 13 == 0) ? Value::Null()
                              : Value::Int(rng.NextInRange(0, 99));
    t->AppendRow({Value::Int(static_cast<int64_t>(r)),
                  Value::String(cities[rng.NextBounded(5)]),
                  Value::Double(price), qty,
                  Value::Int(rng.NextInRange(0, 60))});
  }
  return t;
}

TablePtr BuildDim() {
  auto t = std::make_shared<Table>();
  t->AddColumn("k", TypeId::kInt64);
  t->AddColumn("label", TypeId::kString);
  for (int64_t k = 0; k < 50; ++k) {  // keys 50..59 have no match
    t->AppendRow({Value::Int(k), Value::String("label_" + std::to_string(k))});
  }
  return t;
}

/// A third, wider table for multi-way joins: `label` matches dim's labels
/// 0..39 (40..49 have no region), and `rk` matches orders.k 0..39.
TablePtr BuildRegions() {
  auto t = std::make_shared<Table>();
  t->AddColumn("rk", TypeId::kInt64);
  t->AddColumn("label", TypeId::kString);
  t->AddColumn("region", TypeId::kInt64);
  t->AddColumn("weight", TypeId::kDouble);
  t->AddColumn("note", TypeId::kString);
  for (int64_t k = 0; k < 40; ++k) {
    t->AppendRow({Value::Int(k), Value::String("label_" + std::to_string(k)),
                  Value::Int(k % 4),
                  Value::Double(0.5 * static_cast<double>(k)),
                  Value::String("note_" + std::to_string(k))});
  }
  return t;
}

std::unique_ptr<Database> MakeDb(size_t rows, int num_threads) {
  auto db = std::make_unique<Database>(kSeed);
  db->set_num_threads(num_threads);
  EXPECT_TRUE(db->RegisterTable("orders", BuildOrders(rows)).ok());
  EXPECT_TRUE(db->RegisterTable("dim", BuildDim()).ok());
  EXPECT_TRUE(db->RegisterTable("regions", BuildRegions()).ok());
  return db;
}

void ExpectSameResults(const ResultSet& ref, const ResultSet& got,
                       const std::string& what, double eps = 0.0) {
  ASSERT_EQ(ref.NumCols(), got.NumCols()) << what;
  ASSERT_EQ(ref.NumRows(), got.NumRows()) << what;
  for (size_t c = 0; c < ref.NumCols(); ++c) {
    EXPECT_EQ(ref.names[c], got.names[c]) << what;
  }
  for (size_t r = 0; r < ref.NumRows(); ++r) {
    for (size_t c = 0; c < ref.NumCols(); ++c) {
      const Value a = ref.Get(r, c);
      const Value b = got.Get(r, c);
      ASSERT_EQ(a.is_null(), b.is_null())
          << what << " cell (" << r << "," << c << ")";
      if (a.is_null()) continue;
      if (eps > 0.0 && a.type() == TypeId::kDouble) {
        EXPECT_NEAR(a.AsDouble(), b.AsDouble(),
                    eps * std::max(1.0, std::abs(a.AsDouble())))
            << what << " cell (" << r << "," << c << ")";
      } else {
        ASSERT_EQ(a.type(), b.type())
            << what << " cell (" << r << "," << c << ")";
        EXPECT_TRUE(a.Equals(b))
            << what << " cell (" << r << "," << c << "): " << a.ToString()
            << " vs " << b.ToString();
      }
    }
  }
}

/// Runs `sql` at 1, 2 and 8 threads over identical databases and asserts
/// identical results (including row order).
void CheckQueryAcrossThreads(size_t rows, const std::string& sql,
                             double eps = 0.0) {
  auto ref_db = MakeDb(rows, 1);
  auto ref = ref_db->Execute(sql);
  ASSERT_TRUE(ref.ok()) << sql << " -> " << ref.status().ToString();
  for (int threads : {2, 8}) {
    auto db = MakeDb(rows, threads);
    auto got = db->Execute(sql);
    ASSERT_TRUE(got.ok()) << sql << " -> " << got.status().ToString();
    ExpectSameResults(ref.value(), got.value(),
                      sql + " @" + std::to_string(threads) + " threads", eps);
  }
}

class ParallelTest : public ::testing::Test {
 protected:
  void SetUp() override { SetMorselRowsForTest(kTestMorselRows); }
  void TearDown() override { SetMorselRowsForTest(0); }
};

TEST_F(ParallelTest, FilterDeterminism) {
  CheckQueryAcrossThreads(
      10007, "select id, price from orders where price > 500 and qty < 50");
}

TEST_F(ParallelTest, FilterSelectsNothing) {
  CheckQueryAcrossThreads(10007,
                          "select id from orders where price < -1");
}

TEST_F(ParallelTest, FilterSelectsEverything) {
  CheckQueryAcrossThreads(10007,
                          "select count(*) as c from orders where price >= 0");
}

TEST_F(ParallelTest, GroupedAggregates) {
  // No ORDER BY on purpose: the group discovery order (first occurrence in
  // row order) must itself be deterministic across thread counts.
  CheckQueryAcrossThreads(
      10007,
      "select city, count(*) as c, sum(qty) as sq, sum(price) as sp, "
      "avg(price) as ap, min(price) as mn, max(id) as mx, "
      "count(distinct qty) as dq, median(price) as md "
      "from orders group by city");
}

TEST_F(ParallelTest, GlobalAggregateNoGroupBy) {
  CheckQueryAcrossThreads(
      10007,
      "select count(*) as c, sum(price) as sp, min(qty) as mn, "
      "ndv(qty) as nd from orders where qty is not null");
}

TEST_F(ParallelTest, GroupByHighCardinalityWithHaving) {
  CheckQueryAcrossThreads(
      10007,
      "select k, qty, count(*) as c, sum(price) as sp from orders "
      "group by k, qty having count(*) > 2");
}

TEST_F(ParallelTest, VarianceAcrossThreads) {
  // Bit-identical, no tolerance: every thread count runs the same morsel
  // decomposition with Welford partials Chan-merged in morsel order.
  CheckQueryAcrossThreads(
      10007,
      "select city, var(price) as vp, stddev(qty) as sq from orders "
      "group by city");
}

TEST_F(ParallelTest, FullMantissaSumsBitIdenticalAcrossThreads) {
  // Doubles with full 53-bit mantissas, where naive partial-sum merges WOULD
  // differ from a serial row-order accumulation in the last ulps. The fixed
  // morsel decomposition plus Neumaier-compensated kernels make serial and
  // N-thread sums/averages/variances bit-identical — no epsilon here.
  auto build = [] {
    Rng rng(kSeed + 1);
    auto t = std::make_shared<Table>();
    t->AddColumn("g", TypeId::kInt64);
    t->AddColumn("x", TypeId::kDouble);
    for (size_t r = 0; r < 10007; ++r) {
      t->AppendRow({Value::Int(static_cast<int64_t>(r % 7)),
                    Value::Double((rng.NextDouble() - 0.5) * 1e6)});
    }
    return t;
  };
  ResultSet ref;
  const char* sql =
      "select g, sum(x) as sx, avg(x) as ax, var(x) as vx, stddev(x) as dx "
      "from t group by g";
  for (int threads : {1, 2, 8}) {
    Database db(kSeed);
    db.set_num_threads(threads);
    ASSERT_TRUE(db.RegisterTable("t", build()).ok());
    auto rs = db.Execute(sql);
    ASSERT_TRUE(rs.ok()) << rs.status().ToString();
    if (threads == 1) {
      ref = rs.value();
    } else {
      ExpectSameResults(ref, rs.value(),
                        std::string("full-mantissa sums @") +
                            std::to_string(threads) + " threads");
    }
  }
}

TEST_F(ParallelTest, HashJoinProbe) {
  CheckQueryAcrossThreads(
      10007,
      "select o.id, o.price, d.label from orders o join dim d on o.k = d.k "
      "where o.price > 250");
}

TEST_F(ParallelTest, LeftJoinNullExtension) {
  CheckQueryAcrossThreads(
      10007,
      "select o.id, d.label from orders o left join dim d on o.k = d.k");
}

TEST_F(ParallelTest, LeftJoinWhereOnNullExtendedColumn) {
  // The WHERE is pushed down onto the join's pair-list view (filtering
  // candidate pairs before the combined gather); IS NULL over the
  // null-extended right column must see exactly the post-materialization
  // semantics, at every thread count.
  CheckQueryAcrossThreads(
      10007,
      "select o.id, o.k from orders o left join dim d on o.k = d.k "
      "where d.label is null");
}

TEST_F(ParallelTest, JoinWhereMixingBothSides) {
  CheckQueryAcrossThreads(
      10007,
      "select o.id, d.label from orders o join dim d on o.k = d.k "
      "where o.price > 100 and d.k % 3 = 1");
}

TEST_F(ParallelTest, JoinWhereWithRandPushedDown) {
  // rand() in the WHERE rides the pair-view pushdown like any other
  // predicate: draws address the global pair ordinal (= materialized row),
  // so seeded runs are reproducible and thread-count independent.
  CheckQueryAcrossThreads(
      2003,
      "select o.id from orders o join dim d on o.k = d.k where rand() < 0.5");
}

TEST_F(ParallelTest, JoinThenGroupedAggregate) {
  CheckQueryAcrossThreads(
      10007,
      "select d.label, count(*) as c, sum(o.price) as sp "
      "from orders o join dim d on o.k = d.k group by d.label");
}

// ---- join projection pruning ----------------------------------------------
// A join gathers only the columns its statement references. Each query must
// return exactly what the same query returns when every join input is a
// derived table selecting just the referenced columns, at every thread
// count and morsel size; both spellings run first on a fresh database, so
// they draw the same query seed.

void CheckJoinPruningMatchesExplicit(const std::string& pruned,
                                     const std::string& narrowed) {
  for (size_t morsel : {kTestMorselRows, size_t{64}}) {
    SetMorselRowsForTest(morsel);
    const std::string at = " @morsel " + std::to_string(morsel);
    auto ref = MakeDb(10007, 1)->Execute(pruned);
    ASSERT_TRUE(ref.ok()) << pruned << " -> " << ref.status().ToString();
    for (int threads : {1, 2, 8}) {
      const std::string where = at + " @" + std::to_string(threads);
      auto a = MakeDb(10007, threads)->Execute(pruned);
      auto b = MakeDb(10007, threads)->Execute(narrowed);
      ASSERT_TRUE(a.ok()) << pruned << " -> " << a.status().ToString();
      ASSERT_TRUE(b.ok()) << narrowed << " -> " << b.status().ToString();
      ASSERT_GT(a.value().NumRows(), 0u) << pruned;
      ExpectSameResults(b.value(), a.value(), pruned + where);
      ExpectSameResults(ref.value(), a.value(),
                        pruned + " vs 1 thread" + where);
    }
  }
  SetMorselRowsForTest(kTestMorselRows);
}

TEST_F(ParallelTest, JoinPruningKeepsAncestorJoinKeys) {
  // d.label appears only in the outer join's ON: the inner join must keep
  // it although the select list never names it.
  CheckJoinPruningMatchesExplicit(
      "select o.id, o.price, r.region, r.weight from orders o "
      "join dim d on o.k = d.k join regions r on d.label = r.label",
      "select o.id, o.price, r.region, r.weight from "
      "(select id, price, k from orders) o "
      "join (select k, label from dim) d on o.k = d.k "
      "join (select label, region, weight from regions) r "
      "on d.label = r.label");
  CheckJoinPruningMatchesExplicit(
      "select r.region, count(*) as c, sum(o.price) as sp from orders o "
      "join dim d on o.k = d.k join regions r on d.label = r.label "
      "group by r.region order by r.region",
      "select r.region, count(*) as c, sum(o.price) as sp from "
      "(select price, k from orders) o "
      "join (select k, label from dim) d on o.k = d.k "
      "join (select label, region from regions) r on d.label = r.label "
      "group by r.region order by r.region");
}

TEST_F(ParallelTest, JoinPruningNullExtendsPrunedRightSide) {
  // orders.k 40..60 find no region: the pruned right side (rk, weight of
  // five columns) is null-extended.
  CheckJoinPruningMatchesExplicit(
      "select o.id, r.weight from orders o left join regions r on o.k = r.rk "
      "where o.price > 100",
      "select o.id, r.weight from (select id, k, price from orders) o "
      "left join (select rk, weight from regions) r on o.k = r.rk "
      "where o.price > 100");
  CheckJoinPruningMatchesExplicit(
      "select o.city, count(r.note) as n, sum(r.weight) as w from orders o "
      "left join regions r on o.k = r.rk group by o.city order by o.city",
      "select o.city, count(r.note) as n, sum(r.weight) as w from "
      "(select city, k from orders) o "
      "left join (select rk, note, weight from regions) r on o.k = r.rk "
      "group by o.city order by o.city");
}

TEST_F(ParallelTest, JoinPruningSameNameOnBothSides) {
  // k and label exist on two inputs each; qualified references pick one.
  CheckJoinPruningMatchesExplicit(
      "select o.k, d.k, o.id, d.label as dl, r.label as rl from orders o "
      "join dim d on o.k = d.k join regions r on o.k = r.rk",
      "select o.k, d.k, o.id, d.label as dl, r.label as rl from "
      "(select k, id from orders) o join (select k, label from dim) d "
      "on o.k = d.k join (select rk, label from regions) r on o.k = r.rk");
}

TEST_F(ParallelTest, JoinPruningKeepsRowAddressedRand) {
  // rand() in the projection keeps the post-gather WHERE; rand() only in
  // the WHERE rides the pair-view pushdown. Either way the draws address
  // pair ordinals, which pruning does not change.
  CheckJoinPruningMatchesExplicit(
      "select o.id, rand() as x from orders o join dim d on o.k = d.k "
      "where rand() < 0.5",
      "select o.id, rand() as x from (select id, k from orders) o "
      "join (select k from dim) d on o.k = d.k where rand() < 0.5");
  CheckJoinPruningMatchesExplicit(
      "select d.label, count(*) as c, sum(o.price) as sp from orders o "
      "join dim d on o.k = d.k where rand() < 0.3 and o.qty > 10 "
      "group by d.label order by d.label",
      "select d.label, count(*) as c, sum(o.price) as sp from "
      "(select k, price, qty from orders) o "
      "join (select k, label from dim) d on o.k = d.k "
      "where rand() < 0.3 and o.qty > 10 group by d.label order by d.label");
}

TEST_F(ParallelTest, JoinPruningStarsCountsAndAmbiguity) {
  auto db = MakeDb(1001, 8);
  auto run = [&](const std::string& sql) {
    auto rs = db->Execute(sql);
    EXPECT_TRUE(rs.ok()) << sql << " -> " << rs.status().ToString();
    return rs.ok() ? rs.value() : ResultSet{};
  };
  // `*` and `p.*` keep every column of what they expand.
  EXPECT_EQ(run("select * from orders o join dim d on o.k = d.k").NumCols(),
            7u);
  EXPECT_EQ(run("select o.* from orders o join dim d on o.k = d.k").NumCols(),
            5u);
  EXPECT_EQ(run("select r.*, o.id from orders o join dim d on o.k = d.k "
                "join regions r on d.label = r.label")
                .NumCols(),
            6u);

  // count(*) references no column; the join keeps its row count.
  const size_t matched =
      run("select o.id from orders o join dim d on o.k = d.k").NumRows();
  ASSERT_GT(matched, 0u);
  ResultSet c =
      run("select count(*) as c from orders o join dim d on o.k = d.k");
  ASSERT_EQ(c.NumRows(), 1u);
  EXPECT_EQ(c.Get(0, 0).AsInt(), static_cast<int64_t>(matched));
  ResultSet x = run("select count(*) as c from orders o cross join dim d");
  ASSERT_EQ(x.NumRows(), 1u);
  EXPECT_EQ(x.Get(0, 0).AsInt(), 1001 * 50);

  // An unqualified name on both sides stays ambiguous.
  auto amb = db->Execute("select k from orders o join dim d on o.k = d.k");
  ASSERT_FALSE(amb.ok());
  EXPECT_EQ(amb.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(amb.status().message().find("ambiguous"), std::string::npos)
      << amb.status().ToString();
}

// ---- join trees --------------------------------------------------------------
// A join hands its row set to its parent join, which gathers only its own
// key columns, filters pairs by its ON residual and a pushed-down WHERE,
// and composes the row set through its pair lists; only the FROM root
// gathers. Each tree must return exactly what the same tree returns with
// every nested join written as a derived table, which gathers its output.

TEST_F(ParallelTest, JoinTreeInnerAndLeftMatchesNestedDerived) {
  // Three-way inner join.
  CheckJoinPruningMatchesExplicit(
      "select o.id as id, d.label as label, r.region as region from orders o "
      "join dim d on o.k = d.k join regions r on d.label = r.label",
      "select od.o_id as id, od.d_label as label, r.region as region from "
      "(select o.id as o_id, d.label as d_label from orders o "
      "join dim d on o.k = d.k) od join regions r on od.d_label = r.label");
  // Four-way, with a nested left join whose null extensions flow up the
  // tree and a left join at the root whose ON carries a residual.
  CheckJoinPruningMatchesExplicit(
      "select o.id as id, r.weight as w, d.label as label, "
      "r2.region as region from orders o left join regions r on o.k = r.rk "
      "join dim d on o.k = d.k left join regions r2 on d.label = r2.label "
      "and o.price > r2.weight * 50",
      "select t2.o_id as id, t2.r_weight as w, t2.d_label as label, "
      "r2.region as region from (select t1.o_id as o_id, "
      "t1.o_price as o_price, t1.r_weight as r_weight, d.label as d_label "
      "from (select o.id as o_id, o.k as o_k, o.price as o_price, "
      "r.weight as r_weight from orders o left join regions r "
      "on o.k = r.rk) t1 join dim d on t1.o_k = d.k) t2 "
      "left join regions r2 on t2.d_label = r2.label "
      "and t2.o_price > r2.weight * 50");
  // A right-nested join under a left join: the right side's row set is
  // null-extended as a whole, and the ON residual and the pushed-down WHERE
  // read its columns through its index vectors.
  CheckJoinPruningMatchesExplicit(
      "select o.id as id, r.region as region, d.label as label from orders o "
      "left join (regions r join dim d on r.label = d.label) "
      "on o.k = r.rk and d.k < 30 where d.label is null or o.price > 500",
      "select o.id as id, rd.r_region as region, rd.d_label as label from "
      "orders o left join (select r.rk as r_rk, r.region as r_region, "
      "d.k as d_k, d.label as d_label from regions r join dim d "
      "on r.label = d.label) rd on o.k = rd.r_rk and rd.d_k < 30 "
      "where rd.d_label is null or o.price > 500");
  // A parent join keyed on a null-extended column: NULL keys never match.
  CheckJoinPruningMatchesExplicit(
      "select o.id as id, d.label as label, r.note as note from orders o "
      "left join regions r on o.k = r.rk join dim d on r.rk = d.k "
      "left join regions r2 on d.k = r2.rk + 5",
      "select t2.o_id as id, t2.d_label as label, t2.r_note as note from "
      "(select t1.o_id as o_id, t1.r_note as r_note, d.k as d_k, "
      "d.label as d_label from (select o.id as o_id, r.rk as r_rk, "
      "r.note as r_note from orders o left join regions r "
      "on o.k = r.rk) t1 join dim d on t1.r_rk = d.k) t2 "
      "left join regions r2 on t2.d_k = r2.rk + 5");
}

TEST_F(ParallelTest, JoinTreeFiveWayWithRandWhereMatchesNestedDerived) {
  // Five relations; a nested left join's NULL labels never match below
  // the root, and the WHERE, drawing rand(), is pushed into the root join.
  CheckJoinPruningMatchesExplicit(
      "select d.label as label, count(*) as c, sum(o.price) as sp, "
      "count(r.note) as n from orders o join dim d on o.k = d.k "
      "left join regions r on d.label = r.label join dim d2 on o.k = d2.k "
      "join regions r3 on o.k = r3.rk where rand() < 0.5 and o.qty > 10 "
      "group by d.label order by d.label",
      "select t3.d_label as label, count(*) as c, sum(t3.o_price) as sp, "
      "count(t3.r_note) as n from (select t2.o_k as o_k, "
      "t2.o_price as o_price, t2.o_qty as o_qty, t2.d_label as d_label, "
      "t2.r_note as r_note from (select t1.o_k as o_k, "
      "t1.o_price as o_price, t1.o_qty as o_qty, t1.d_label as d_label, "
      "r.note as r_note from (select o.k as o_k, o.price as o_price, "
      "o.qty as o_qty, d.label as d_label from orders o "
      "join dim d on o.k = d.k) t1 left join regions r "
      "on t1.d_label = r.label) t2 join dim d2 on t2.o_k = d2.k) t3 "
      "join regions r3 on t3.o_k = r3.rk where rand() < 0.5 "
      "and t3.o_qty > 10 group by t3.d_label order by t3.d_label");
}

TEST_F(ParallelTest, JoinTreeCrossDerivedAndCountMatchNestedDerived) {
  // A cross join above a hash join, filtered by the pushed-down WHERE.
  CheckJoinPruningMatchesExplicit(
      "select o.id as id, d.label as label, r.region as region from orders o "
      "join dim d on o.k = d.k cross join regions r "
      "where r.region = 1 and o.price > 900",
      "select od.o_id as id, od.d_label as label, r.region as region from "
      "(select o.id as o_id, o.price as o_price, d.label as d_label "
      "from orders o join dim d on o.k = d.k) od cross join regions r "
      "where r.region = 1 and od.o_price > 900");
  // A derived table inside the tree is a leaf of it.
  CheckJoinPruningMatchesExplicit(
      "select o.id as id, d.label as label, r.weight as w from orders o "
      "join (select k, label from dim where k < 30) d on o.k = d.k "
      "join regions r on d.label = r.label",
      "select od.o_id as id, od.d_label as label, r.weight as w from "
      "(select o.id as o_id, d.label as d_label from orders o "
      "join (select k, label from dim where k < 30) d on o.k = d.k) od "
      "join regions r on od.d_label = r.label");
  // count(*) reads no column outside the ON conditions.
  CheckJoinPruningMatchesExplicit(
      "select count(*) as c from orders o join dim d on o.k = d.k "
      "join regions r on d.label = r.label",
      "select count(*) as c from (select d.label as d_label from orders o "
      "join dim d on o.k = d.k) od join regions r on od.d_label = r.label");
}

TEST_F(ParallelTest, DistinctAndOrderBy) {
  CheckQueryAcrossThreads(
      10007, "select distinct city, qty from orders order by city, qty");
}

TEST_F(ParallelTest, RandPredicateRowAddressedAcrossThreads) {
  // rand() runs on the morsel-parallel path; row-addressed draws make the
  // selected rows identical for every thread setting.
  CheckQueryAcrossThreads(10007,
                          "select count(*) as c from orders where rand() < 0.5");
}

// ---- morsel-boundary edge cases -------------------------------------------

TEST_F(ParallelTest, RowCountSmallerThanOneMorsel) {
  CheckQueryAcrossThreads(
      17, "select city, count(*) as c, sum(price) as sp from orders "
          "group by city");
}

TEST_F(ParallelTest, RowCountExactMultipleOfMorsel) {
  CheckQueryAcrossThreads(
      3 * kTestMorselRows,
      "select count(*) as c, sum(price) as sp from orders where qty < 30");
}

TEST_F(ParallelTest, RowCountOffByOneAroundMorsel) {
  for (size_t n : {kTestMorselRows - 1, kTestMorselRows, kTestMorselRows + 1,
                   5 * kTestMorselRows - 1, 5 * kTestMorselRows + 1}) {
    CheckQueryAcrossThreads(
        n, "select city, count(*) as c, sum(price) as sp from orders "
           "group by city");
  }
}

TEST_F(ParallelTest, TinyMorsels) {
  // Morsels far smaller than a natural batch: many single-digit work units.
  SetMorselRowsForTest(7);
  CheckQueryAcrossThreads(
      500, "select qty, count(*) as c from orders where price > 100 "
           "group by qty");
}

TEST_F(ParallelTest, EmptyInput) {
  auto empty = std::make_shared<Table>();
  empty->AddColumn("x", TypeId::kInt64);
  for (int threads : {1, 2, 8}) {
    Database db(kSeed);
    db.set_num_threads(threads);
    ASSERT_TRUE(db.RegisterTable("t", empty).ok());
    auto rs = db.Execute("select count(*) as c, sum(x) as s from t where x > 0");
    ASSERT_TRUE(rs.ok());
    ASSERT_EQ(rs.value().NumRows(), 1u);
    EXPECT_EQ(rs.value().Get(0, 0).AsInt(), 0);
    EXPECT_TRUE(rs.value().Get(0, 1).is_null());
  }
}

TEST_F(ParallelTest, NanGroupKeysAcrossThreads) {
  // Both NaN signs must land in ONE group on every path: the serial
  // vectorized group ids, the parallel morsel-local group ids, and the
  // cross-morsel ValueGroupKey merge (which canonicalizes NaN).
  const double nan_pos = std::numeric_limits<double>::quiet_NaN();
  auto build = [&]() {
    auto t = std::make_shared<Table>();
    t->AddColumn("g", TypeId::kDouble);
    t->AddColumn("v", TypeId::kInt64);
    for (size_t r = 0; r < 3000; ++r) {
      double g = (r % 3 == 0) ? nan_pos : (r % 3 == 1) ? -nan_pos : 1.5;
      t->AppendRow({Value::Double(g), Value::Int(1)});
    }
    return t;
  };
  ResultSet ref;
  for (int threads : {1, 2, 8}) {
    Database db(kSeed);
    db.set_num_threads(threads);
    ASSERT_TRUE(db.RegisterTable("t", build()).ok());
    auto rs = db.Execute("select count(*) as c, sum(v) as sv from t group by g");
    ASSERT_TRUE(rs.ok());
    ASSERT_EQ(rs.value().NumRows(), 2u) << threads << " threads";
    if (threads == 1) {
      ref = rs.value();
    } else {
      ExpectSameResults(ref, rs.value(),
                        "nan groups @" + std::to_string(threads));
    }
  }
}

TEST_F(ParallelTest, ConcurrentCallersShareThePool) {
  // Two application threads each running parallel queries against their own
  // Database: the pool publishes one job at a time, so the callers must
  // queue cleanly (no clobbered jobs) and both get the serial-path answer.
  auto ref_db = MakeDb(10007, 1);
  auto ref = ref_db->Execute("select city, count(*) as c, sum(price) as sp "
                             "from orders group by city");
  ASSERT_TRUE(ref.ok());
  auto worker = [&](int* failures) {
    auto db = MakeDb(10007, 4);
    for (int i = 0; i < 20; ++i) {
      auto got = db->Execute("select city, count(*) as c, sum(price) as sp "
                             "from orders group by city");
      if (!got.ok() || got.value().NumRows() != ref.value().NumRows()) {
        ++*failures;
        continue;
      }
      for (size_t r = 0; r < ref.value().NumRows(); ++r) {
        for (size_t c = 0; c < ref.value().NumCols(); ++c) {
          if (!ref.value().Get(r, c).Equals(got.value().Get(r, c))) {
            ++*failures;
          }
        }
      }
    }
  };
  int fail_a = 0, fail_b = 0;
  std::thread a(worker, &fail_a);
  std::thread b(worker, &fail_b);
  a.join();
  b.join();
  EXPECT_EQ(fail_a, 0);
  EXPECT_EQ(fail_b, 0);
}

TEST_F(ParallelTest, SharedDatabaseConcurrentSelects) {
  // Regression for the shared-Database races: NewQuerySeed() used to mutate
  // the Rng unlocked and AddRowsScanned() was a plain += — two threads
  // running SELECTs against ONE Database could corrupt generator state and
  // lose scan-count updates. NewQuerySeed now serializes on seed_mu_ and
  // rows_scanned_ is atomic, so this must be exact (and TSan-clean; the CI
  // thread-sanitizer job runs this suite).
  auto db = MakeDb(10007, 4);
  const char* kSql =
      "select city, count(*) as c, sum(price) as sp "
      "from orders group by city order by city";
  auto ref = db->Execute(kSql);
  ASSERT_TRUE(ref.ok());
  const uint64_t scanned_per_query = db->rows_scanned();
  ASSERT_GT(scanned_per_query, 0u);

  constexpr int kItersPerThread = 20;
  auto worker = [&](int* failures) {
    for (int i = 0; i < kItersPerThread; ++i) {
      auto got = db->Execute(kSql);
      if (!got.ok() || got.value().NumRows() != ref.value().NumRows()) {
        ++*failures;
        continue;
      }
      for (size_t r = 0; r < ref.value().NumRows(); ++r) {
        for (size_t c = 0; c < ref.value().NumCols(); ++c) {
          if (!ref.value().Get(r, c).Equals(got.value().Get(r, c))) {
            ++*failures;
          }
        }
      }
    }
  };
  // A third thread runs the same statement under a pre-cancelled guard and
  // an immediate deadline: its executions must unwind with kCancelled /
  // kDeadlineExceeded without perturbing the other threads' results or the
  // shared rows_scanned tally. Each doomed run still resolves the base table
  // (the scan is counted at plan time, before the first cooperative poll),
  // so its contribution stays exact.
  constexpr int kDoomedIters = 10;
  int doomed_bad = 0;
  auto doomed = [&]() {
    ExecGuard guard;
    for (int i = 0; i < kDoomedIters; ++i) {
      guard.ResetForStatement();
      guard.set_deadline_after_ms(0);
      if (i % 2 == 0) {
        guard.RequestCancel();
      } else {
        // Sleep past a 1 ms deadline so the very first poll trips it.
        guard.set_deadline_after_ms(1);
        std::this_thread::sleep_for(std::chrono::milliseconds(3));
      }
      auto got = db->Execute(kSql, &guard);
      const StatusCode want =
          i % 2 == 0 ? StatusCode::kCancelled : StatusCode::kDeadlineExceeded;
      if (got.ok() || got.status().code() != want) ++doomed_bad;
    }
  };
  int fail_a = 0, fail_b = 0;
  std::thread a(worker, &fail_a);
  std::thread b(worker, &fail_b);
  std::thread c(doomed);
  a.join();
  b.join();
  c.join();
  EXPECT_EQ(fail_a, 0);
  EXPECT_EQ(fail_b, 0);
  EXPECT_EQ(doomed_bad, 0);
  // Every execution scans the base table exactly once — including the doomed
  // ones, which count the scan before unwinding; a lost update here means
  // AddRowsScanned raced.
  EXPECT_EQ(db->rows_scanned(),
            scanned_per_query * (1 + 2 * kItersPerThread + kDoomedIters));
}

// ---- row-addressed rand: plan-shape and substrate invariance ---------------

/// The AQP hot-path shape: GROUP BY (g, __vdb_sid) over a derived table that
/// assigns `1 + floor(rand() * b)` per row (core/rewriter.cc, Appendix G
/// Query 9's inner query).
constexpr const char* kSidAggregateSql =
    "select city, sid, count(*) as c, sum(price) as sp from "
    "(select *, 1 + floor(rand() * 64) as sid from orders) t "
    "group by city, sid order by city, sid";

class RowAddressedRandTest : public ::testing::Test {
 protected:
  void SetUp() override { SetMorselRowsForTest(kTestMorselRows); }
  void TearDown() override {
    SetMorselRowsForTest(0);
    SetJoinWherePushdownForTest(true);
  }
};

TEST_F(RowAddressedRandTest, SidGroupByBitIdenticalAcrossThreads) {
  CheckQueryAcrossThreads(10007, kSidAggregateSql);
}

TEST_F(RowAddressedRandTest, BernoulliWhereBitIdenticalAcrossThreads) {
  CheckQueryAcrossThreads(
      10007,
      "select count(*) as c, sum(price) as sp, avg(qty) as aq "
      "from orders where rand() < 0.3");
}

TEST_F(RowAddressedRandTest, SampledJoinAggregateAcrossThreads) {
  CheckQueryAcrossThreads(
      10007,
      "select d.label, count(*) as c, sum(o.price) as sp "
      "from orders o join dim d on o.k = d.k where rand() < 0.5 "
      "group by d.label order by d.label");
}

TEST_F(RowAddressedRandTest, RandPoissonAcrossThreads) {
  CheckQueryAcrossThreads(
      10007,
      "select qty, sum(price * rand_poisson()) as s from orders "
      "where qty is not null group by qty order by qty");
}

TEST_F(RowAddressedRandTest, RandInGroupByRunsPartialAggregation) {
  // rand() directly in the grouping expression: no serial pin remains, and
  // morsel-partial aggregation must still merge to the serial reference.
  CheckQueryAcrossThreads(
      10007,
      "select 1 + floor(rand() * 8) as bucket, count(*) as c from orders "
      "group by bucket order by bucket");
}

/// Runs `sql` on a fresh seeded database and returns the result.
ResultSet RunFresh(const std::string& sql, int threads) {
  auto db = MakeDb(10007, threads);
  auto rs = db->Execute(sql);
  EXPECT_TRUE(rs.ok()) << sql << " -> " << rs.status().ToString();
  return rs.ok() ? rs.value() : ResultSet{};
}

TEST_F(RowAddressedRandTest, PairViewPushdownToggleInvariant) {
  // The same rand()-bearing join WHERE, evaluated on candidate pairs
  // (pushdown) vs the materialized join (post-gather): the draws address
  // the pair ordinal = materialized row, so results are bit-identical.
  const std::string sql =
      "select o.id, d.label from orders o join dim d on o.k = d.k "
      "where rand() < 0.5 and o.price > 100";
  SetJoinWherePushdownForTest(true);
  ResultSet on = RunFresh(sql, 8);
  SetJoinWherePushdownForTest(false);
  ResultSet off = RunFresh(sql, 8);
  ExpectSameResults(on, off, "pushdown on vs off");
}

TEST_F(RowAddressedRandTest, RandInProjectionOverJoinPushdownInvariant) {
  // rand() in the SELECT list of a joined-and-filtered query: pushdown would
  // compact the gathered join to the WHERE survivors, changing the physical
  // rows the projection's draws address — so the planner must keep such
  // statements on the post-gather plan, making the toggle a no-op and the
  // results identical.
  const std::string sql =
      "select o.id, 1 + floor(rand() * 16) as sid from orders o "
      "join dim d on o.k = d.k where o.id % 2 = 0";
  SetJoinWherePushdownForTest(true);
  ResultSet on = RunFresh(sql, 8);
  SetJoinWherePushdownForTest(false);
  ResultSet off = RunFresh(sql, 8);
  ExpectSameResults(on, off, "projection rand, pushdown on vs off");
}

TEST_F(RowAddressedRandTest, ViewPipelineMatchesEagerReference) {
  // View pipeline (WHERE stays a view) vs an eager reference that
  // materializes the Bernoulli survivors first. Both databases execute the
  // same statement sequence from the same seed, so the rand() draws — and
  // therefore the surviving rows — must coincide.
  const std::string pred = "rand() < 0.4";
  auto eager_db = MakeDb(10007, 8);
  ASSERT_TRUE(eager_db
                  ->Execute("create table tf as select * from orders where " +
                            pred)
                  .ok());
  auto ref = eager_db->Execute(
      "select city, count(*) as c, sum(price) as sp from tf group by city");
  ASSERT_TRUE(ref.ok());
  auto view_db = MakeDb(10007, 8);
  auto got = view_db->Execute(
      "select city, count(*) as c, sum(price) as sp from orders where " +
      pred + " group by city");
  ASSERT_TRUE(got.ok());
  ExpectSameResults(ref.value(), got.value(), "eager vs view pipeline");
}

TEST_F(RowAddressedRandTest, EndToEndAqpBitIdenticalAcrossThreads) {
  // Full middleware path: sample preparation + the rewritten variational
  // query (GROUP BY g, __vdb_sid) at 1/2/8 threads. Sample membership, sid
  // assignment, and every aggregate must agree bit for bit.
  std::vector<ResultSet> results;
  for (int threads : {1, 2, 8}) {
    auto db = std::make_unique<Database>(kSeed);
    ASSERT_TRUE(db->RegisterTable("orders", BuildOrders(50000)).ok());
    core::VerdictOptions opts;
    opts.num_threads = threads;
    opts.min_rows_for_sampling = 10000;
    opts.io_budget = 0.2;
    core::VerdictContext ctx(db.get(), driver::EngineKind::kGeneric, opts);
    ASSERT_TRUE(
        ctx.sample_builder().CreateUniformSample("orders", 0.1).ok());
    core::VerdictContext::ExecInfo info;
    auto rs = ctx.Execute(
        "select city, count(*) as c, sum(price) as sp from orders "
        "group by city order by city",
        &info);
    ASSERT_TRUE(rs.ok()) << rs.status().ToString();
    EXPECT_TRUE(info.approximated) << info.skip_reason;
    results.push_back(rs.value());
  }
  for (size_t i = 1; i < results.size(); ++i) {
    ExpectSameResults(results[0], results[i],
                      "AQP e2e @" + std::to_string(i == 1 ? 2 : 8));
  }
}

// ---- derived relations over a universe sample -------------------------------
//
// A derived relation grouped on the hash column of a universe sample may
// read that sample in place of its base table (docs/INVARIANTS.md,
// "Derived-relation sample contract"). The differential: on every row
// joined to the sample, the derived values over the sample equal those over
// the base table. Integer-valued aggregates must match exactly; double-valued
// ones to 1e-12 relative, since the sample and the base table split a key's
// rows into different morsels and so round their partial sums differently.

/// `n` rows with ids from `first_id` and keys in [0, max_key], so each key
/// spans several rows and, at the test morsel size, several morsels.
TablePtr BuildLines(size_t n, int64_t first_id, int64_t max_key,
                    uint64_t seed) {
  Rng rng(seed);
  auto t = std::make_shared<Table>();
  t->AddColumn("id", TypeId::kInt64);
  t->AddColumn("k", TypeId::kInt64);
  t->AddColumn("qty", TypeId::kInt64);
  t->AddColumn("price", TypeId::kDouble);
  for (size_t r = 0; r < n; ++r) {
    t->AppendRow({Value::Int(first_id + static_cast<int64_t>(r)),
                  Value::Int(rng.NextInRange(0, max_key)),
                  Value::Int(rng.NextInRange(1, 50)),
                  Value::Double(rng.NextDouble() * 1000.0)});
  }
  return t;
}

/// Every sample row joined to the per-key aggregates of `from`.
std::string JoinDerived(const std::string& sample, const std::string& from) {
  return "select s.id, f.c, f.sq, f.mx, f.sp, f.ap from " + sample +
         " s inner join (select k, count(*) as c, sum(qty) as sq,"
         " max(qty) as mx, sum(price) as sp, avg(price) as ap from " +
         from + " where qty > 3 group by k) as f on f.k = s.k order by s.id";
}

TEST_F(ParallelTest, DerivedOverUniverseSampleMatchesBase) {
  const std::string sample = "lines_vdb_hashed_k";
  const std::string flattened =
      "select count(*) as c from lines l"
      " where l.price > (select avg(price) from lines where k = l.k)";
  std::vector<ResultSet> over_sample;  // per thread count, before and after
  for (int threads : {1, 2, 8}) {
    auto db = std::make_unique<Database>(kSeed);
    ASSERT_TRUE(
        db->RegisterTable("lines", BuildLines(20011, 0, 2999, kSeed)).ok());
    core::VerdictOptions opts;
    opts.num_threads = threads;
    opts.min_rows_for_sampling = 10000;
    opts.io_budget = 0.3;
    core::VerdictContext ctx(db.get(), driver::EngineKind::kGeneric, opts);
    ASSERT_TRUE(ctx.sample_builder().CreateHashedSample("lines", "k", 0.2).ok());

    for (int round = 0; round < 2; ++round) {
      const std::string what = "@" + std::to_string(threads) +
                               " threads, round " + std::to_string(round);
      // The rewriter applies the rule to the flattened subquery.
      core::VerdictContext::ExecInfo info;
      ASSERT_TRUE(ctx.Execute(flattened, &info).ok()) << what;
      ASSERT_TRUE(info.approximated) << what << ": " << info.skip_reason;
      EXPECT_NE(info.rewritten_sql.find("from " + sample +
                                        " as lines group by k"),
                std::string::npos)
          << what << ": " << info.rewritten_sql;

      auto base = db->Execute(JoinDerived(sample, "lines"));
      auto over = db->Execute(JoinDerived(sample, sample + " as lines"));
      ASSERT_TRUE(base.ok()) << base.status().ToString();
      ASSERT_TRUE(over.ok()) << over.status().ToString();
      ASSERT_GT(base.value().NumRows(), 1000u) << what;
      ExpectSameResults(base.value(), over.value(),
                        "derived over sample vs base " + what, 1e-12);
      over_sample.push_back(over.value());

      if (round == 0) {
        // Grow the table: old keys gain rows and new keys appear, and
        // AppendData must extend the sample by the build's own cut-off.
        ASSERT_TRUE(
            db->RegisterTable("staging", BuildLines(7013, 20011, 3599, 7))
                .ok());
        ASSERT_TRUE(ctx.sample_builder().AppendData("lines", "staging").ok());
        ASSERT_TRUE(db->catalog().DropTable("staging", false).ok());
      }
    }
  }
  // And the sample side itself is bit-identical at every thread count.
  for (size_t i = 2; i < over_sample.size(); ++i) {
    ExpectSameResults(over_sample[i % 2], over_sample[i],
                      "derived over sample across threads");
  }
}

// ---- sample construction ---------------------------------------------------

TEST_F(ParallelTest, SampleBuildsDeterministicAcrossThreads) {
  struct SamplePair {
    ResultSet uniform;
    ResultSet hashed;
  };
  std::vector<SamplePair> results;
  for (int threads : {1, 2, 8}) {
    auto db = std::make_unique<Database>(kSeed);
    ASSERT_TRUE(db->RegisterTable("orders", BuildOrders(10007)).ok());
    core::VerdictOptions opts;
    opts.num_threads = threads;
    core::VerdictContext ctx(db.get(), driver::EngineKind::kGeneric, opts);
    auto uni = ctx.sample_builder().CreateUniformSample("orders", 0.3);
    ASSERT_TRUE(uni.ok()) << uni.status().ToString();
    auto hashed = ctx.sample_builder().CreateHashedSample("orders", "id", 0.3);
    ASSERT_TRUE(hashed.ok()) << hashed.status().ToString();
    auto u = db->Execute("select * from " + uni.value().sample_table);
    auto h = db->Execute("select * from " + hashed.value().sample_table);
    ASSERT_TRUE(u.ok());
    ASSERT_TRUE(h.ok());
    results.push_back({u.value(), h.value()});
  }
  ASSERT_EQ(results.size(), 3u);
  for (size_t i = 1; i < results.size(); ++i) {
    ExpectSameResults(results[0].uniform, results[i].uniform,
                      "uniform sample");
    ExpectSameResults(results[0].hashed, results[i].hashed, "hashed sample");
  }
}

}  // namespace
}  // namespace vdb::engine
