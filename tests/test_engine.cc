// Engine execution tests: scans, filters, expressions, joins, aggregation,
// windows, subqueries, DDL.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "engine/aggregates.h"
#include "engine/binder.h"
#include "engine/database.h"
#include "engine/functions.h"
#include "engine/hll.h"
#include "engine/vector_eval.h"
#include "sql/ast.h"

namespace vdb::engine {
namespace {

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto t = std::make_shared<Table>();
    t->AddColumn("id", TypeId::kInt64);
    t->AddColumn("city", TypeId::kString);
    t->AddColumn("price", TypeId::kDouble);
    t->AddColumn("qty", TypeId::kInt64);
    struct Row {
      int64_t id;
      const char* city;
      double price;
      int64_t qty;
    };
    const Row rows[] = {
        {1, "ann arbor", 10.0, 1}, {2, "ann arbor", 20.0, 2},
        {3, "detroit", 30.0, 3},   {4, "detroit", 40.0, 4},
        {5, "chicago", 50.0, 5},   {6, "chicago", 60.0, 6},
        {7, "chicago", 70.0, 7},
    };
    for (const auto& r : rows) {
      t->AppendRow({Value::Int(r.id), Value::String(r.city),
                    Value::Double(r.price), Value::Int(r.qty)});
    }
    ASSERT_TRUE(db_.RegisterTable("orders", t).ok());

    auto c = std::make_shared<Table>();
    c->AddColumn("city", TypeId::kString);
    c->AddColumn("state", TypeId::kString);
    c->AppendRow({Value::String("ann arbor"), Value::String("MI")});
    c->AppendRow({Value::String("detroit"), Value::String("MI")});
    c->AppendRow({Value::String("chicago"), Value::String("IL")});
    ASSERT_TRUE(db_.RegisterTable("cities", c).ok());
  }

  ResultSet Run(const std::string& sql) {
    auto rs = db_.Execute(sql);
    EXPECT_TRUE(rs.ok()) << sql << " -> " << rs.status().ToString();
    return rs.ok() ? rs.value() : ResultSet{};
  }

  Database db_;
};

TEST_F(EngineTest, SelectStar) {
  auto rs = Run("select * from orders");
  EXPECT_EQ(rs.NumRows(), 7u);
  EXPECT_EQ(rs.NumCols(), 4u);
  EXPECT_EQ(rs.names[1], "city");
}

TEST_F(EngineTest, Projection) {
  auto rs = Run("select id, price * 2 as double_price from orders");
  EXPECT_EQ(rs.NumCols(), 2u);
  EXPECT_DOUBLE_EQ(rs.GetDouble(0, 1), 20.0);
}

TEST_F(EngineTest, Filter) {
  auto rs = Run("select id from orders where price > 35 and qty < 7");
  EXPECT_EQ(rs.NumRows(), 3u);
}

TEST_F(EngineTest, FilterWithInList) {
  auto rs = Run("select id from orders where city in ('detroit', 'chicago')");
  EXPECT_EQ(rs.NumRows(), 5u);
}

TEST_F(EngineTest, FilterWithLike) {
  auto rs = Run("select id from orders where city like 'ann%'");
  EXPECT_EQ(rs.NumRows(), 2u);
}

TEST_F(EngineTest, FilterBetween) {
  auto rs = Run("select id from orders where price between 20 and 50");
  EXPECT_EQ(rs.NumRows(), 4u);
}

TEST_F(EngineTest, CaseExpression) {
  auto rs = Run(
      "select sum(case when city = 'chicago' then price else 0.0 end) as s "
      "from orders");
  EXPECT_DOUBLE_EQ(rs.GetDouble(0, 0), 180.0);
}

TEST_F(EngineTest, Aggregates) {
  auto rs = Run(
      "select count(*) as c, sum(price) as s, avg(price) as a, "
      "min(price) as mn, max(price) as mx from orders");
  EXPECT_EQ(rs.Get(0, 0).AsInt(), 7);
  EXPECT_DOUBLE_EQ(rs.GetDouble(0, 1), 280.0);
  EXPECT_DOUBLE_EQ(rs.GetDouble(0, 2), 40.0);
  EXPECT_DOUBLE_EQ(rs.GetDouble(0, 3), 10.0);
  EXPECT_DOUBLE_EQ(rs.GetDouble(0, 4), 70.0);
}

TEST_F(EngineTest, GroupBy) {
  auto rs = Run(
      "select city, count(*) as c, sum(price) as s from orders "
      "group by city order by city");
  ASSERT_EQ(rs.NumRows(), 3u);
  EXPECT_EQ(rs.Get(0, 0).AsString(), "ann arbor");
  EXPECT_EQ(rs.Get(0, 1).AsInt(), 2);
  EXPECT_DOUBLE_EQ(rs.GetDouble(1, 2), 180.0);  // chicago
}

TEST_F(EngineTest, GroupByExpression) {
  auto rs = Run(
      "select qty % 2 as parity, count(*) as c from orders "
      "group by qty % 2 order by parity");
  ASSERT_EQ(rs.NumRows(), 2u);
  EXPECT_EQ(rs.Get(0, 1).AsInt(), 3);  // even qty: 2,4,6
  EXPECT_EQ(rs.Get(1, 1).AsInt(), 4);
}

TEST_F(EngineTest, Having) {
  auto rs = Run(
      "select city, count(*) as c from orders group by city "
      "having count(*) > 2");
  ASSERT_EQ(rs.NumRows(), 1u);
  EXPECT_EQ(rs.Get(0, 0).AsString(), "chicago");
}

TEST_F(EngineTest, HavingOnUnselectedAggregate) {
  auto rs = Run(
      "select city from orders group by city having sum(price) >= 100");
  EXPECT_EQ(rs.NumRows(), 1u);
}

TEST_F(EngineTest, CountDistinctAndVariance) {
  auto rs = Run(
      "select count(distinct city) as dc, var(price) as v, "
      "stddev(qty) as sd from orders");
  EXPECT_EQ(rs.Get(0, 0).AsInt(), 3);
  EXPECT_NEAR(rs.GetDouble(0, 1), 466.666, 0.01);
  EXPECT_NEAR(rs.GetDouble(0, 2), 2.160, 0.01);
}

TEST_F(EngineTest, QuantileAndMedian) {
  auto rs = Run(
      "select median(price) as m, quantile(price, 0.25) as q from orders");
  EXPECT_DOUBLE_EQ(rs.GetDouble(0, 0), 40.0);
  EXPECT_DOUBLE_EQ(rs.GetDouble(0, 1), 25.0);
}

TEST_F(EngineTest, InnerJoin) {
  auto rs = Run(
      "select state, sum(price) as s from orders "
      "inner join cities on orders.city = cities.city "
      "group by state order by state");
  ASSERT_EQ(rs.NumRows(), 2u);
  EXPECT_EQ(rs.Get(0, 0).AsString(), "IL");
  EXPECT_DOUBLE_EQ(rs.GetDouble(0, 1), 180.0);
  EXPECT_DOUBLE_EQ(rs.GetDouble(1, 1), 100.0);
}

TEST_F(EngineTest, JoinWithResidualPredicate) {
  auto rs = Run(
      "select count(*) as c from orders o inner join cities c2 "
      "on o.city = c2.city and o.price > 30");
  EXPECT_EQ(rs.Get(0, 0).AsInt(), 4);
}

TEST_F(EngineTest, LeftJoin) {
  auto rs = Run(
      "select count(*) as c, count(s2.state) as matched from orders o "
      "left join (select * from cities where state = 'MI') as s2 "
      "on o.city = s2.city");
  EXPECT_EQ(rs.Get(0, 0).AsInt(), 7);
  EXPECT_EQ(rs.Get(0, 1).AsInt(), 4);
}

TEST_F(EngineTest, DerivedTable) {
  auto rs = Run(
      "select avg(s) as a from (select city, sum(price) as s from orders "
      "group by city) as t");
  EXPECT_NEAR(rs.GetDouble(0, 0), 280.0 / 3.0, 1e-9);
}

TEST_F(EngineTest, PrunedOutputsMatchReferencesCaseInsensitively) {
  // Column references are case-insensitive, and so is projection pruning:
  // an upper-case reference must keep the derived-table or join column it
  // names and return exactly the bits of the lower-case spelling.
  const std::vector<std::pair<std::string, std::string>> kSpellings = {
      {"select sum(Price) as s from (select id, price from orders) as d",
       "select sum(price) as s from (select id, price from orders) as d"},
      {"select sum(S) as s from (select id, price as S from orders) as d",
       "select sum(s) as s from (select id, price as s from orders) as d"},
      {"select sum(O.PRICE) as s from orders o join cities c "
       "on o.CITY = C.city where c.STATE = 'MI'",
       "select sum(o.price) as s from orders o join cities c "
       "on o.city = c.city where c.state = 'MI'"},
  };
  for (const auto& [mixed, lower] : kSpellings) {
    auto got = db_.Execute(mixed);
    ASSERT_TRUE(got.ok()) << mixed << " -> " << got.status().ToString();
    ResultSet want = Run(lower);
    ASSERT_EQ(got.value().NumRows(), 1u) << mixed;
    ASSERT_EQ(want.NumRows(), 1u) << lower;
    const Value a = got.value().Get(0, 0);
    const Value b = want.Get(0, 0);
    ASSERT_EQ(a.type(), TypeId::kDouble) << mixed;
    ASSERT_EQ(b.type(), TypeId::kDouble) << lower;
    const double da = a.AsDouble(), db = b.AsDouble();
    EXPECT_EQ(std::memcmp(&da, &db, sizeof(double)), 0)
        << mixed << ": " << da << " vs " << db;
  }
}

TEST_F(EngineTest, ScalarSubquery) {
  auto rs = Run(
      "select count(*) as c from orders "
      "where price > (select avg(price) from orders)");
  EXPECT_EQ(rs.Get(0, 0).AsInt(), 3);
}

TEST_F(EngineTest, ExistsSubquery) {
  auto rs = Run(
      "select count(*) as c from orders where exists "
      "(select 1 from cities where state = 'IL')");
  EXPECT_EQ(rs.Get(0, 0).AsInt(), 7);
}

TEST_F(EngineTest, WindowPartition) {
  auto rs = Run(
      "select city, count(*) as c, "
      "(sum(count(*)) over ()) as total from orders group by city");
  ASSERT_EQ(rs.NumRows(), 3u);
  for (size_t r = 0; r < 3; ++r) {
    EXPECT_EQ(rs.Get(r, 2).AsInt(), 7);
  }
}

TEST_F(EngineTest, WindowPartitionByGroupColumn) {
  // The shape VerdictDB's rewriter emits (Appendix G, Query 9).
  auto rs = Run(
      "select city, qty % 2 as parity, count(*) as c, "
      "sum(count(*)) over (partition by city) as city_total "
      "from orders group by city, qty % 2 order by city, parity");
  ASSERT_EQ(rs.NumRows(), 6u);
  // chicago has 3 rows total.
  for (size_t r = 0; r < rs.NumRows(); ++r) {
    if (rs.Get(r, 0).AsString() == "chicago") {
      EXPECT_EQ(rs.Get(r, 3).AsInt(), 3);
    }
  }
}

TEST_F(EngineTest, OrderByAndLimit) {
  auto rs = Run("select id, price from orders order by price desc limit 3");
  ASSERT_EQ(rs.NumRows(), 3u);
  EXPECT_EQ(rs.Get(0, 0).AsInt(), 7);
  EXPECT_EQ(rs.Get(2, 0).AsInt(), 5);
}

TEST_F(EngineTest, OrderByOrdinal) {
  auto rs = Run("select city, sum(price) as s from orders group by city "
                "order by 2 desc");
  EXPECT_EQ(rs.Get(0, 0).AsString(), "chicago");
}

TEST_F(EngineTest, Distinct) {
  auto rs = Run("select distinct city from orders");
  EXPECT_EQ(rs.NumRows(), 3u);
}

TEST_F(EngineTest, UnionAll) {
  auto rs = Run(
      "select id from orders where id <= 2 union all "
      "select id from orders where id >= 6");
  EXPECT_EQ(rs.NumRows(), 4u);
}

TEST_F(EngineTest, CreateTableAsAndInsert) {
  ASSERT_TRUE(db_.Execute("create table big as select * from orders "
                          "where price >= 40").ok());
  auto rs = Run("select count(*) as c from big");
  EXPECT_EQ(rs.Get(0, 0).AsInt(), 4);
  ASSERT_TRUE(db_.Execute("insert into big select * from orders "
                          "where price < 40").ok());
  rs = Run("select count(*) as c from big");
  EXPECT_EQ(rs.Get(0, 0).AsInt(), 7);
  ASSERT_TRUE(db_.Execute("drop table big").ok());
  EXPECT_FALSE(db_.Execute("select * from big").ok());
  EXPECT_TRUE(db_.Execute("drop table if exists big").ok());
}

TEST_F(EngineTest, InsertCoercesCellsLikeRowAppends) {
  // INSERT appends each selected column as one range; a cell whose type
  // differs from the target column's coerces as a row append would: an int
  // widens into a double column, and NULLs stay NULL in every type.
  auto target = std::make_shared<Table>();
  target->AddColumn("d", TypeId::kDouble);
  target->AddColumn("i", TypeId::kInt64);
  target->AddColumn("s", TypeId::kString);
  target->AppendRow({Value::Double(1.5), Value::Int(7), Value::String("a")});
  ASSERT_TRUE(db_.RegisterTable("target", target).ok());
  ASSERT_TRUE(db_.Execute("insert into target select qty as d,"
                          " case when id > 1 then id end as i,"
                          " case when id < 2 then city end as s"
                          " from orders where id <= 2")
                  .ok());
  auto rs = Run("select d, i, s from target");
  ASSERT_EQ(rs.NumRows(), 3u);
  EXPECT_EQ(target->column(0).type(), TypeId::kDouble);
  EXPECT_EQ(target->column(1).type(), TypeId::kInt64);
  EXPECT_EQ(target->column(2).type(), TypeId::kString);
  EXPECT_EQ(rs.Get(1, 0).type(), TypeId::kDouble);
  EXPECT_EQ(rs.Get(1, 0).AsDouble(), 1.0);
  EXPECT_EQ(rs.Get(2, 0).AsDouble(), 2.0);
  EXPECT_TRUE(rs.Get(1, 1).is_null());
  EXPECT_EQ(rs.Get(2, 1).AsInt(), 2);
  EXPECT_EQ(rs.Get(1, 2).AsString(), "ann arbor");
  EXPECT_TRUE(rs.Get(2, 2).is_null());
  EXPECT_EQ(rs.Get(0, 0).AsDouble(), 1.5);
  EXPECT_EQ(rs.Get(0, 2).AsString(), "a");
}

TEST_F(EngineTest, SelectConstants) {
  auto rs = Run("select 1 + 2 as three, 'x' as s");
  EXPECT_EQ(rs.Get(0, 0).AsInt(), 3);
  EXPECT_EQ(rs.Get(0, 1).AsString(), "x");
}

TEST_F(EngineTest, NullHandling) {
  ASSERT_TRUE(db_.Execute("create table n as select id, "
                          "case when id > 5 then null else price end as p "
                          "from orders").ok());
  auto rs = Run("select count(*) as c, count(p) as cp, sum(p) as s from n");
  EXPECT_EQ(rs.Get(0, 0).AsInt(), 7);
  EXPECT_EQ(rs.Get(0, 1).AsInt(), 5);
  EXPECT_DOUBLE_EQ(rs.GetDouble(0, 2), 150.0);
  // Three-valued logic: NULL comparisons don't satisfy WHERE.
  rs = Run("select count(*) as c from n where p > 0");
  EXPECT_EQ(rs.Get(0, 0).AsInt(), 5);
  rs = Run("select count(*) as c from n where p is null");
  EXPECT_EQ(rs.Get(0, 0).AsInt(), 2);
}

TEST_F(EngineTest, RandIsDeterministicPerSeed) {
  Database db1(123), db2(123);
  auto t = std::make_shared<Table>();
  t->AddColumn("x", TypeId::kInt64);
  for (int i = 0; i < 100; ++i) t->AppendRow({Value::Int(i)});
  ASSERT_TRUE(db1.RegisterTable("t", t).ok());
  ASSERT_TRUE(db2.RegisterTable("t", t).ok());
  auto r1 = db1.Execute("select count(*) as c from t where rand() < 0.5");
  auto r2 = db2.Execute("select count(*) as c from t where rand() < 0.5");
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_EQ(r1.value().Get(0, 0).AsInt(), r2.value().Get(0, 0).AsInt());
}

TEST_F(EngineTest, RandFreeStatementsDrawNoSeed) {
  // Only statements calling a rand-family function draw a query seed, so
  // rand-free statements run in between (reads, subqueries, DDL, INSERT)
  // leave the next rand statement's draws alone.
  Database quiet(123), busy(123);
  auto t = std::make_shared<Table>();
  t->AddColumn("x", TypeId::kInt64);
  for (int i = 0; i < 100; ++i) t->AppendRow({Value::Int(i)});
  ASSERT_TRUE(quiet.RegisterTable("t", t).ok());
  ASSERT_TRUE(busy.RegisterTable("t", t).ok());
  const uint64_t generation = busy.write_generation();
  for (const char* sql :
       {"select count(*) as c from t", "create table u as select x from t",
        "insert into u select x from t where x < 10",
        "select x from t where x > (select avg(x) from u)", "drop table u"}) {
    ASSERT_TRUE(busy.Execute(sql).ok()) << sql;
  }
  EXPECT_GT(busy.write_generation(), generation);  // CTAS, INSERT, DROP
  const std::string draws =
      "select x, rand() as r from t where x < (select max(rand_poisson())"
      " + 50 from t)";
  auto a = quiet.Execute(draws);
  auto b = busy.Execute(draws);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a.value().NumRows(), b.value().NumRows());
  for (size_t r = 0; r < a.value().NumRows(); ++r) {
    EXPECT_EQ(a.value().GetDouble(r, 1), b.value().GetDouble(r, 1));
  }
  // ... and a rand statement does draw: the next one differs.
  auto c = quiet.Execute(draws);
  ASSERT_TRUE(c.ok());
  EXPECT_NE(a.value().GetDouble(0, 1), c.value().GetDouble(0, 1));
}

TEST_F(EngineTest, ErrorOnUnknownColumn) {
  auto rs = db_.Execute("select nope from orders");
  EXPECT_FALSE(rs.ok());
  EXPECT_EQ(rs.status().code(), StatusCode::kNotFound);
}

TEST_F(EngineTest, ErrorOnUngroupedColumn) {
  auto rs = db_.Execute("select city, count(*) from orders");
  EXPECT_FALSE(rs.ok());
}

// Misplaced or malformed aggregate/window calls and unknown functions are
// bind errors naming the function — never INTERNAL, never a crash, and never
// deferred to a row that may not exist.
TEST_F(EngineTest, AggregateOrWindowInRowContextIsABindError) {
  ASSERT_TRUE(
      db_.Execute("create table empty_orders as select * from orders "
                  "where id < 0").ok());
  struct Case {
    const char* sql;
    const char* names;
  };
  const Case cases[] = {
      {"select count(*) from orders where sum(price) > 3", "'sum'"},
      {"select count(*) from orders where row_number() over () > 3",
       "'row_number'"},
      {"select count(*) from empty_orders where sum(price) > 3", "'sum'"},
      {"select sum(sum(price)) from orders", "'sum'"},
      {"select count(*) from orders group by max(qty)", "'max'"},
      {"select count(*) from orders o join cities c "
       "on o.city = c.city and avg(o.price) > 1",
       "'avg'"},
      {"select city, count(*) from orders group by city "
       "having rank() over () > 1",
       "'rank'"},
      // `*` is an argument of count alone among the built-in aggregates.
      {"select sum(*) from orders", "'sum'"},
      {"select avg(*) from orders", "'avg'"},
      {"select min(*) from orders", "'min'"},
      {"select var(*) from orders", "'var'"},
      {"select median(*) from orders", "'median'"},
      {"select sum(*) over (partition by city) from orders", "'sum'"},
      {"select sum(*) from empty_orders", "'sum'"},
      // DISTINCT is implemented for count alone.
      {"select sum(distinct price) from orders", "'sum'"},
      // The quantile fraction is a numeric literal in [0, 1].
      {"select quantile(price, 2) from orders", "'quantile'"},
      {"select quantile(price, -1) from orders", "'quantile'"},
      {"select quantile(price, 0.5 + 0.4) from orders", "'quantile'"},
      {"select quantile(price, qty) from orders", "'quantile'"},
      {"select quantile(price) from orders", "'quantile'"},
      {"select quantile(price, 2) over (partition by city) from orders",
       "'quantile'"},
      {"select percentile(price, 1.5) from empty_orders", "'percentile'"},
  };
  for (const Case& c : cases) {
    auto rs = db_.Execute(c.sql);
    ASSERT_FALSE(rs.ok()) << c.sql;
    EXPECT_EQ(rs.status().code(), StatusCode::kInvalidArgument)
        << c.sql << " -> " << rs.status().ToString();
    EXPECT_NE(rs.status().message().find(c.names), std::string::npos)
        << c.sql << " -> " << rs.status().ToString();
  }
}

TEST_F(EngineTest, UnknownFunctionIsABindError) {
  ASSERT_TRUE(
      db_.Execute("create table empty_orders as select * from orders "
                  "where id < 0").ok());
  for (const char* sql :
       {"select nosuchfn(price) from orders",
        "select nosuchfn(price) from empty_orders",
        "select count(*) from empty_orders where nosuchfn(price) > 0",
        "select city, sum(nosuchfn(price)) from empty_orders group by city",
        "select city, nosuchfn(count(*)) from empty_orders group by city"}) {
    auto rs = db_.Execute(sql);
    ASSERT_FALSE(rs.ok()) << sql;
    EXPECT_EQ(rs.status().code(), StatusCode::kUnsupported)
        << sql << " -> " << rs.status().ToString();
    EXPECT_NE(rs.status().message().find("nosuchfn"), std::string::npos)
        << rs.status().ToString();
  }
}

TEST_F(EngineTest, WrongArgumentCountIsABindError) {
  // greatest() used to index an empty argument list per row.
  for (const char* sql :
       {"select greatest() from orders", "select rand(1) from orders",
        "select count(*) from orders where substr(city) = 'a'"}) {
    auto rs = db_.Execute(sql);
    ASSERT_FALSE(rs.ok()) << sql;
    EXPECT_EQ(rs.status().code(), StatusCode::kInvalidArgument)
        << sql << " -> " << rs.status().ToString();
  }
}

// Every built-in scalar name, aliases included, resolves and yields — for
// one fixed argument list — the Value the name-dispatched evaluator
// returned before resolution moved to bind time (captured from it,
// doubles as hex literals). Guards the name table against a dropped or
// swapped alias. Each call runs through the production batch evaluator
// over a one-row batch whose row id is 7.
TEST(ScalarFunctionTable, EveryBuiltinNameKeepsItsValue) {
  struct Case {
    const char* name;
    std::vector<Value> args;
    Value want;
  };
  const Value s_abc = Value::String("abc");
  const Value s_verdict = Value::String("verdict");
  const std::vector<Value> mixed = {Value::Int(3), Value::Double(7.5),
                                    Value::Int(5)};
  const Case cases[] = {
      {"rand", {}, Value::Double(0x1.21a823f75031fp-1)},
      {"random", {}, Value::Double(0x1.21a823f75031fp-1)},
      {"rand_poisson", {}, Value::Int(1)},
      {"coalesce", {Value::Null(), Value::Int(7), Value::Int(8)},
       Value::Int(7)},
      {"if", {Value::Bool(false), Value::String("a"), Value::String("b")},
       Value::String("b")},
      {"nullif", {Value::Int(3), Value::Double(3.0)}, Value::Null()},
      {"floor", {Value::Double(-2.5)}, Value::Int(-3)},
      {"ceil", {Value::Double(-2.5)}, Value::Int(-2)},
      {"ceiling", {Value::Double(-2.5)}, Value::Int(-2)},
      {"abs", {Value::Int(-7)}, Value::Int(7)},
      {"sqrt", {Value::Double(2.25)}, Value::Double(0x1.8p+0)},
      {"exp", {Value::Double(1.0)}, Value::Double(0x1.5bf0a8b145769p+1)},
      {"ln", {Value::Double(10.0)}, Value::Double(0x1.26bb1bbb55516p+1)},
      {"log", {Value::Double(10.0)}, Value::Double(0x1.26bb1bbb55516p+1)},
      {"power", {Value::Double(2.0), Value::Int(10)}, Value::Double(0x1p+10)},
      {"pow", {Value::Double(2.0), Value::Int(10)}, Value::Double(0x1p+10)},
      {"mod", {Value::Int(17), Value::Int(5)}, Value::Int(2)},
      {"mod",
       {Value::Int(std::numeric_limits<int64_t>::min()), Value::Int(-1)},
       Value::Int(0)},
      {"round", {Value::Double(2.71828), Value::Int(2)},
       Value::Double(0x1.5c28f5c28f5c3p+1)},
      {"sign", {Value::Double(-0.5)}, Value::Int(-1)},
      {"greatest", mixed, Value::Double(0x1.ep+2)},
      {"least", mixed, Value::Int(3)},
      {"verdict_hash", {s_abc}, Value::Double(0x1.9f5d7cc93e5ep-3)},
      {"unit_hash", {s_abc}, Value::Double(0x1.9f5d7cc93e5ep-3)},
      {"crc32", {s_abc}, Value::Int(891568578)},
      {"hash64", {Value::Int(12345)}, Value::Int(858311753342506876)},
      {"length", {Value::Double(2.5)}, Value::Int(3)},
      {"upper", {Value::String("aBc")}, Value::String("ABC")},
      {"lower", {Value::String("aBc")}, Value::String("abc")},
      {"substr", {s_verdict, Value::Int(3), Value::Int(2)},
       Value::String("rd")},
      {"substring", {s_verdict, Value::Int(3), Value::Int(2)},
       Value::String("rd")},
      {"concat",
       {Value::String("a"), Value::Int(1), Value::Double(2.5),
        Value::Bool(true)},
       Value::String("a12.5true")},
      {"year", {Value::Int(20240315)}, Value::Int(2024)},
      {"month", {Value::Int(20240315)}, Value::Int(3)},
      {"cast_double", {Value::Int(7)}, Value::Double(7.0)},
      {"to_double", {Value::Int(7)}, Value::Double(7.0)},
      {"cast_int", {Value::Double(7.9)}, Value::Int(7)},
      {"to_int", {Value::Double(7.9)}, Value::Int(7)},
  };
  Table one_row;
  one_row.AddColumn("x", TypeId::kInt64);
  one_row.AppendRow({Value::Int(0)});
  const Batch batch{&one_row, nullptr, /*rand_seed=*/42, 0,
                    Batch::kWholeTable, /*row_id_offset=*/7};
  for (const Case& c : cases) {
    std::vector<sql::Expr::Ptr> argv;
    for (const Value& a : c.args) argv.push_back(sql::MakeLiteral(a));
    auto call = sql::MakeFunction(c.name, std::move(argv));
    call->rand_site = 3;
    ASSERT_TRUE(ResolveFunctions(call.get()).ok()) << c.name;
    const ScalarFn fn = BoundScalarFn(*call);
    EXPECT_EQ(sql::IsRandFunctionExpr(*call),
              fn == ScalarFn::kRand || fn == ScalarFn::kRandPoisson)
        << c.name;
    auto got = EvalExprBatch(*call, batch);
    ASSERT_TRUE(got.ok()) << c.name << ": " << got.status().ToString();
    ASSERT_EQ(got.value().size(), 1u) << c.name;
    const Value v = got.value().Get(0);
    ASSERT_EQ(v.type(), c.want.type()) << c.name << ": " << v.ToString();
    if (v.type() == TypeId::kDouble) {
      EXPECT_EQ(v.AsDouble(), c.want.AsDouble()) << c.name;
    } else {
      EXPECT_EQ(v.ToString(), c.want.ToString()) << c.name;
    }
  }

  // Evaluation has no name lookup to fall back on: a call that skipped the
  // bind step is an internal error, not a slow success.
  std::vector<sql::Expr::Ptr> argv;
  argv.push_back(sql::MakeIntLit(-7));
  auto unresolved = sql::MakeFunction("abs", std::move(argv));
  auto r = EvalExprBatch(*unresolved, batch);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

// Built-in aggregate names are answered from a static table before the UDA
// registry is consulted; the answers are the ones the registry-first
// lookup gave.
TEST(ScalarFunctionTable, AggregateNamesKeepTheirClassification) {
  for (const char* name :
       {"count", "sum", "avg", "min", "max", "var", "var_samp", "variance",
        "stddev", "stddev_samp", "quantile", "median", "approx_median",
        "percentile", "ndv", "approx_distinct", "approx_count_distinct"}) {
    EXPECT_TRUE(IsAggregateFunction(name)) << name;
  }
  for (const char* name : {"concat", "floor", "rand", "row_number", "rank",
                           "nosuchfn", "", "counts", "su"}) {
    EXPECT_FALSE(IsAggregateFunction(name)) << name;
  }
  EXPECT_FALSE(IsAggregateFunction("test_engine_uda"));
  AggregateRegistry::Global().Register("test_engine_uda",
                                       [] { return nullptr; });
  EXPECT_TRUE(IsAggregateFunction("test_engine_uda"));
}

TEST(HyperLogLogTest, EstimatesCardinality) {
  HyperLogLog hll(14);
  for (uint64_t i = 0; i < 100000; ++i) {
    hll.AddHash(vdb::HashMix64(i % 5000));
  }
  EXPECT_NEAR(hll.Estimate(), 5000, 5000 * 0.05);
}

TEST(HyperLogLogTest, MergeIsUnion) {
  HyperLogLog a(12), b(12);
  for (uint64_t i = 0; i < 2000; ++i) a.AddHash(vdb::HashMix64(i));
  for (uint64_t i = 1000; i < 3000; ++i) b.AddHash(vdb::HashMix64(i));
  a.Merge(b);
  EXPECT_NEAR(a.Estimate(), 3000, 3000 * 0.1);
}

TEST(EngineNdvTest, ApproxDistinct) {
  Database db;
  auto t = std::make_shared<Table>();
  t->AddColumn("x", TypeId::kInt64);
  for (int i = 0; i < 50000; ++i) t->AppendRow({Value::Int(i % 1234)});
  ASSERT_TRUE(db.RegisterTable("t", t).ok());
  auto rs = db.Execute("select ndv(x) as d from t");
  ASSERT_TRUE(rs.ok());
  EXPECT_NEAR(static_cast<double>(rs.value().Get(0, 0).AsInt()), 1234.0,
              1234 * 0.05);
}

}  // namespace
}  // namespace vdb::engine
