// Differential tests for the one aggregate implementation: every grouped
// query the engine runs (per-morsel group ids + FlatAggregator lanes,
// engine/agg_table.h + engine/aggregates.h, merged in morsel order) and every
// window aggregate (the same lanes, one batch per partition) must be
// BIT-identical — doubles compared by bit pattern — to a test-side oracle.
// The oracle fetches the key and argument columns with a plain SELECT and
// aggregates them with row-at-a-time reference accumulators: the SoA-lane
// aggregates' recurrences live only here, the object-lane ones come from
// CreateAccumulator. GROUP BY references run over the same MorselRows()
// decomposition and morsel-order merge (one morsel when an accumulator
// cannot merge); window references feed each partition's rows through Add
// in row order. Axes:
//
//   - 1, 2 and 8 threads (morsel partials merged in fixed morsel order),
//   - scalar vs. native SIMD dispatch (VDB_SIMD's mechanism),
//   - dense and sparse WHERE bitmaps (survivor-rank morsel decomposition),
//   - forced hash collisions (SetGroupHashMaskForTest truncates every group
//     hash to a handful of buckets, so correctness rides on the group
//     table's representative-row verification, not on hash quality),
//   - SoA lanes beside per-group object lanes (DISTINCT, median, ndv) and a
//     non-mergeable UDA,
//   - window partitions over every key shape, `over ()` included,
//   - adversarial values: NaN and ±0.0 group keys, full-mantissa doubles,
//     NULL-heavy columns, all-NULL aggregate inputs, and morsel sizes that
//     leave ragged tails,
//   - key and argument lanes whose type changes from morsel to morsel
//     (Int64 / Double / kNull), and result columns mixing Int, Double and
//     NULL groups.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "engine/agg_table.h"
#include "engine/aggregates.h"
#include "engine/database.h"
#include "engine/kernels/kernels.h"
#include "engine/table.h"

namespace vdb::engine {
namespace {

constexpr uint64_t kSeed = 20260808;
// FlatAggTest's morsel size: ragged tails on every morsel boundary.
constexpr size_t kTestMorsel = 257;

// ---------------------------------------------------------------------------
// Adversarial input table
// ---------------------------------------------------------------------------

TablePtr BuildAggTable(size_t rows) {
  Rng rng(kSeed);
  auto t = std::make_shared<Table>();
  t->AddColumn("gi", TypeId::kInt64);    // int group key, small domain
  t->AddColumn("gd", TypeId::kDouble);   // double key: NaN, -0.0, NULLs
  t->AddColumn("gs", TypeId::kString);   // string key with NULLs
  t->AddColumn("v", TypeId::kDouble);    // full-mantissa doubles, NULLs
  t->AddColumn("w", TypeId::kInt64);     // int measure with NULLs
  t->AddColumn("z", TypeId::kDouble);    // all NULL
  static const char* kStrs[] = {"a", "b", "ab", "", "long-group-name"};
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (size_t r = 0; r < rows; ++r) {
    std::vector<Value> row;
    row.push_back(Value::Int(rng.NextInRange(-3, 12)));
    switch (rng.NextBounded(8)) {
      case 0: row.push_back(Value::Double(nan)); break;
      case 1: row.push_back(Value::Double(-0.0)); break;
      case 2: row.push_back(Value::Double(0.0)); break;
      case 3: row.push_back(Value::Null()); break;
      default:
        row.push_back(
            Value::Double(static_cast<double>(rng.NextInRange(-4, 4)) * 0.5));
        break;
    }
    row.push_back(rng.NextBernoulli(0.15)
                      ? Value::Null()
                      : Value::String(kStrs[rng.NextBounded(5)]));
    // Full-mantissa doubles: merge-order sensitivity would show up here.
    row.push_back(rng.NextBernoulli(0.1)
                      ? Value::Null()
                      : Value::Double(rng.NextDouble() * 1e9 - 5e8));
    row.push_back(rng.NextBernoulli(0.2)
                      ? Value::Null()
                      : Value::Int(rng.NextInRange(-1000, 1000)));
    row.push_back(Value::Null());
    t->AppendRow(row);
  }
  return t;
}

/// Morsel-phased table: ph = (row / kTestMorsel) % 4 is constant within
/// each of FlatAggTest's morsels, so a CASE on ph evaluates to a different
/// lane type per morsel (kPhased* below) while a whole-table evaluation
/// promotes it to one type.
TablePtr BuildPhasedTable(size_t rows) {
  Rng rng(kSeed + 1);
  auto t = std::make_shared<Table>();
  t->AddColumn("ph", TypeId::kInt64);
  t->AddColumn("gi", TypeId::kInt64);
  t->AddColumn("v", TypeId::kDouble);
  t->AddColumn("w", TypeId::kInt64);
  for (size_t r = 0; r < rows; ++r) {
    t->AppendRow(
        {Value::Int(static_cast<int64_t>((r / kTestMorsel) % 4)),
         Value::Int(rng.NextInRange(-3, 12)),
         rng.NextBernoulli(0.1)
             ? Value::Null()
             : Value::Double(static_cast<double>(rng.NextInRange(-40, 40)) *
                             0.25),
         rng.NextBernoulli(0.1) ? Value::Null()
                                : Value::Int(rng.NextInRange(-1000, 1000))});
  }
  return t;
}

// Over the phased table: Int64 lanes in ph 0/3 morsels, Double in ph 1
// (integral values among them, which must merge with the Int64 keys), and
// an all-NULL (kNull) lane in ph 2.
const char kPhasedKey[] =
    "case when ph = 1 then gi / 2.0 when ph <> 2 then gi end";
const char kPhasedArg[] = "case when ph = 1 then v when ph <> 2 then w end";

std::unique_ptr<Database> MakeDb(size_t rows, int threads) {
  auto db = std::make_unique<Database>(kSeed);
  db->set_num_threads(threads);
  EXPECT_TRUE(db->RegisterTable("t", BuildAggTable(rows)).ok());
  EXPECT_TRUE(db->RegisterTable("m", BuildPhasedTable(rows)).ok());
  return db;
}

// Bit-pattern comparison: engine vs. oracle must not differ even in the
// sign of a zero or the payload of a NaN.
void ExpectBitIdentical(const ResultSet& ref, const ResultSet& got,
                        const std::string& what) {
  ASSERT_EQ(ref.NumCols(), got.NumCols()) << what;
  ASSERT_EQ(ref.NumRows(), got.NumRows()) << what;
  for (size_t r = 0; r < ref.NumRows(); ++r) {
    for (size_t c = 0; c < ref.NumCols(); ++c) {
      const Value a = ref.Get(r, c);
      const Value b = got.Get(r, c);
      ASSERT_EQ(a.is_null(), b.is_null())
          << what << " cell (" << r << "," << c << ")";
      if (a.is_null()) continue;
      ASSERT_EQ(a.type(), b.type()) << what << " cell (" << r << "," << c
                                    << "): " << a.ToString() << " vs "
                                    << b.ToString();
      if (a.type() == TypeId::kDouble) {
        uint64_t ab, bb;
        const double ad = a.AsDouble(), bd = b.AsDouble();
        std::memcpy(&ab, &ad, 8);
        std::memcpy(&bb, &bd, 8);
        ASSERT_EQ(ab, bb) << what << " cell (" << r << "," << c
                          << "): " << ad << " vs " << bd;
      } else {
        ASSERT_TRUE(a.Equals(b)) << what << " cell (" << r << "," << c
                                 << "): " << a.ToString() << " vs "
                                 << b.ToString();
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Row-at-a-time reference accumulators
// ---------------------------------------------------------------------------
//
// The reference semantics of the SoA-lane aggregates, one value at a time.
// AddBatch and AddRepeated are AggAccumulator's loops over Add, except for
// min/max: one batch folds its batch-local extremum once.

/// Kahan–Babuška–Neumaier compensated addition, as the engine's lanes do it.
void NeumaierAdd(double& sum, double& comp, double x) {
  const double t = sum + x;
  if (std::abs(sum) >= std::abs(x)) {
    comp += (sum - t) + x;
  } else {
    comp += (x - t) + sum;
  }
  sum = t;
}

class RefCountAcc : public AggAccumulator {
 public:
  explicit RefCountAcc(bool star) : star_(star) {}
  void Add(const Value& v) override {
    if (star_ || !v.is_null()) ++count_;
  }
  bool Mergeable() const override { return true; }
  void Merge(const AggAccumulator& other) override {
    count_ += static_cast<const RefCountAcc&>(other).count_;
  }
  Value Finalize() const override { return Value::Int(count_); }

 private:
  bool star_;
  int64_t count_ = 0;
};

/// Sums in double; finalizes to the rounded Int64 total when every added
/// value was an Int64.
class RefSumAcc : public AggAccumulator {
 public:
  void Add(const Value& v) override {
    if (v.is_null()) return;
    any_ = true;
    if (v.type() != TypeId::kInt64) all_int_ = false;
    NeumaierAdd(sum_, comp_, v.AsDouble());
  }
  bool Mergeable() const override { return true; }
  void Merge(const AggAccumulator& other) override {
    // Compensated merge: fold the partial's value and its error term.
    const auto& o = static_cast<const RefSumAcc&>(other);
    NeumaierAdd(sum_, comp_, o.sum_);
    NeumaierAdd(sum_, comp_, o.comp_);
    any_ = any_ || o.any_;
    all_int_ = all_int_ && o.all_int_;
  }
  Value Finalize() const override {
    if (!any_) return Value::Null();
    const double total = sum_ + comp_;
    if (all_int_) return Value::Int(static_cast<int64_t>(std::llround(total)));
    return Value::Double(total);
  }

 private:
  double sum_ = 0.0;
  double comp_ = 0.0;
  bool any_ = false;
  bool all_int_ = true;
};

class RefAvgAcc : public AggAccumulator {
 public:
  void Add(const Value& v) override {
    if (v.is_null()) return;
    NeumaierAdd(sum_, comp_, v.AsDouble());
    ++n_;
  }
  bool Mergeable() const override { return true; }
  void Merge(const AggAccumulator& other) override {
    const auto& o = static_cast<const RefAvgAcc&>(other);
    NeumaierAdd(sum_, comp_, o.sum_);
    NeumaierAdd(sum_, comp_, o.comp_);
    n_ += o.n_;
  }
  Value Finalize() const override {
    if (n_ == 0) return Value::Null();
    return Value::Double((sum_ + comp_) / static_cast<double>(n_));
  }

 private:
  double sum_ = 0.0;
  double comp_ = 0.0;
  int64_t n_ = 0;
};

class RefMinMaxAcc : public AggAccumulator {
 public:
  explicit RefMinMaxAcc(bool is_min) : is_min_(is_min) {}
  void Add(const Value& v) override {
    if (v.is_null()) return;
    if (!any_) {
      best_ = v;
      any_ = true;
      return;
    }
    const int c = v.Compare(best_);
    if ((is_min_ && c < 0) || (!is_min_ && c > 0)) best_ = v;
  }
  void AddBatch(const Column& col, const uint32_t* rows, size_t n) override {
    // The batch-local extremum under strict typed comparisons (first-seen
    // kept on ties and NaNs), merged once through Add.
    if (col.type() != TypeId::kInt64 && col.type() != TypeId::kDouble &&
        col.type() != TypeId::kString) {
      AggAccumulator::AddBatch(col, rows, n);
      return;
    }
    bool found = false;
    Value best;
    for (size_t i = 0; i < n; ++i) {
      if (col.IsNull(rows[i])) continue;
      Value x = col.Get(rows[i]);
      bool better = !found;
      if (!better && col.type() == TypeId::kInt64) {
        better = is_min_ ? x.AsInt() < best.AsInt() : x.AsInt() > best.AsInt();
      } else if (!better && col.type() == TypeId::kDouble) {
        better = is_min_ ? x.AsDouble() < best.AsDouble()
                         : x.AsDouble() > best.AsDouble();
      } else if (!better) {
        const int c = x.AsString().compare(best.AsString());
        better = is_min_ ? c < 0 : c > 0;
      }
      if (better) {
        best = std::move(x);
        found = true;
      }
    }
    if (found) Add(best);
  }
  bool Mergeable() const override { return true; }
  void Merge(const AggAccumulator& other) override {
    // Add keeps the first-seen value on ties; merging in morsel order keeps
    // that "first in row order" tie-break.
    const auto& o = static_cast<const RefMinMaxAcc&>(other);
    if (o.any_) Add(o.best_);
  }
  Value Finalize() const override { return any_ ? best_ : Value::Null(); }

 private:
  bool is_min_;
  bool any_ = false;
  Value best_;
};

/// Welford online variance; finalizes to sample variance or stddev.
class RefVarAcc : public AggAccumulator {
 public:
  explicit RefVarAcc(bool stddev) : stddev_(stddev) {}
  void Add(const Value& v) override {
    if (v.is_null()) return;
    const double x = v.AsDouble();
    ++n_;
    const double d = x - mean_;
    mean_ += d / static_cast<double>(n_);
    m2_ += d * (x - mean_);
  }
  bool Mergeable() const override { return true; }
  void Merge(const AggAccumulator& other) override {
    // Chan et al.'s pairwise update of Welford state.
    const auto& o = static_cast<const RefVarAcc&>(other);
    if (o.n_ == 0) return;
    if (n_ == 0) {
      n_ = o.n_;
      mean_ = o.mean_;
      m2_ = o.m2_;
      return;
    }
    const double na = static_cast<double>(n_);
    const double nb = static_cast<double>(o.n_);
    const double delta = o.mean_ - mean_;
    const double total = na + nb;
    m2_ += o.m2_ + delta * delta * (na * nb / total);
    mean_ += delta * (nb / total);
    n_ += o.n_;
  }
  Value Finalize() const override {
    if (n_ < 2) return Value::Null();
    const double var = m2_ / static_cast<double>(n_ - 1);
    return Value::Double(stddev_ ? std::sqrt(var) : var);
  }

 private:
  bool stddev_;
  int64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

/// The reference accumulator for `s`: the recurrences above for the SoA-lane
/// aggregates, the engine's own object-lane accumulators otherwise.
std::unique_ptr<AggAccumulator> MakeReference(const AggSpec& s) {
  using Ptr = std::unique_ptr<AggAccumulator>;
  if (!s.distinct) {
    if (s.name == "count") return Ptr(new RefCountAcc(s.arg == nullptr));
    if (s.name == "sum") return Ptr(new RefSumAcc());
    if (s.name == "avg") return Ptr(new RefAvgAcc());
    if (s.name == "min") return Ptr(new RefMinMaxAcc(true));
    if (s.name == "max") return Ptr(new RefMinMaxAcc(false));
    if (s.name == "var" || s.name == "var_samp" || s.name == "variance") {
      return Ptr(new RefVarAcc(false));
    }
    if (s.name == "stddev" || s.name == "stddev_samp") {
      return Ptr(new RefVarAcc(true));
    }
  }
  auto acc = CreateAccumulator(s);
  EXPECT_TRUE(acc.ok()) << acc.status().ToString();
  return std::move(acc).ValueOrDie();
}

// ---------------------------------------------------------------------------
// Test-side oracle
// ---------------------------------------------------------------------------

struct Agg {
  std::string fn;   // aggregate function name
  std::string arg;  // argument column; "*" for count(*)
  bool distinct = false;
  std::string param{};  // quantile fraction literal, if any

  std::string Call() const {
    return fn + "(" + (distinct ? "distinct " : "") + arg +
           (param.empty() ? "" : ", " + param) + ")";
  }
  /// The spec the oracle builds its reference from; `arg_expr` stands in for
  /// the argument (the reference only tests it for null).
  AggSpec Spec(const sql::Expr* arg_expr) const {
    AggSpec s;
    s.name = fn;
    s.distinct = distinct;
    if (arg != "*") s.arg = arg_expr;
    if (!param.empty()) s.param = std::stod(param);
    return s;
  }
};

/// A grouped query in parts, so the oracle can fetch its inputs.
struct GroupQuery {
  std::vector<std::string> keys;
  std::vector<Agg> aggs;
  std::string from;  // FROM clause plus optional WHERE

  std::string Sql() const {
    std::vector<std::string> items = keys;
    for (size_t i = 0; i < aggs.size(); ++i) {
      items.push_back(aggs[i].Call() + " as a" + std::to_string(i));
    }
    std::string sql = "select " + Join(items) + " " + from;
    if (!keys.empty()) sql += " group by " + Join(keys);
    return sql;
  }

  static std::string Join(const std::vector<std::string>& parts) {
    std::string out;
    for (const auto& p : parts) out += (out.empty() ? "" : ", ") + p;
    return out;
  }
};

/// Runs `q` without the engine's grouped path: a plain SELECT (fresh
/// database, same seed, so rand() draws match) fetches keys and arguments
/// in row order; per-morsel reference groups in first-occurrence order then
/// merge in morsel order — first occurrences moved, later ones Merged.
ResultSet RunOracle(size_t rows, const GroupQuery& q) {
  const size_t nk = q.keys.size();
  std::vector<std::string> fetch = q.keys;
  std::vector<size_t> arg_col(q.aggs.size(), 0);
  sql::Expr placeholder;
  std::vector<AggSpec> specs;
  for (size_t i = 0; i < q.aggs.size(); ++i) {
    if (q.aggs[i].arg != "*") {
      arg_col[i] = fetch.size();
      fetch.push_back(q.aggs[i].arg + " as __arg" + std::to_string(i));
    }
    specs.push_back(q.aggs[i].Spec(&placeholder));
  }
  auto fetched =
      MakeDb(rows, 1)->Execute("select " + GroupQuery::Join(fetch) + " " +
                               q.from);
  EXPECT_TRUE(fetched.ok()) << fetched.status().ToString();
  const ResultSet in = std::move(fetched).ValueOrDie();
  const size_t n = in.NumRows();

  using Accs = std::vector<std::unique_ptr<AggAccumulator>>;
  auto make_accs = [&] {
    Accs accs;
    for (const AggSpec& s : specs) accs.push_back(MakeReference(s));
    return accs;
  };
  auto key_of = [&](size_t r) {
    std::vector<std::string> k;
    for (size_t c = 0; c < nk; ++c) k.push_back(ValueGroupKey(in.Get(r, c)));
    return k;
  };
  bool mergeable = true;
  for (const auto& acc : make_accs()) mergeable = mergeable && acc->Mergeable();
  const size_t morsel = mergeable ? MorselRows() : std::max<size_t>(n, 1);

  struct Group {
    std::vector<Value> keys;
    Accs accs;
  };
  std::vector<Group> groups;
  std::map<std::vector<std::string>, size_t> index;
  for (size_t begin = 0; begin < n; begin += morsel) {
    const size_t end = std::min(n, begin + morsel);
    std::map<std::vector<std::string>, size_t> local;
    std::vector<std::vector<std::string>> local_keys;
    std::vector<size_t> local_rep;
    std::vector<SelVector> local_rows;
    for (size_t r = begin; r < end; ++r) {
      auto k = key_of(r);
      auto ins = local.emplace(k, local_rows.size());
      if (ins.second) {
        local_keys.push_back(std::move(k));
        local_rep.push_back(r);
        local_rows.emplace_back();
      }
      local_rows[ins.first->second].push_back(static_cast<uint32_t>(r));
    }
    for (size_t g = 0; g < local_rows.size(); ++g) {
      const SelVector& rs = local_rows[g];
      Accs accs = make_accs();
      for (size_t i = 0; i < specs.size(); ++i) {
        if (specs[i].arg == nullptr) {
          accs[i]->AddRepeated(Value::Int(1), rs.size());
        } else {
          accs[i]->AddBatch(in.table->column(arg_col[i]), rs.data(), rs.size());
        }
      }
      auto ins = index.emplace(local_keys[g], groups.size());
      if (ins.second) {
        Group grp;
        for (size_t c = 0; c < nk; ++c) grp.keys.push_back(in.Get(local_rep[g], c));
        grp.accs = std::move(accs);
        groups.push_back(std::move(grp));
      } else {
        for (size_t i = 0; i < specs.size(); ++i) {
          groups[ins.first->second].accs[i]->Merge(*accs[i]);
        }
      }
    }
  }
  // An aggregate without GROUP BY keys emits one row even over no input.
  if (nk == 0 && groups.empty()) groups.push_back(Group{{}, make_accs()});

  ResultSet out;
  out.table = std::make_shared<Table>();
  for (size_t c = 0; c < nk + specs.size(); ++c) {
    Column col;
    for (const Group& g : groups) {
      col.Append(c < nk ? g.keys[c] : g.accs[c - nk]->Finalize());
    }
    out.names.push_back(c < nk ? q.keys[c] : "a" + std::to_string(c - nk));
    out.table->AddColumn(out.names.back(), std::move(col));
  }
  return out;
}

/// Runs `q` through the engine at `threads` and checks it against `ref`.
void ExpectMatchesOracle(const ResultSet& ref, size_t rows, int threads,
                         const GroupQuery& q, const std::string& what) {
  auto got = MakeDb(rows, threads)->Execute(q.Sql());
  ASSERT_TRUE(got.ok()) << q.Sql() << " -> " << got.status().ToString();
  ExpectBitIdentical(ref, got.value(),
                     q.Sql() + " @" + std::to_string(threads) + " threads, " +
                         what);
}

/// The reference for `agg OVER (PARTITION BY keys)`: a plain SELECT fetches
/// keys and argument in row order, and each partition (ValueGroupKey
/// equivalence, first-occurrence order) feeds its rows, in row order, one at
/// a time through its reference accumulator's Add — the row-at-a-time
/// window semantics. Every row gets its partition's result.
ResultSet RunWindowOracle(size_t rows, const std::vector<std::string>& keys,
                          const Agg& agg, const std::string& table = "t") {
  const size_t nk = keys.size();
  std::vector<std::string> fetch = keys;
  if (agg.arg != "*") fetch.push_back(agg.arg + " as __arg");
  if (fetch.empty()) fetch.push_back("1 as __one");
  auto fetched = MakeDb(rows, 1)->Execute("select " + GroupQuery::Join(fetch) +
                                          " from " + table);
  EXPECT_TRUE(fetched.ok()) << fetched.status().ToString();
  const ResultSet in = std::move(fetched).ValueOrDie();
  const size_t n = in.NumRows();

  sql::Expr placeholder;
  const AggSpec spec = agg.Spec(&placeholder);
  std::map<std::vector<std::string>, size_t> index;
  std::vector<std::unique_ptr<AggAccumulator>> accs;
  std::vector<size_t> part_of_row(n);
  for (size_t r = 0; r < n; ++r) {
    std::vector<std::string> k;
    for (size_t c = 0; c < nk; ++c) k.push_back(ValueGroupKey(in.Get(r, c)));
    auto ins = index.emplace(std::move(k), accs.size());
    if (ins.second) accs.push_back(MakeReference(spec));
    part_of_row[r] = ins.first->second;
    accs[part_of_row[r]]->Add(agg.arg == "*" ? Value::Int(1) : in.Get(r, nk));
  }
  std::vector<Value> results;
  for (const auto& acc : accs) results.push_back(acc->Finalize());
  Column col;
  for (size_t r = 0; r < n; ++r) col.Append(results[part_of_row[r]]);
  ResultSet out;
  out.table = std::make_shared<Table>();
  out.names.push_back("w");
  out.table->AddColumn("w", std::move(col));
  return out;
}

// Restores every knob the tests twist, so suites sharing the binary see
// defaults.
class FlatAggTest : public ::testing::Test {
 protected:
  void SetUp() override {
    detected_ = kernels::DetectedSimdLevel();
    SetMorselRowsForTest(kTestMorsel);
  }
  void TearDown() override {
    SetMorselRowsForTest(0);
    SetGroupHashMaskForTest(~0ull);
    kernels::SetSimdLevelForTest(detected_);
  }
  kernels::SimdLevel detected_ = kernels::SimdLevel::kScalar;
};

// Mixed lanes: SoA count/sum beside object-lane DISTINCT, median and ndv,
// under a selective WHERE.
const GroupQuery kMixedLanes = {
    {"gd"},
    {{"count", "*"}, {"sum", "v"}, {"count", "gs", true}, {"median", "v"},
     {"ndv", "gi"}},
    "from t where w > 500"};

const GroupQuery kGroupQueries[] = {
    {{"gi"}, {{"count", "*"}, {"sum", "v"}}, "from t"},
    {{"gd"},
     {{"count", "*"}, {"sum", "v"}, {"min", "v"}, {"max", "v"}},
     "from t"},
    {{"gi", "gd"}, {{"avg", "v"}, {"sum", "w"}}, "from t"},
    {{"gs"}, {{"count", "w"}, {"var_samp", "v"}, {"stddev", "v"}}, "from t"},
    {{"gi", "gs"}, {{"min", "w"}, {"max", "w"}, {"avg", "w"}}, "from t"},
    {{"gi"},
     {{"sum", "z"}, {"count", "z"}, {"min", "z"}, {"avg", "z"}},
     "from t"},
    {{"gi"},
     {{"count", "*"}, {"sum", "v"}},
     "from t where w > 0 and v < 2.5e8"},
    {{"gd", "gs"}, {{"sum", "v"}, {"count", "*"}}, "from t where gi >= 0"},
    {{},
     {{"count", "*"}, {"sum", "v"}, {"min", "v"}, {"max", "w"}, {"avg", "v"}},
     "from t"},
    {{"gi"}, {{"count", "*"}}, "from t where v > 1e18"},  // empty
    // Derived-table shape (the AQP rewriter's): projection pruning keeps
    // only gi/v/sid of the six-column `select *` expansion.
    {{"gi", "sid"},
     {{"sum", "v"}, {"count", "*"}},
     "from (select *, 1 + floor(rand() * 7) as sid from t) as d"},
    // Sample-scale AQP shape: G x b = 16 x 16 groups of ~20 rows, each
    // spread over many morsels, so nearly every group merges many times.
    {{"gi", "sid"},
     {{"sum", "v"}, {"stddev", "v"}, {"sum", "w"}, {"var", "w"},
      {"avg", "v"}, {"count", "*"}},
     "from (select *, 1 + floor(rand() * 16) as sid from t) as d"},
    kMixedLanes,
    // A Bool key lane (NULL where w is): its result column is Int64, as
    // Column::Append builds it from Bool Values.
    {{"gi", "w > 0"}, {{"count", "*"}, {"sum", "v"}}, "from t"},
    // Object lanes with no keys over no rows: fresh accumulators finalize.
    {{},
     {{"count", "*"}, {"count", "gs", true}, {"median", "v"}},
     "from t where v > 1e18"},
};

TEST_F(FlatAggTest, MatchesOracleAcrossThreadsAndSimd) {
  const size_t kRows = 5003;  // prime: ragged final morsel
  std::vector<kernels::SimdLevel> levels{kernels::SimdLevel::kScalar};
  if (detected_ != kernels::SimdLevel::kScalar) levels.push_back(detected_);
  for (const GroupQuery& q : kGroupQueries) {
    const ResultSet ref = RunOracle(kRows, q);
    for (kernels::SimdLevel level : levels) {
      kernels::SetSimdLevelForTest(level);
      for (int threads : {1, 2, 8}) {
        ExpectMatchesOracle(ref, kRows, threads, q,
                            kernels::SimdLevelName(level));
        if (::testing::Test::HasFatalFailure()) return;
      }
      kernels::SetSimdLevelForTest(detected_);
    }
  }
}

TEST_F(FlatAggTest, BitmapWhereMasksMatchOracle) {
  const size_t kRows = 4096;  // exact morsel multiples with morsel 256
  SetMorselRowsForTest(256);
  const GroupQuery kSelective[] = {
      // High selectivity: nearly all rows survive.
      {{"gi"}, {{"sum", "v"}, {"count", "*"}}, "from t where w > -999"},
      // Low selectivity: sparse survivors exercise rank-select decomposition.
      {{"gi", "gd"},
       {{"sum", "v"}, {"count", "*"}},
       "from t where w > 900"},
      // Predicate on the group key itself.
      {{"gs"}, {{"avg", "v"}, {"max", "w"}}, "from t where gd = 0.0"},
      kMixedLanes,
  };
  for (const GroupQuery& q : kSelective) {
    const ResultSet ref = RunOracle(kRows, q);
    for (int threads : {1, 2, 8}) {
      ExpectMatchesOracle(ref, kRows, threads, q, "bitmap WHERE");
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST_F(FlatAggTest, ForcedHashCollisionsStillGroupCorrectly) {
  const size_t kRows = 3001;
  // The oracle groups by exact key bytes; the engine runs with every group
  // hash squeezed into 8, then 1, bucket(s). Results must not move: collided
  // groups are separated by the representative-row key verification.
  for (const GroupQuery& q : kGroupQueries) {
    const ResultSet ref = RunOracle(kRows, q);
    for (uint64_t mask : {uint64_t{0x7}, uint64_t{0}}) {
      SetGroupHashMaskForTest(mask);
      for (int threads : {1, 8}) {
        ExpectMatchesOracle(ref, kRows, threads, q,
                            "mask=" + std::to_string(mask));
        if (::testing::Test::HasFatalFailure()) return;
      }
      SetGroupHashMaskForTest(~0ull);
    }
  }
}

TEST_F(FlatAggTest, NanNegativeZeroAndNullKeysGroupTogether) {
  // ValueGroupKey equivalence, pinned on the engine's group ids: -0.0
  // groups with +0.0, NaN with NaN, NULL with NULL — and 5 (int) with 5.0
  // (double) is exercised via the mixed-type gi+gd key in the fuzz above.
  auto t = std::make_shared<Table>();
  t->AddColumn("d", TypeId::kDouble);
  t->AddColumn("v", TypeId::kInt64);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  t->AppendRow({Value::Double(0.0), Value::Int(1)});
  t->AppendRow({Value::Double(-0.0), Value::Int(2)});
  t->AppendRow({Value::Double(nan), Value::Int(4)});
  t->AppendRow({Value::Null(), Value::Int(8)});
  t->AppendRow({Value::Double(nan), Value::Int(16)});
  t->AppendRow({Value::Double(1.0), Value::Int(32)});
  t->AppendRow({Value::Null(), Value::Int(64)});
  Database db(kSeed);
  ASSERT_TRUE(db.RegisterTable("k", t).ok());
  auto rs = db.Execute("select d, count(*) as c, sum(v) as s from k "
                       "group by d");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  const ResultSet& r = rs.value();
  ASSERT_EQ(r.NumRows(), 4u);
  // First-occurrence group order: 0.0, NaN, NULL, 1.0.
  EXPECT_EQ(r.Get(0, 2).AsInt(), 3) << "±0.0 group";
  EXPECT_EQ(r.Get(1, 2).AsInt(), 20) << "NaN group";
  EXPECT_EQ(r.Get(2, 2).AsInt(), 72) << "NULL group";
  EXPECT_EQ(r.Get(3, 2).AsInt(), 32);
}

TEST_F(FlatAggTest, AllNullAggregateInputs) {
  // sum/avg/min/max of an all-NULL column are NULL; count is 0 — serial and
  // parallel.
  const size_t kRows = 1500;
  const GroupQuery q = {
      {"gi"},
      {{"sum", "z"}, {"avg", "z"}, {"min", "z"}, {"max", "z"}, {"count", "z"}},
      "from t"};
  const ResultSet ref = RunOracle(kRows, q);
  for (size_t r = 0; r < ref.NumRows(); ++r) {
    EXPECT_TRUE(ref.Get(r, 1).is_null());
    EXPECT_TRUE(ref.Get(r, 2).is_null());
    EXPECT_TRUE(ref.Get(r, 3).is_null());
    EXPECT_TRUE(ref.Get(r, 4).is_null());
    EXPECT_EQ(ref.Get(r, 5).AsInt(), 0);
  }
  for (int threads : {1, 8}) {
    ExpectMatchesOracle(ref, kRows, threads, q, "all-null");
  }
}

/// Order-sensitive, non-mergeable UDA: folds each non-null argument's bits
/// into an FNV-style running hash, so any change in which rows a group sees,
/// or in their order, changes the result. Merge would assert: the planner
/// must aggregate the whole input as one morsel.
class SeqHashAcc : public AggAccumulator {
 public:
  void Add(const Value& v) override {
    if (v.is_null()) return;
    const double d = v.AsDouble();
    uint64_t bits;
    std::memcpy(&bits, &d, 8);
    h_ = (h_ ^ bits) * 0x100000001b3ull;
  }
  Value Finalize() const override {
    return Value::Int(static_cast<int64_t>(h_));
  }

 private:
  uint64_t h_ = 0xcbf29ce484222325ull;
};

TEST_F(FlatAggTest, NonMergeableUdaMatchesOracle) {
  AggregateRegistry::Global().Register(
      "test_seqhash", [] { return std::make_unique<SeqHashAcc>(); });
  const size_t kRows = 3001;  // ~12 morsels of 257: one morsel is a choice
  const GroupQuery kUdaQueries[] = {
      {{"gi"},
       {{"test_seqhash", "v"}, {"sum", "v"}, {"count", "*"}},
       "from t where w > 0"},
      {{"gs"}, {{"test_seqhash", "w"}, {"median", "v"}}, "from t"},
      // Empty input, grouped: no rows.
      {{"gi"}, {{"test_seqhash", "v"}}, "from t where v > 1e18"},
      // Empty input, no keys: one row of fresh accumulators.
      {{}, {{"test_seqhash", "v"}, {"count", "*"}}, "from t where v > 1e18"},
  };
  for (const GroupQuery& q : kUdaQueries) {
    const ResultSet ref = RunOracle(kRows, q);
    for (int threads : {1, 2, 8}) {
      ExpectMatchesOracle(ref, kRows, threads, q, "non-mergeable UDA");
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  const ResultSet empty_grouped = RunOracle(kRows, kUdaQueries[2]);
  EXPECT_EQ(empty_grouped.NumRows(), 0u);
  const ResultSet empty_ungrouped = RunOracle(kRows, kUdaQueries[3]);
  ASSERT_EQ(empty_ungrouped.NumRows(), 1u);
  EXPECT_EQ(empty_ungrouped.Get(0, 0).AsInt(),
            static_cast<int64_t>(0xcbf29ce484222325ull));
  EXPECT_EQ(empty_ungrouped.Get(0, 1).AsInt(), 0);
}

TEST_F(FlatAggTest, DerivedTableProjectionPruning) {
  // The planner prunes derived-table outputs the outer statement never
  // references (ExecuteFrom). Pruning must be invisible: same values as
  // the explicit-select-list spelling, row counts preserved when nothing
  // is referenced, and `select *` outers disable it entirely.
  const size_t kRows = 2048;

  // Pruned spelling vs. explicit spelling — bit-identical, rand() included
  // (draws are (row, site)-addressed; both queries have one rand site).
  // Each query runs first on a fresh identically-seeded database so both
  // draw the same per-query seed.
  auto a = MakeDb(kRows, 2)->Execute(
      "select gi, sid, sum(v) as s, count(*) as c from "
      "(select *, 1 + floor(rand() * 5) as sid from t) as d group by gi, sid");
  auto b = MakeDb(kRows, 2)->Execute(
      "select gi, sid, sum(v) as s, count(*) as c from "
      "(select gi, v, 1 + floor(rand() * 5) as sid from t) as d "
      "group by gi, sid");
  auto db = MakeDb(kRows, 2);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  ExpectBitIdentical(a.value(), b.value(), "pruned vs explicit select list");

  // Outer references no derived column: the row count must survive.
  auto c = db->Execute("select count(*) as c from (select * from t) as d");
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  EXPECT_EQ(c.value().Get(0, 0).AsInt(), static_cast<int64_t>(kRows));

  // `select *` outer wants every column: pruning is disabled.
  auto e = db->Execute("select * from (select * from t) as d limit 3");
  ASSERT_TRUE(e.ok()) << e.status().ToString();
  EXPECT_EQ(e.value().NumCols(), 6u);

  // DISTINCT derived tables are never pruned (dropping a column would
  // change the distinct row set).
  auto f = db->Execute(
      "select count(*) as c from (select distinct gi, gs from t) as d");
  auto g = db->Execute(
      "select count(*) as c, min(gi) as m from "
      "(select distinct gi, gs from t) as d");
  ASSERT_TRUE(f.ok()) << f.status().ToString();
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(f.value().Get(0, 0).AsInt(), g.value().Get(0, 0).AsInt());
}

TEST_F(FlatAggTest, WindowsMatchRowAtATimeOracle) {
  // Windows run on the same FlatAggregator lanes as GROUP BY, one batch per
  // partition. Every aggregate, over every partition shape, must return the
  // bits the row-at-a-time reference returns — NaN/±0.0/NULL partition keys
  // and arguments, NULL-heavy and full-mantissa columns included.
  const size_t kRows = 3001;
  const Agg kAggs[] = {
      {"count", "*"},  {"count", "v"},       {"sum", "v"},
      {"sum", "w"},    {"sum", "gd"},        {"avg", "v"},
      {"avg", "gd"},   {"min", "v"},         {"max", "v"},
      {"min", "gd"},   {"max", "gd"},        {"min", "gs"},
      {"max", "w"},    {"var", "v"},         {"stddev", "v"},
      {"count", "gs", true},                 {"median", "v"},
      {"quantile", "v", false, "0.9"},       {"ndv", "gi"},
  };
  const std::vector<std::vector<std::string>> kPartitions = {
      {"gi"}, {"gd"}, {"gs"}, {"gi", "gs"}, {}};
  for (const auto& keys : kPartitions) {
    const std::string over =
        keys.empty() ? "over ()"
                     : "over (partition by " + GroupQuery::Join(keys) + ")";
    for (const Agg& agg : kAggs) {
      const ResultSet ref = RunWindowOracle(kRows, keys, agg);
      const std::string sql =
          "select " + agg.Call() + " " + over + " as w from t";
      for (int threads : {1, 8}) {
        auto got = MakeDb(kRows, threads)->Execute(sql);
        ASSERT_TRUE(got.ok()) << sql << " -> " << got.status().ToString();
        ExpectBitIdentical(ref, got.value(),
                           sql + " @" + std::to_string(threads) + " threads");
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

/// Mergeable UDA whose groups finalize to Int, Double or NULL: the first
/// non-null argument in row order, as Int when integral. An object-lane
/// result column that mixes all three.
class FirstNumAcc : public AggAccumulator {
 public:
  void Add(const Value& v) override {
    if (any_ || v.is_null()) return;
    first_ = v.AsDouble();
    any_ = true;
  }
  bool Mergeable() const override { return true; }
  void Merge(const AggAccumulator& other) override {
    const auto& o = static_cast<const FirstNumAcc&>(other);
    if (!any_ && o.any_) Add(Value::Double(o.first_));
  }
  Value Finalize() const override {
    if (!any_) return Value::Null();
    if (first_ == std::floor(first_)) {
      return Value::Int(static_cast<int64_t>(first_));
    }
    return Value::Double(first_);
  }

 private:
  bool any_ = false;
  double first_ = 0.0;
};

TEST_F(FlatAggTest, MorselVaryingLaneTypesMatchOracle) {
  // Key and argument lanes whose type changes from morsel to morsel
  // (Int64, Double, kNull; BuildPhasedTable) and result columns mixing Int,
  // Double and NULL groups: the merge must join 5 with 5.0 across morsels,
  // and the finalized columns must promote exactly as Column::Append does.
  AggregateRegistry::Global().Register(
      "test_firstnum", [] { return std::make_unique<FirstNumAcc>(); });
  const size_t kRows = 3200;  // ~12 morsels: every phase three times
  const std::string from = "from m";
  const GroupQuery kQueries[] = {
      // Group-key lane: Int64 / Double / kNull by morsel.
      {{kPhasedKey},
       {{"count", "*"}, {"sum", "w"}, {"min", "v"}, {"median", "v"}},
       from},
      // sum over an Int64 / Double / NULL argument lane: each (ph, gi)
      // group lives in one phase, so its sum finalizes to Int (ph 0/3),
      // Double (ph 1) or NULL (ph 2) in one result column; the UDA mixes
      // the same three in an object lane.
      {{"ph", "gi"},
       {{"sum", kPhasedArg}, {"test_firstnum", kPhasedArg}, {"count", "*"}},
       from},
      // Both at once.
      {{kPhasedKey},
       {{"sum", kPhasedArg}, {"test_firstnum", kPhasedArg},
        {"avg", kPhasedArg}},
       from},
  };
  for (const GroupQuery& q : kQueries) {
    const ResultSet ref = RunOracle(kRows, q);
    for (uint64_t mask : {~uint64_t{0}, uint64_t{0}}) {
      SetGroupHashMaskForTest(mask);
      for (int threads : {1, 2, 8}) {
        ExpectMatchesOracle(ref, kRows, threads, q,
                            "mask=" + std::to_string(mask));
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
    SetGroupHashMaskForTest(~0ull);
  }

  // Windows: partitions keyed on the same Int / Double / NULL key set,
  // finalizing to Int, Double and NULL partitions.
  const Agg kWindowAggs[] = {
      {"sum", kPhasedArg}, {"test_firstnum", kPhasedArg}, {"count", "*"},
      {"min", kPhasedArg}};
  for (const Agg& agg : kWindowAggs) {
    const ResultSet ref = RunWindowOracle(kRows, {kPhasedKey}, agg, "m");
    const std::string sql = "select " + agg.Call() +
                            " over (partition by " + kPhasedKey +
                            ") as w from m";
    for (uint64_t mask : {~uint64_t{0}, uint64_t{0}}) {
      SetGroupHashMaskForTest(mask);
      for (int threads : {1, 2, 8}) {
        auto got = MakeDb(kRows, threads)->Execute(sql);
        ASSERT_TRUE(got.ok()) << sql << " -> " << got.status().ToString();
        ExpectBitIdentical(ref, got.value(),
                           sql + " @" + std::to_string(threads) +
                               " threads, mask=" + std::to_string(mask));
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
    SetGroupHashMaskForTest(~0ull);
  }
}

TEST_F(FlatAggTest, TinyMorselsAndTinyTables) {
  // Morsel sizes far below a batch plus row counts around the boundaries:
  // 0 rows, 1 row, exactly one morsel, one morsel ± 1.
  const GroupQuery kTiny[] = {
      {{"gi", "gd"},
       {{"count", "*"}, {"sum", "v"}, {"min", "w"}},
       "from t"},
      kMixedLanes,
  };
  for (const GroupQuery& q : kTiny) {
    for (size_t morsel : {size_t{1}, size_t{7}, size_t{64}}) {
      for (size_t rows :
           {size_t{0}, size_t{1}, morsel, morsel + 1, 4 * morsel + 3}) {
        SetMorselRowsForTest(morsel);
        const ResultSet ref = RunOracle(rows, q);
        for (int threads : {1, 2, 8}) {
          ExpectMatchesOracle(ref, rows, threads, q,
                              "morsel=" + std::to_string(morsel) +
                                  " rows=" + std::to_string(rows));
          if (::testing::Test::HasFatalFailure()) return;
        }
      }
    }
  }
}

}  // namespace
}  // namespace vdb::engine
