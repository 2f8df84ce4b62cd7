// Sample preparation tests: Lemma 1 / staircase guarantees, sample builders
// (uniform, hashed, stratified), metadata catalog, incremental appends, and
// the Appendix F default policy.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

#include "common/random.h"
#include "common/stats_math.h"
#include "driver/dialect.h"
#include "sampling/sample_builder.h"
#include "sampling/sample_catalog.h"
#include "sampling/staircase.h"
#include "sql/parser.h"
#include "sql/printer.h"
#include "workload/synthetic.h"

namespace vdb::sampling {
namespace {

// ---------------------------------------------------------------------------
// Lemma 1 and the staircase function
// ---------------------------------------------------------------------------

TEST(Lemma1Test, GuaranteeHoldsUnderExactBinomial) {
  // f_m(n) must give P(X >= m) >= 1 - delta under the exact binomial too
  // (the normal approximation is good in this regime).
  const double delta = 0.001;
  for (int64_t n : {200, 1000, 10000}) {
    for (int64_t m : {10L, 50L, 100L}) {
      if (m >= n) continue;
      double p = RequiredSamplingProb(n, m, delta);
      double tail = BinomialTailAtLeast(n, p, m);
      EXPECT_GE(tail, 1 - delta - 0.002) << "n=" << n << " m=" << m;
    }
  }
}

TEST(Lemma1Test, TightNotWasteful) {
  // The probability should not be absurdly above the naive m/n rate.
  double p = RequiredSamplingProb(100000, 100, 0.001);
  EXPECT_GT(p, 100.0 / 100000.0);
  EXPECT_LT(p, 3.0 * 100.0 / 100000.0);
}

TEST(Lemma1Test, Boundaries) {
  EXPECT_DOUBLE_EQ(RequiredSamplingProb(100, 0, 0.001), 0.0);
  EXPECT_DOUBLE_EQ(RequiredSamplingProb(100, 100, 0.001), 1.0);
  EXPECT_DOUBLE_EQ(RequiredSamplingProb(100, 200, 0.001), 1.0);
}

TEST(Lemma1Test, MonotoneInN) {
  double p1 = RequiredSamplingProb(1000, 50, 0.001);
  double p2 = RequiredSamplingProb(10000, 50, 0.001);
  EXPECT_GT(p1, p2);
}

TEST(StaircaseTest, UpperBoundsExactProbability) {
  auto steps = BuildStaircase(/*max_stratum=*/100000, /*m=*/50, 0.001);
  ASSERT_FALSE(steps.empty());
  EXPECT_DOUBLE_EQ(steps[0].prob, 1.0);  // strata <= m keep everything
  // Each step's probability must be >= the exact f_m at the step's upper
  // bound (conservative).
  for (const auto& s : steps) {
    EXPECT_GE(s.prob + 1e-12, RequiredSamplingProb(s.max_size, 50, 0.001));
  }
  // Probabilities are non-increasing in stratum size.
  for (size_t i = 1; i < steps.size(); ++i) {
    EXPECT_LE(steps[i].prob, steps[i - 1].prob + 1e-12);
  }
}

TEST(StaircaseTest, CaseExprShape) {
  auto steps = BuildStaircase(5000, 20, 0.001);
  const std::string text = StaircaseCaseSql(steps, "strata_size");
  EXPECT_NE(text.find("case when"), std::string::npos);
  EXPECT_NE(text.find("strata_size"), std::string::npos);
  EXPECT_NE(text.find("else"), std::string::npos);
  EXPECT_TRUE(sql::ParseExpression(text).ok()) << text;
  // Every stratum within m: one step, which is its probability alone.
  const std::string one = StaircaseCaseSql(BuildStaircase(10, 20, 0.001),
                                           "strata_size");
  EXPECT_EQ(one, "1.0");
}

TEST(StaircaseTest, MonteCarloMinimumGuarantee) {
  // Simulate Bernoulli sampling of strata at the staircase probability and
  // verify the >= m guarantee empirically.
  const int64_t m = 30;
  auto steps = BuildStaircase(20000, m, 0.001);
  Rng rng(42);
  int violations = 0, trials = 0;
  for (int64_t stratum : {40L, 150L, 1000L, 9000L}) {
    double p = 1.0;
    for (const auto& s : steps) {
      if (stratum <= s.max_size) {
        p = s.prob;
        break;
      }
      p = s.prob;
    }
    for (int t = 0; t < 300; ++t) {
      int64_t kept = 0;
      for (int64_t i = 0; i < stratum; ++i) {
        if (rng.NextBernoulli(p)) ++kept;
      }
      ++trials;
      if (kept < std::min(m, stratum)) ++violations;
    }
  }
  // delta = 0.001 per stratum; 1200 trials -> expect ~1 violation max.
  EXPECT_LE(violations, 3) << "of " << trials;
}

// ---------------------------------------------------------------------------
// Builders
// ---------------------------------------------------------------------------

class BuilderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(workload::GenerateSynthetic(&db_, "t", 50000, 11).ok());
    conn_ = std::make_unique<driver::Connection>(
        &db_, driver::EngineKind::kGeneric);
    catalog_ = std::make_unique<SampleCatalog>(conn_.get());
    builder_ = std::make_unique<SampleBuilder>(conn_.get(), catalog_.get());
  }

  int64_t Count(const std::string& t) {
    auto rs = conn_->Execute("select count(*) as c from " + t);
    EXPECT_TRUE(rs.ok());
    return rs.value().Get(0, 0).AsInt();
  }

  engine::Database db_{909};
  std::unique_ptr<driver::Connection> conn_;
  std::unique_ptr<SampleCatalog> catalog_;
  std::unique_ptr<SampleBuilder> builder_;
};

TEST_F(BuilderTest, UniformSample) {
  auto s = builder_->CreateUniformSample("t", 0.05);
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  EXPECT_EQ(s.value().type, SampleType::kUniform);
  EXPECT_NEAR(static_cast<double>(s.value().sample_rows), 2500.0, 300.0);
  // Probability column present and equal to tau.
  auto rs = conn_->Execute("select avg(verdict_prob) as p from " +
                           s.value().sample_table);
  ASSERT_TRUE(rs.ok());
  EXPECT_NEAR(rs.value().GetDouble(0, 0), 0.05, 1e-9);
}

TEST_F(BuilderTest, HashedSampleIsDeterministicSubset) {
  auto s = builder_->CreateHashedSample("t", "g100", 0.10);
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  // Universe property: the g100 values in the sample are a strict subset of
  // the domain, and every row with a selected value is present.
  auto in_sample =
      conn_->Execute("select count(distinct g100) as d from " +
                     s.value().sample_table);
  ASSERT_TRUE(in_sample.ok());
  int64_t selected_values = in_sample.value().Get(0, 0).AsInt();
  EXPECT_GT(selected_values, 0);
  EXPECT_LT(selected_values, 100);
  // All rows of selected values kept: per-value counts match the base.
  auto diff = conn_->Execute(
      "select count(*) as c from (select g100, count(*) as cnt from " +
      s.value().sample_table +
      " group by g100) as sam inner join (select g100, count(*) as cnt"
      " from t group by g100) as base on sam.g100 = base.g100"
      " where sam.cnt <> base.cnt");
  ASSERT_TRUE(diff.ok());
  EXPECT_EQ(diff.value().Get(0, 0).AsInt(), 0);
}

TEST_F(BuilderTest, StratifiedSampleMinimumPerStratum) {
  auto s = builder_->CreateStratifiedSample("t", {"g100"}, 0.2);
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  // m = |T| * tau / d = 50000 * 0.2 / 100 = 100 tuples per stratum.
  auto rs = conn_->Execute("select g100, count(*) as c from " +
                           s.value().sample_table + " group by g100");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs.value().NumRows(), 100u);  // every stratum represented
  int starved = 0;
  for (size_t r = 0; r < rs.value().NumRows(); ++r) {
    if (rs.value().Get(r, 1).AsInt() < 100) ++starved;
  }
  // delta = 0.001 per stratum; 100 strata -> ~0 starved expected.
  EXPECT_LE(starved, 2);
}

TEST_F(BuilderTest, StratifiedSampleWhoseStrataAllFitKeepsEveryRow) {
  // One row per stratum: every stratum is within m, so the staircase has a
  // single step (probability 1) and no CASE to print.
  auto s = builder_->CreateStratifiedSample("t", {"id"}, 0.1);
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  EXPECT_EQ(Count(s.value().sample_table), 50000);
}

TEST_F(BuilderTest, StratifiedProbColumnMatchesStaircase) {
  auto s = builder_->CreateStratifiedSample("t", {"g10"}, 0.1);
  ASSERT_TRUE(s.ok());
  // Inclusion probabilities are recorded and within (0, 1].
  auto rs = conn_->Execute("select min(verdict_prob) as lo,"
                           " max(verdict_prob) as hi from " +
                           s.value().sample_table);
  ASSERT_TRUE(rs.ok());
  EXPECT_GT(rs.value().GetDouble(0, 0), 0.0);
  EXPECT_LE(rs.value().GetDouble(0, 1), 1.0);
}

TEST_F(BuilderTest, CatalogRoundTrip) {
  ASSERT_TRUE(builder_->CreateUniformSample("t", 0.02).ok());
  ASSERT_TRUE(builder_->CreateHashedSample("t", "id", 0.02).ok());
  auto all = catalog_->SamplesFor("t");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all.value().size(), 2u);
  // Unregister drops both the record and the table.
  std::string victim = all.value()[0].sample_table;
  ASSERT_TRUE(catalog_->Unregister(victim).ok());
  auto after = catalog_->SamplesFor("t");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().size(), 1u);
  EXPECT_FALSE(db_.catalog().HasTable(victim));
}

TEST_F(BuilderTest, DefaultPolicyCreatesAllThreeKinds) {
  auto made = builder_->CreateDefaultSamples("t", 0.05);
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  int uniform = 0, hashed = 0, stratified = 0;
  for (const auto& s : made.value()) {
    switch (s.type) {
      case SampleType::kUniform: ++uniform; break;
      case SampleType::kHashed: ++hashed; break;
      case SampleType::kStratified: ++stratified; break;
      default: break;
    }
  }
  EXPECT_EQ(uniform, 1);
  EXPECT_GE(hashed, 1);      // id (and maybe u/value) are high-cardinality
  EXPECT_GE(stratified, 1);  // g10/g100 are low-cardinality
}

TEST_F(BuilderTest, AppendMaintainsSamples) {
  auto uni = builder_->CreateUniformSample("t", 0.05);
  ASSERT_TRUE(uni.ok());
  auto strat = builder_->CreateStratifiedSample("t", {"g10"}, 0.1);
  ASSERT_TRUE(strat.ok());
  int64_t uni_before = Count(uni.value().sample_table);

  // Stage a batch shaped like the base table (Appendix D).
  ASSERT_TRUE(workload::GenerateSynthetic(&db_, "staging", 20000, 77).ok());
  ASSERT_TRUE(builder_->AppendData("t", "staging").ok());

  EXPECT_EQ(Count("t"), 70000);
  int64_t uni_after = Count(uni.value().sample_table);
  // Uniform sample should grow by ~ tau * 20000 = 1000.
  EXPECT_NEAR(static_cast<double>(uni_after - uni_before), 1000.0, 200.0);
  // Metadata counts updated.
  auto infos = catalog_->SamplesFor("t");
  ASSERT_TRUE(infos.ok());
  for (const auto& s : infos.value()) {
    EXPECT_EQ(s.base_rows, 70000u);
  }
}

TEST_F(BuilderTest, AppendRewritesTheCatalogOnce) {
  ASSERT_TRUE(builder_->CreateUniformSample("t", 0.05).ok());
  auto hashed = builder_->CreateHashedSample("t", "id", 0.1);
  ASSERT_TRUE(hashed.ok());
  ASSERT_TRUE(builder_->CreateStratifiedSample("t", {"g10"}, 0.1).ok());
  ASSERT_TRUE(workload::GenerateSynthetic(&db_, "staging", 20000, 77).ok());

  // Catalog read, base insert and base count; one insert and one count per
  // sample; one five-statement rewrite of the metadata table.
  conn_->ClearLog();
  ASSERT_TRUE(builder_->AppendData("t", "staging").ok());
  EXPECT_EQ(conn_->statement_log().size(), 8u + 2u * 3u);

  auto infos = catalog_->SamplesFor("t");
  ASSERT_TRUE(infos.ok());
  ASSERT_EQ(infos.value().size(), 3u);
  for (const auto& s : infos.value()) {
    EXPECT_EQ(s.base_rows, 70000u) << s.sample_table;
    EXPECT_EQ(static_cast<int64_t>(s.sample_rows), Count(s.sample_table))
        << s.sample_table;
  }
  EXPECT_GT(infos.value()[0].sample_rows, 0u);
}

TEST_F(BuilderTest, HashedRatioRoundTripsThroughTheCatalog) {
  // The realized ratio is read back with its exact bits, so rows appended
  // later carry the same probability as the build's. A prime row count
  // gives the ratio more digits than a short decimal holds.
  ASSERT_TRUE(workload::GenerateSynthetic(&db_, "p", 30011, 5).ok());
  auto hashed = builder_->CreateHashedSample("p", "id", 0.1);
  ASSERT_TRUE(hashed.ok());
  auto infos = catalog_->SamplesFor("p");
  ASSERT_TRUE(infos.ok());
  ASSERT_EQ(infos.value().size(), 1u);
  EXPECT_EQ(infos.value()[0].ratio, hashed.value().ratio);
  EXPECT_EQ(infos.value()[0].hash_cutoff, 0.1);

  ASSERT_TRUE(workload::GenerateSynthetic(&db_, "staging", 20000, 77).ok());
  ASSERT_TRUE(builder_->AppendData("p", "staging").ok());
  auto probs = conn_->Execute("select distinct verdict_prob from " +
                              hashed.value().sample_table);
  ASSERT_TRUE(probs.ok());
  ASSERT_EQ(probs.value().NumRows(), 1u);
  EXPECT_EQ(probs.value().GetDouble(0, 0), hashed.value().ratio);
}

// ---------------------------------------------------------------------------
// One build path under every dialect
// ---------------------------------------------------------------------------

/// Every cell of `table`, doubles at their exact bits.
std::vector<std::string> Cells(engine::Database* db, const std::string& table) {
  auto t = db->catalog().GetTable(table);
  std::vector<std::string> out;
  if (!t) return out;
  for (size_t c = 0; c < t->num_columns(); ++c) {
    out.push_back(t->column_name(c));
    for (size_t r = 0; r < t->num_rows(); ++r) {
      const Value v = t->Get(r, c);
      if (v.type() == TypeId::kDouble) {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%a", v.AsDouble());
        out.push_back(buf);
      } else {
        out.push_back(std::to_string(static_cast<int>(v.type())) + ":" +
                      v.ToString());
      }
    }
  }
  return out;
}

struct DialectBuild {
  /// Per sample, its cells after the build and after one AppendData.
  std::vector<std::vector<std::string>> built, appended;
  std::vector<std::string> log;
};

DialectBuild BuildUnder(driver::EngineKind kind) {
  DialectBuild out;
  engine::Database db(909);
  EXPECT_TRUE(workload::GenerateSynthetic(&db, "t", 20000, 11).ok());
  EXPECT_TRUE(workload::GenerateSynthetic(&db, "staging", 5000, 77).ok());
  driver::Connection conn(&db, kind);
  SampleCatalog catalog(&conn);
  SampleBuilder builder(&conn, &catalog);
  std::vector<std::string> names;
  auto keep = [&names](const Result<SampleInfo>& s) {
    EXPECT_TRUE(s.ok()) << s.status().ToString();
    if (s.ok()) names.push_back(s.value().sample_table);
  };
  keep(builder.CreateUniformSample("t", 0.05));
  keep(builder.CreateHashedSample("t", "g100", 0.1));
  keep(builder.CreateStratifiedSample("t", {"g10"}, 0.1));
  for (const auto& n : names) out.built.push_back(Cells(&db, n));
  EXPECT_TRUE(builder.AppendData("t", "staging").ok());
  for (const auto& n : names) out.appended.push_back(Cells(&db, n));
  out.log = conn.statement_log();
  return out;
}

TEST(DialectSampleTest, EveryDialectBuildsTheGenericSamples) {
  const DialectBuild generic = BuildUnder(driver::EngineKind::kGeneric);
  ASSERT_EQ(generic.built.size(), 3u);
  for (const auto& cells : generic.appended) EXPECT_GT(cells.size(), 6u);
  for (const std::string& sql : generic.log) {
    EXPECT_EQ(sql.find("__vdb_rand"), std::string::npos) << sql;
  }
  for (auto kind : {driver::EngineKind::kImpala, driver::EngineKind::kSparkSql,
                    driver::EngineKind::kRedshift}) {
    const DialectBuild other = BuildUnder(kind);
    const std::string name = driver::GetDialect(kind).name;
    ASSERT_EQ(other.built.size(), 3u) << name;
    for (size_t i = 0; i < 3; ++i) {
      EXPECT_EQ(other.built[i], generic.built[i]) << name << " sample " << i;
      EXPECT_EQ(other.appended[i], generic.appended[i])
          << name << " sample " << i;
    }
    // Impala forbids rand() in WHERE: its driver hoisted every rand-bearing
    // build and append statement (uniform and stratified, two each).
    size_t hoisted = 0;
    for (const std::string& sql : other.log) {
      if (sql.find("rand() as __vdb_rand0") != std::string::npos) ++hoisted;
    }
    EXPECT_EQ(hoisted, kind == driver::EngineKind::kImpala ? 4u : 0u) << name;
  }
}

// ---------------------------------------------------------------------------
// Dialect workaround (Impala: no rand() in WHERE)
// ---------------------------------------------------------------------------

TEST(DialectTest, ImpalaHoistsRandOutOfWhere) {
  auto sel = sql::ParseSelect("select * from t where rand() < 0.01");
  ASSERT_TRUE(sel.ok());
  auto st = driver::ApplySyntaxRules(
      driver::GetDialect(driver::EngineKind::kImpala), sel.value().get());
  ASSERT_TRUE(st.ok());
  std::string text = sql::PrintSelect(*sel.value());
  EXPECT_NE(text.find("__vdb_rand0"), std::string::npos);
  // No rand() left in the WHERE clause.
  size_t where_pos = text.rfind("where");
  EXPECT_EQ(text.find("rand()", where_pos), std::string::npos) << text;
}

TEST(DialectTest, ImpalaHoistsEveryRandFamilyCall) {
  // Each rand-family call moves into the derived table as is; a
  // subquery's rand stays in the subquery.
  auto sel = sql::ParseSelect(
      "select * from t where rand() < 0.5 and rand_poisson() > 0"
      " and x < (select max(rand()) from u)");
  ASSERT_TRUE(sel.ok());
  ASSERT_TRUE(driver::ApplySyntaxRules(
                  driver::GetDialect(driver::EngineKind::kImpala),
                  sel.value().get())
                  .ok());
  const std::string text = sql::PrintSelect(*sel.value());
  EXPECT_NE(text.find("rand() as __vdb_rand0"), std::string::npos) << text;
  EXPECT_NE(text.find("rand_poisson() as __vdb_rand1"), std::string::npos)
      << text;
  EXPECT_EQ(text.find("__vdb_rand2"), std::string::npos) << text;
  EXPECT_NE(text.find("select max(rand()) from u"), std::string::npos)
      << text;
}

TEST(DialectTest, GenericLeavesRandAlone) {
  auto sel = sql::ParseSelect("select * from t where rand() < 0.01");
  ASSERT_TRUE(sel.ok());
  std::string before = sql::PrintSelect(*sel.value());
  ASSERT_TRUE(driver::ApplySyntaxRules(
                  driver::GetDialect(driver::EngineKind::kGeneric),
                  sel.value().get())
                  .ok());
  EXPECT_EQ(sql::PrintSelect(*sel.value()), before);
}

TEST(DialectTest, OverheadOrdering) {
  // §6.2: speedups track engine fixed overheads (Spark > Impala > Redshift).
  EXPECT_GT(driver::GetDialect(driver::EngineKind::kSparkSql).fixed_overhead_ms,
            driver::GetDialect(driver::EngineKind::kImpala).fixed_overhead_ms);
  EXPECT_GT(driver::GetDialect(driver::EngineKind::kImpala).fixed_overhead_ms,
            driver::GetDialect(driver::EngineKind::kRedshift).fixed_overhead_ms);
}

}  // namespace
}  // namespace vdb::sampling
