// End-to-end AQP benchmark: SQL text goes in, an approximate answer with
// error bounds comes out (paper §6). Every workload statement runs through
// two paths on the same data:
//   - core::VerdictContext::ExecuteApprox, the whole middleware path;
//   - core::FlattenComparisonSubqueries + engine::Database::ExecuteSelect,
//     the exact baseline.
// Every answer is then checked against the exact one, outside the timed
// region. With --trace 1 a replay pass re-runs each distinct statement stage
// by stage through the public call of each layer, which gives the per-layer
// numbers. The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer ones
// (--trace 1). --json FILE also writes the full record: machine and build,
// workload, seed, rounds, sample counts and spread of every timing.
//
// Usage: bench_e2e --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                  [--json FILE]
// The workloads and metrics are described in README.md beside this file.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "core/answer_rewriter.h"
#include "core/flattener.h"
#include "core/query_classifier.h"
#include "core/rewriter.h"
#include "core/sample_planner.h"
#include "core/verdict_context.h"
#include "engine/aggregates.h"
#include "engine/database.h"
#include "engine/kernels/kernels.h"
#include "sql/parser.h"
#include "sql/printer.h"
#include "workload/insta.h"
#include "workload/queries.h"
#include "workload/tpch.h"

namespace {

using namespace vdb;
using Clock = std::chrono::steady_clock;
using Fixture = bench::AqpFixture;

constexpr uint64_t kDefaultSeed = 4242;
constexpr int kTraceReps = 3;         // each replayed stage: median of these
constexpr size_t kDashboardTraced = 200;
// Read workloads time at least this many statements, so that approx_p90_ms
// has at least 10 samples above it even when the host is slow.
constexpr size_t kMinStatements = 100;
constexpr int kAppendExactEvery = 5;  // append: exact check every 5th cycle
constexpr int kAppendCyclesPerSecond = 24;
constexpr int64_t kBatchKeyStride = 10'000'000;  // above any generated key

double UsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}
double MsSince(Clock::time_point t0) { return UsSince(t0) / 1000.0; }

[[noreturn]] void Fail(const std::string& why) {
  std::fprintf(stderr, "bench_e2e: %s\n", why.c_str());
  std::exit(1);
}

// ---- Statistics -------------------------------------------------------------

/// Linear-interpolation quantile (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

double Geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (double x : v) log_sum += std::log(std::max(x, 1e-12));
  return std::exp(log_sum / static_cast<double>(v.size()));
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// The spread record kept for every timing: sample count, min, median, p90
/// and median absolute deviation.
struct Spread {
  size_t n = 0;
  double min = 0, median = 0, p90 = 0, mad = 0;
};

Spread SpreadOf(const std::vector<double>& v) {
  Spread s;
  s.n = v.size();
  if (v.empty()) return s;
  s.min = *std::min_element(v.begin(), v.end());
  s.median = Median(v);
  s.p90 = Quantile(v, 0.9);
  std::vector<double> dev;
  dev.reserve(v.size());
  for (double x : v) dev.push_back(std::abs(x - s.median));
  s.mad = Median(dev);
  return s;
}

// ---- Workloads --------------------------------------------------------------

enum class Kind { kTemplates, kDashboard, kAppend };

struct Workload {
  const char* name;
  Kind kind;
  double tpch_scale;
  double insta_scale;
  // setup_s is the median of this many setups, about 3-5 s in all. Host
  // noise flips one setup's time between two levels up to 1.7x apart, so a
  // cheap setup is repeated more. The count is fixed, not time-bounded:
  // each setup leaves the allocator's high-water mark a little higher, so a
  // count that followed the machine's speed would move peak_rss_mb.
  size_t setup_reps;
};

// Why each exists is in README.md; names carry the data scale.
constexpr Workload kWorkloads[] = {
    {"tpch-sf2", Kind::kTemplates, 2.0, 0.0, 7},
    {"insta-sf4", Kind::kTemplates, 0.0, 4.0, 7},
    {"dashboard-sf0.25", Kind::kDashboard, 0.25, 0.25, 25},
    {"append-sf1", Kind::kAppend, 1.0, 1.0, 7},
};

/// Derives an independent stream seed from --seed.
uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  return SplitMix64Finalize(seed ^ (0x9E3779B97F4A7C15ull * (stream + 1)));
}

struct Template {
  std::string id;
  std::string sql;
};

const workload::WorkloadQuery& FindQuery(
    const std::vector<workload::WorkloadQuery>& qs, const std::string& id) {
  for (const auto& q : qs) {
    if (q.id == id) return q;
  }
  Fail("no workload query " + id);
}

// ---- Dashboard statement stream ---------------------------------------------
//
// The paper templates that carry literals, each literal redrawn per
// statement from a range that keeps the template's shape and its
// approximated / pass-through status. The literals are located in the
// library's own template text, so a template edit that drops one fails loudly
// instead of silently freezing the stream.

using Subst = std::vector<std::pair<std::string, std::string>>;

struct DashTemplate {
  const char* id;
  std::function<Subst(Rng&)> draw;
};

/// A yyyymmdd date on the generator's 28-day month grid.
int64_t DrawDate(Rng& r, int64_t first_year, int64_t last_year) {
  return r.NextInRange(first_year, last_year) * 10000 +
         r.NextInRange(1, 12) * 100 + r.NextInRange(1, 28);
}

std::string Str(int64_t v) { return std::to_string(v); }

std::string Brand(Rng& r) {
  return "Brand#" + Str(r.NextInRange(1, 5)) + Str(r.NextInRange(1, 5));
}

std::string Cents(int64_t hundredths) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", static_cast<double>(hundredths) / 100);
  return buf;
}

std::vector<DashTemplate> DashboardTemplates() {
  auto window = [](const char* from, const char* to, int64_t y0, int64_t y1,
                   int64_t width) {
    return [=](Rng& r) {
      const int64_t d = DrawDate(r, y0, y1);
      return Subst{{from, Str(d)}, {to, Str(d + width)}};
    };
  };
  return {
      {"tq-1",
       [](Rng& r) { return Subst{{"19980902", Str(DrawDate(r, 1996, 1998))}}; }},
      {"tq-3",
       [](Rng& r) {
         return Subst{{"19950315", Str(DrawDate(r, 1994, 1996))},
                      {"limit 10", "limit " + Str(r.NextInRange(5, 15))}};
       }},
      {"tq-5", window("19940101", "19950101", 1993, 1996, 10000)},
      {"tq-6",
       [](Rng& r) {
         const int64_t d = DrawDate(r, 1993, 1996);
         const int64_t disc = r.NextInRange(3, 7);
         return Subst{{"19940101", Str(d)},
                      {"19950101", Str(d + 10000)},
                      {"0.05 and 0.07", Cents(disc - 1) + " and " + Cents(disc + 1)},
                      {"l_quantity < 24", "l_quantity < " + Str(r.NextInRange(20, 30))}};
       }},
      {"tq-7", window("19950101", "19961231", 1993, 1996, 20000)},
      {"tq-10",
       [](Rng& r) {
         const char* flags[] = {"'A'", "'N'", "'R'"};
         return Subst{{"'R'", flags[r.NextBounded(3)]},
                      {"limit 20", "limit " + Str(r.NextInRange(10, 200))}};
       }},
      {"tq-12", window("19940101", "19950101", 1993, 1996, 10000)},
      {"tq-14", window("19950901", "19951001", 1993, 1997, 100)},
      {"tq-15",
       [](Rng& r) {
         const int64_t d = DrawDate(r, 1993, 1997);
         return Subst{{"19960101", Str(d)},
                      {"19960401", Str(d + 300)},
                      {"limit 10", "limit " + Str(r.NextInRange(5, 15))}};
       }},
      {"tq-16",
       [](Rng& r) {
         return Subst{{"Brand#45", Brand(r)},
                      {"limit 40", "limit " + Str(r.NextInRange(20, 60))}};
       }},
      {"tq-17",
       [](Rng& r) {
         return Subst{{"Brand#23", Brand(r)},
                      {"7.0", Str(r.NextInRange(5, 9)) + "." +
                                  Str(r.NextInRange(0, 9))}};
       }},
      {"tq-18",
       [](Rng& r) {
         return Subst{{"30000", Str(r.NextInRange(10000, 50000))}};
       }},
      {"tq-19",
       [](Rng& r) {
         const int64_t a = r.NextInRange(1, 5), b = r.NextInRange(8, 12),
                       c = r.NextInRange(18, 22);
         return Subst{{"Brand#12", Brand(r)},
                      {"Brand#23", Brand(r)},
                      {"Brand#34", Brand(r)},
                      {"between 1 and 11", "between " + Str(a) + " and " + Str(a + 10)},
                      {"between 10 and 20", "between " + Str(b) + " and " + Str(b + 10)},
                      {"between 20 and 30", "between " + Str(c) + " and " + Str(c + 10)}};
       }},
      {"tq-20",
       [](Rng& r) {
         const char* nations[] = {"'CANADA'", "'BRAZIL'", "'PERU'", "'FRANCE'",
                                  "'JAPAN'", "'KENYA'", "'INDIA'", "'CHINA'",
                                  "'EGYPT'", "'IRAN'", "'GERMANY'", "'RUSSIA'",
                                  "'JORDAN'", "'ROMANIA'", "'VIETNAM'", "'IRAQ'",
                                  "'ALGERIA'", "'ETHIOPIA'", "'INDONESIA'",
                                  "'MOROCCO'", "'MOZAMBIQUE'", "'ARGENTINA'"};
         const char* regions[] = {"'AFRICA'", "'AMERICA'", "'ASIA'",
                                  "'EUROPE'", "'MIDDLE EAST'"};
         return Subst{{"'CANADA'", nations[r.NextBounded(22)]},
                      {"'AMERICA'", regions[r.NextBounded(5)]}};
       }},
      {"iq-13",
       [](Rng& r) {
         return Subst{{"> 1000", "> " + Str(r.NextInRange(100, 5000))}};
       }},
      {"iq-15",
       [](Rng& r) {
         return Subst{{">= 8", ">= " + Str(r.NextInRange(0, 10))},
                      {"<= 20", "<= " + Str(r.NextInRange(12, 23))}};
       }},
  };
}

/// Replaces each literal (which must occur exactly once) in one pass over
/// the original text, so a replacement is never itself rewritten.
std::string Substitute(const Template& t, const Subst& subst) {
  std::vector<std::pair<size_t, size_t>> at;  // (position, subst index)
  for (size_t i = 0; i < subst.size(); ++i) {
    const size_t pos = t.sql.find(subst[i].first);
    if (pos == std::string::npos ||
        t.sql.find(subst[i].first, pos + 1) != std::string::npos) {
      Fail(t.id + ": literal '" + subst[i].first + "' is not unique in its text");
    }
    at.emplace_back(pos, i);
  }
  std::sort(at.begin(), at.end());
  std::string out;
  size_t cursor = 0;
  for (const auto& [pos, i] : at) {
    out.append(t.sql, cursor, pos - cursor);
    out += subst[i].second;
    cursor = pos + subst[i].first.size();
  }
  out.append(t.sql, cursor, std::string::npos);
  return out;
}

/// Draws the dashboard's literals. A text already emitted is redrawn, so
/// statements do not repeat until a template's literal space runs low (the
/// smallest has about a hundred texts); repeats() counts those that did.
class DashboardStream {
 public:
  explicit DashboardStream(uint64_t seed)
      : draws_(DashboardTemplates()), rng_(seed) {}

  /// A statement of t, the k-th dashboard template.
  std::string Next(size_t k, const Template& t) {
    std::string sql;
    for (int attempt = 0; attempt < 64; ++attempt) {
      sql = Substitute(t, draws_[k].draw(rng_));
      if (seen_.insert(sql).second) return sql;
    }
    ++repeats_;
    return sql;
  }
  size_t repeats() const { return repeats_; }

 private:
  std::vector<DashTemplate> draws_;
  Rng rng_;
  std::set<std::string> seen_;
  size_t repeats_ = 0;
};

std::vector<Template> WorkloadTemplates(const Workload& w) {
  const auto tq = workload::TpchQueries();
  const auto iq = workload::InstaQueries();
  std::vector<Template> out;
  switch (w.kind) {
    case Kind::kTemplates:
      for (const auto& q : w.tpch_scale > 0 ? tq : iq) out.push_back({q.id, q.sql});
      break;
    case Kind::kDashboard:
      for (const auto& d : DashboardTemplates()) {
        const std::string id = d.id;
        const auto& q = FindQuery(id[0] == 't' ? tq : iq, id);
        out.push_back({q.id, q.sql});
      }
      break;
    case Kind::kAppend:
      // Approximable reads over the two appended fact tables; iq-14 is a
      // universe join, so both of its sampled sides see the appends.
      for (const char* id : {"tq-1", "tq-6", "tq-12"}) {
        out.push_back({id, FindQuery(tq, id).sql});
      }
      for (const char* id : {"iq-1", "iq-3", "iq-14"}) {
        out.push_back({id, FindQuery(iq, id).sql});
      }
      break;
  }
  return out;
}

// ---- Setup ------------------------------------------------------------------

int EngineThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::min(4u, std::max(1u, hw)));
}

/// Data generation plus sample preparation, by the figure benches' fixture:
/// what setup_s times. The generated base data is the fixture's and the
/// same for every seed; `seed` is the Database seed, so it drives every
/// sample draw and subsample id.
std::unique_ptr<Fixture> Setup(const Workload& w, uint64_t seed) {
  auto fx = std::make_unique<Fixture>(driver::EngineKind::kGeneric, w.tpch_scale,
                                      w.insta_scale, seed);
  core::VerdictOptions& o = fx->ctx->options();
  // The fixture's fixed 30000 lets customer (15000 rows per TPC-H scale
  // unit) and part (20000) cross the threshold from TPC-H scale 2 up, and
  // products (8000 per Instacart unit) at Instacart scale 4. They have no
  // samples, so the templates joining them silently pass through. Scaled,
  // the dimension tables stay exempt and every fact table stays sampled; at
  // the figure benches' scales (up to 1) both values give the same sets.
  o.min_rows_for_sampling = static_cast<int64_t>(
      40000 * std::max({w.tpch_scale, w.insta_scale, 0.75}));
  o.num_threads = EngineThreads();
  fx->db.set_num_threads(o.num_threads);  // the exact side reads it directly
  return fx;
}

/// Generates one append batch into `db`, with generator seeds drawn from
/// `seed`.
void GenerateBatch(engine::Database* db, double tpch_scale, double insta_scale,
                   uint64_t seed) {
  workload::TpchConfig tc;
  tc.scale = tpch_scale;
  tc.seed = SubSeed(seed, 1);
  auto st = workload::GenerateTpch(db, tc);
  if (!st.ok()) Fail("tpch batch generation: " + st.ToString());
  workload::InstaConfig ic;
  ic.scale = insta_scale;
  ic.seed = SubSeed(seed, 2);
  st = workload::GenerateInsta(db, ic);
  if (!st.ok()) Fail("insta batch generation: " + st.ToString());
}

// ---- Timed execution --------------------------------------------------------

/// One timed statement: its approximate execution and, when run, the exact
/// baseline, with both answers kept for the check after the timed phase.
struct Exec {
  size_t family = 0;  // template index
  std::string sql;
  double approx_ms = 0.0;
  double exact_ms = 0.0;
  bool has_exact = false;
  bool approximated = false;
  std::string error;  // non-empty when either side returned a non-OK Status
  core::ApproxAnswer approx;
  engine::ResultSet exact;
};

Result<engine::ResultSet> RunExact(engine::Database* db, const std::string& sql) {
  auto parsed = sql::ParseStatement(sql);
  if (!parsed.ok()) return parsed.status();
  if (parsed.value()->kind != sql::StatementKind::kSelect) {
    return Status::InvalidArgument("workload statement is not a SELECT");
  }
  // The engine has no native correlated evaluation; flattening is
  // semantics-preserving, so the exact side uses it too.
  auto flat = core::FlattenComparisonSubqueries(parsed.value()->select.get());
  if (!flat.ok()) return flat.status();
  return db->ExecuteSelect(*parsed.value()->select);
}

/// Runs a statement's approximate and exact executions back to back, so a
/// burst of host noise lands on both sides of the speedup.
Exec RunPair(Fixture& fx, size_t family, const std::string& sql, bool approx_first,
             bool with_exact) {
  Exec e;
  e.family = family;
  e.sql = sql;
  auto approx = [&] {
    core::VerdictContext::ExecInfo info;
    const auto t0 = Clock::now();
    auto r = fx.ctx->ExecuteApprox(sql, &info);
    e.approx_ms = MsSince(t0);
    if (!r.ok()) {
      e.error = "approx: " + r.status().ToString();
      return;
    }
    e.approximated = info.approximated;
    e.approx = std::move(r).ValueOrDie();
  };
  auto exact = [&] {
    const auto t0 = Clock::now();
    auto r = RunExact(&fx.db, sql);
    e.exact_ms = MsSince(t0);
    e.has_exact = true;
    if (!r.ok()) {
      e.error = "exact: " + r.status().ToString();
      return;
    }
    e.exact = std::move(r).ValueOrDie();
  };
  if (approx_first || !with_exact) {
    approx();
    if (with_exact) exact();
  } else {
    exact();
    approx();
  }
  return e;
}

/// 0..n-1 in a seeded random order.
std::vector<size_t> Shuffled(size_t n, Rng* rng) {
  std::vector<size_t> order(n);
  for (size_t k = 0; k < n; ++k) order[k] = k;
  for (size_t k = n; k > 1; --k) std::swap(order[k - 1], order[rng->NextBounded(k)]);
  return order;
}

/// A copy of `table` with `key` shifted by `offset`, built by SQL in the
/// scratch database so the column order stays the base table's.
engine::TablePtr Rekey(engine::Database* scratch, const std::string& table,
                       const std::string& key, int64_t offset) {
  auto t = scratch->catalog().GetTable(table);
  std::string cols;
  for (size_t i = 0; i < t->num_columns(); ++i) {
    const std::string& c = t->column_name(i);
    if (i) cols += ", ";
    cols += c == key ? c + " + " + Str(offset) + " as " + c : c;
  }
  const std::string name = "rekeyed_" + table;
  auto r = scratch->Execute("create table " + name + " as select " + cols + " from " + table);
  if (!r.ok()) Fail("append batch: " + r.status().ToString());
  return scratch->catalog().GetTable(name);
}

/// One timed AppendData call.
struct AppendOp {
  double ms = 0.0;
  size_t statements = 0;  // SQL statements the append issued
  std::string error;
};

// ---- Answer checks ----------------------------------------------------------

bool SameValue(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return a.is_null() && b.is_null();
  if (a.is_numeric() && b.is_numeric()) {
    const double x = a.AsDouble(), y = b.AsDouble();
    return std::abs(x - y) <= 1e-9 * std::max({1.0, std::abs(x), std::abs(y)});
  }
  return a.AsString() == b.AsString();
}

/// Pass-through answers must equal the exact answer (1e-9 relative).
std::string ComparePassthrough(const engine::ResultSet& got,
                               const engine::ResultSet& want) {
  if (got.NumRows() != want.NumRows() || got.NumCols() != want.NumCols()) {
    return "pass-through shape differs from exact";
  }
  for (size_t r = 0; r < got.NumRows(); ++r) {
    for (size_t c = 0; c < got.NumCols(); ++c) {
      if (!SameValue(got.Get(r, c), want.Get(r, c))) {
        return "pass-through cell (" + std::to_string(r) + ", " + std::to_string(c) +
               ") differs from exact";
      }
    }
  }
  return "";
}

/// Accuracy of approximated aggregate cells against the exact answer.
struct Accuracy {
  std::vector<double> rel_err;    // |est - exact| / |exact|
  std::vector<double> rel_bound;  // reported half-width / |est|
  size_t cells = 0;
  size_t covered = 0;    // exact within est ± half-width
  size_t unmeasured = 0;  // NULL half-width: no interval reported
  size_t missed_groups = 0;  // exact groups absent from the sample
};

/// Matches rows by the non-aggregate columns. Returns a non-empty reason
/// when the approximate answer is wrong in a way sampling cannot explain: a
/// non-finite estimate, or (without LIMIT) a group the data does not have.
std::string CheckApproximated(const Exec& e, Accuracy* acc) {
  const core::ApproxAnswer& a = e.approx;
  const engine::ResultSet& exact = e.exact;
  std::vector<size_t> agg_cols;
  for (const auto& g : a.aggregates) {
    agg_cols.push_back(static_cast<size_t>(g.point_column));
  }
  std::vector<size_t> key_cols;
  for (size_t c = 0; c < exact.NumCols(); ++c) {
    if (std::find(agg_cols.begin(), agg_cols.end(), c) == agg_cols.end()) {
      key_cols.push_back(c);
    }
  }
  auto key_of = [&](const engine::ResultSet& rs, size_t row) {
    std::string k;
    for (size_t c : key_cols) {
      k += engine::ValueGroupKey(rs.Get(row, c));
      k.push_back('\x1f');
    }
    return k;
  };
  std::map<std::string, size_t> exact_rows;
  for (size_t r = 0; r < exact.NumRows(); ++r) exact_rows[key_of(exact, r)] = r;

  const bool top_k = e.sql.find(" limit ") != std::string::npos;
  size_t matched = 0;
  for (size_t r = 0; r < a.result.NumRows(); ++r) {
    auto it = exact_rows.find(key_of(a.result, r));
    if (it == exact_rows.end()) {
      if (!top_k) return "approximate answer has a group the data lacks";
      continue;
    }
    ++matched;
    for (const auto& g : a.aggregates) {
      const Value est_v = a.result.Get(r, static_cast<size_t>(g.point_column));
      const Value truth_v = exact.Get(it->second, static_cast<size_t>(g.point_column));
      if (est_v.is_null() || truth_v.is_null()) continue;
      const double est = est_v.AsDouble(), truth = truth_v.AsDouble();
      if (!std::isfinite(est)) return "non-finite estimate";
      ++acc->cells;
      if (std::abs(truth) > 1e-9) {
        acc->rel_err.push_back(std::abs(est - truth) / std::abs(truth));
      }
      const Value hw_v = g.error_column >= 0
                             ? a.result.Get(r, static_cast<size_t>(g.error_column))
                             : Value::Null();
      if (hw_v.is_null()) {
        ++acc->unmeasured;
        continue;
      }
      const double hw = hw_v.AsDouble();
      if (std::abs(est - truth) <= hw) ++acc->covered;
      if (std::abs(est) > 1e-12) acc->rel_bound.push_back(hw / std::abs(est));
    }
  }
  if (!top_k) acc->missed_groups += exact.NumRows() - matched;
  return "";
}

// ---- Trace replay -----------------------------------------------------------

enum Stage {
  kParse, kFlatten, kClassify, kCatalog, kProbe, kPlan, kRewrite, kPrint,
  kEngineRewritten, kEnginePassthrough, kAnswer, kNumStages
};
constexpr const char* kStageNames[kNumStages] = {
    "sql.parse_us",  "core.flatten_us",   "core.classify_us",
    "sampling.catalog_us", "core.probe_us", "core.plan_us",
    "core.rewrite_us", "sql.print_us",    "engine.rewritten_us",
    "engine.passthrough_us", "core.answer_us"};

/// Join conditions often use unqualified columns; universe-join detection
/// needs the owning relations. Mirrors the file-local helper of the same
/// name in core/verdict_context.cc — trace.replay_mismatch catches drift.
void ResolveJoinEdgeAliases(core::QueryClass* qc, const engine::Catalog& cat) {
  auto owner_of = [&](const std::string& column) -> std::string {
    std::string found;
    for (const auto& r : qc->relations) {
      if (r.is_derived) continue;
      auto t = cat.GetTable(r.base_table);
      if (t && t->ColumnIndex(column) >= 0) {
        if (!found.empty()) return "";  // ambiguous
        found = r.alias;
      }
    }
    return found;
  };
  for (auto& e : qc->join_edges) {
    if (e.left_alias.empty()) e.left_alias = owner_of(e.left_column);
    if (e.right_alias.empty()) e.right_alias = owner_of(e.right_column);
  }
}

/// One replay of one statement: ExecuteApprox once (wall time and statement
/// log), then the same stages one public call at a time.
struct Replay {
  double stage_us[kNumStages] = {};
  double reparse_us = 0.0;  // share of engine.rewritten_us spent parsing
  double wall_us = 0.0;
  double exact_us = 0.0;
  bool approximated = false;
  bool reached_planner = false;
  bool decomposed = false;  // min/max decomposition: counted, not replayed
  std::string mismatch;
  size_t statements = 0;
  int candidates = 0;
  int subsamples = 0;
  size_t rewritten_bytes = 0;
  uint64_t rows_scanned = 0;
  uint64_t exact_rows_scanned = 0;
};

Replay ReplayOnce(Fixture& fx, const std::string& sql) {
  Replay r;
  driver::Connection& conn = fx.ctx->connection();
  const core::VerdictOptions& opts = fx.ctx->options();
  conn.ClearLog();
  core::VerdictContext::ExecInfo info;
  {
    const auto t0 = Clock::now();
    auto ans = fx.ctx->ExecuteApprox(sql, &info);
    r.wall_us = UsSince(t0);
    if (!ans.ok()) {
      r.mismatch = "ExecuteApprox failed: " + ans.status().ToString();
      return r;
    }
  }
  const std::vector<std::string> log = conn.statement_log();
  r.statements = log.size();

  auto timed = [&](Stage s, auto&& fn) {
    const auto t0 = Clock::now();
    auto v = fn();
    r.stage_us[s] += UsSince(t0);
    return v;
  };
  // ExecuteApprox's pass-through tail: parse and flatten again, then run
  // the statement unchanged through the driver.
  auto passthrough = [&] {
    auto parsed = timed(kParse, [&] { return sql::ParseStatement(sql); });
    if (!parsed.ok()) return;
    timed(kFlatten, [&] {
      return core::FlattenComparisonSubqueries(parsed.value()->select.get());
    });
    auto rs = timed(kEnginePassthrough,
                    [&] { return conn.ExecuteAst(*parsed.value()); });
    if (!rs.ok()) r.mismatch = "pass-through replay failed";
    if (info.approximated) r.mismatch = "replay passed through an approximated statement";
  };

  auto parsed = timed(kParse, [&] { return sql::ParseStatement(sql); });
  if (!parsed.ok() || parsed.value()->kind != sql::StatementKind::kSelect) {
    r.mismatch = "statement does not parse as a SELECT";
    return r;
  }
  sql::SelectStmt* sel = parsed.value()->select.get();
  auto flattened =
      timed(kFlatten, [&] { return core::FlattenComparisonSubqueries(sel); });
  if (!flattened.ok()) {
    passthrough();
    return r;
  }

  const auto t_classify = Clock::now();
  core::QueryClass qc = core::ClassifyQuery(*sel);
  if (!qc.supported) {
    r.stage_us[kClassify] += UsSince(t_classify);
    passthrough();
    return r;
  }
  if (qc.has_extreme) {
    r.decomposed = true;
    return r;
  }
  core::QueryClass* plan_qc = &qc;
  core::QueryClass qc_inner;
  if (qc.nested_aggregate) {
    qc_inner = core::ClassifyQuery(*qc.relations[0].derived);
    plan_qc = &qc_inner;
  }
  ResolveJoinEdgeAliases(plan_qc, fx.db.catalog());
  std::map<std::string, uint64_t> base_rows;
  for (const auto& rel : plan_qc->relations) {
    auto t = rel.is_derived ? nullptr : fx.db.catalog().GetTable(rel.base_table);
    base_rows[rel.alias] = t ? t->num_rows() : 0;
  }
  r.stage_us[kClassify] += UsSince(t_classify);

  auto samples =
      timed(kCatalog, [&] { return fx.ctx->sample_catalog().SamplesFor(""); });
  if (!samples.ok() || samples.value().empty()) {
    r.mismatch = "sample catalog replay failed";
    return r;
  }
  // The group-cardinality probe is private to VerdictContext; replay the
  // count(distinct ...) statements it logged between the catalog read and
  // the final statement.
  int64_t hint = 0;
  for (size_t i = 1; i + 1 < log.size(); ++i) {
    if (log[i].rfind("select count(distinct ", 0) != 0) {
      r.mismatch = "unexpected statement in the log: " + log[i];
      return r;
    }
    auto rs = timed(kProbe, [&] { return conn.Execute(log[i]); });
    if (rs.ok() && rs.value().NumRows() > 0) hint = rs.value().Get(0, 0).AsInt();
  }
  r.reached_planner = true;
  core::SamplePlanner planner(opts, samples.value());
  auto plan = timed(kPlan, [&] { return planner.Plan(*plan_qc, base_rows, hint); });
  r.candidates = planner.stats().candidates_enumerated;
  if (!plan.ok() || !plan.value().UsesSamples()) {
    passthrough();
    return r;
  }

  core::AqpRewriter rewriter(opts);
  auto rewritten = timed(kRewrite, [&] {
    return qc.nested_aggregate
               ? rewriter.RewriteNested(*sel, qc, qc_inner, plan.value(), hint)
               : rewriter.RewriteFlat(*sel, qc, plan.value());
  });
  if (!rewritten.ok()) {
    passthrough();
    return r;
  }

  sql::Statement rew_stmt;
  rew_stmt.kind = sql::StatementKind::kSelect;
  rew_stmt.select = std::move(rewritten.value().rewritten);
  const std::string text = timed(kPrint, [&] {
    return sql::PrintStatement(rew_stmt, conn.dialect().print_options);
  });
  if (!info.approximated || text != info.rewritten_sql) {
    r.mismatch = "replayed rewritten SQL differs from ExecInfo::rewritten_sql";
  }
  r.rewritten_bytes = text.size();
  r.subsamples = rewritten.value().b;
  {
    const auto t0 = Clock::now();
    auto reparsed = sql::ParseStatement(text);
    r.reparse_us = UsSince(t0);
    if (!reparsed.ok()) r.mismatch = "rewritten SQL does not re-parse";
  }
  const uint64_t scanned0 = fx.db.rows_scanned();
  auto raw = timed(kEngineRewritten, [&] { return conn.ExecuteAst(rew_stmt); });
  r.rows_scanned = fx.db.rows_scanned() - scanned0;
  if (!raw.ok()) {
    r.mismatch = "rewritten query replay failed";
    return r;
  }
  core::AnswerRewriter answerer(opts);
  auto answer = timed(kAnswer, [&] {
    return answerer.Rewrite(raw.value(), rewritten.value().columns);
  });
  if (!answer.ok()) r.mismatch = "answer rewrite replay failed";
  r.approximated = true;
  return r;
}

/// Per-statement medians over kTraceReps replays, plus the exact baseline.
Replay ReplayStatement(Fixture& fx, const std::string& sql) {
  std::vector<Replay> reps;
  for (int i = 0; i < kTraceReps; ++i) reps.push_back(ReplayOnce(fx, sql));
  Replay out = reps.back();
  auto median_of = [&](auto field) {
    std::vector<double> v;
    for (const auto& rep : reps) v.push_back(field(rep));
    return Median(v);
  };
  for (int s = 0; s < kNumStages; ++s) {
    out.stage_us[s] = median_of([&](const Replay& x) { return x.stage_us[s]; });
  }
  out.reparse_us = median_of([](const Replay& x) { return x.reparse_us; });
  out.wall_us = median_of([](const Replay& x) { return x.wall_us; });
  for (const auto& rep : reps) {
    if (out.mismatch.empty()) out.mismatch = rep.mismatch;
  }
  std::vector<double> exact_us;
  for (int i = 0; i < kTraceReps; ++i) {
    const uint64_t scanned0 = fx.db.rows_scanned();
    const auto t0 = Clock::now();
    auto rs = RunExact(&fx.db, sql);
    exact_us.push_back(UsSince(t0));
    out.exact_rows_scanned = fx.db.rows_scanned() - scanned0;
    if (!rs.ok()) out.mismatch = "exact replay failed";
  }
  out.exact_us = Median(exact_us);
  return out;
}

// ---- Output -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  size_t n;  // samples behind the value
};

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& ms, bool with_n) {
  std::string out = "{";
  for (size_t i = 0; i < ms.size(); ++i) {
    if (i) out += ", ";
    out += "\"" + ms[i].name + "\": {\"value\": " + Num(ms[i].value) +
           ", \"unit\": \"" + ms[i].unit + "\"";
    if (with_n) out += ", \"n\": " + std::to_string(ms[i].n);
    out += "}";
  }
  return out + "}";
}

std::string SpreadJson(const Spread& s) {
  return "{\"n\": " + std::to_string(s.n) + ", \"min\": " + Num(s.min) +
         ", \"median\": " + Num(s.median) + ", \"p90\": " + Num(s.p90) +
         ", \"mad\": " + Num(s.mad) + "}";
}

std::string GitSha() {
  // Only inside a git checkout: elsewhere git would search parent
  // directories for a repository.
  if (access(".git", F_OK) != 0) return "unknown";
  std::FILE* p = popen("git describe --always --dirty 2>/dev/null", "r");
  if (p == nullptr) return "unknown";
  char buf[64] = {0};
  std::string sha = std::fgets(buf, sizeof(buf), p) != nullptr ? buf : "";
  pclose(p);
  while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r')) sha.pop_back();
  return sha.empty() ? "unknown" : sha;
}

std::string CpuModel() {
  std::FILE* f = std::fopen("/proc/cpuinfo", "r");
  if (f == nullptr) return "unknown";
  char line[512];
  std::string model = "unknown";
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    std::string s = line;
    if (s.rfind("model name", 0) == 0) {
      const size_t colon = s.find(':');
      if (colon != std::string::npos) model = s.substr(colon + 2);
      while (!model.empty() && model.back() == '\n') model.pop_back();
      break;
    }
  }
  std::fclose(f);
  return model;
}

/// VmHWM of this process in MB; 0 where /proc is unavailable.
double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  unsigned long long kb = 0;
  char line[256];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %llu kB", &kb) == 1) break;
  }
  std::fclose(f);
  return static_cast<double>(kb) / 1024.0;
}

// ---- Run phases -------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  int seconds = 10;
  bool trace = false;
  std::string json;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Fail("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::max(1, std::atoi(v.c_str()));
    } else if (flag == "--trace") {
      a.trace = v != "0";
    } else if (flag == "--json") {
      a.json = v;
    } else {
      Fail("unknown flag " + flag);
    }
  }
  return a;
}

/// What the timed phase produced.
struct Phase {
  std::vector<Exec> execs;
  std::vector<AppendOp> appends;
  size_t repeats = 0;  // dashboard statements whose text repeated
  int rounds = 0;
  double seconds = 0.0;
};

/// Read-only workloads: whole rounds until the time is spent and at least
/// kMinStatements have run, so every template has the same weight in the
/// pooled percentiles. The template order is reshuffled and the
/// approx/exact order alternated every round; the dashboard draws fresh
/// literals for every statement.
Phase RunReads(Fixture& fx, const Workload& w, const std::vector<Template>& templates,
               const Args& args) {
  Phase p;
  Rng order_rng(SubSeed(args.seed, 5));
  DashboardStream stream(SubSeed(args.seed, 4));
  const auto t0 = Clock::now();
  while (p.execs.size() < kMinStatements || MsSince(t0) < 1000.0 * args.seconds) {
    for (size_t k : Shuffled(templates.size(), &order_rng)) {
      const std::string sql = w.kind == Kind::kDashboard
                                  ? stream.Next(k, templates[k])
                                  : templates[k].sql;
      p.execs.push_back(RunPair(fx, k, sql, p.rounds % 2 == 0, true));
    }
    ++p.rounds;
  }
  p.seconds = MsSince(t0) / 1000.0;
  p.repeats = stream.repeats();
  return p;
}

/// Appends `batch` to `base` through SampleBuilder::AppendData, timed, then
/// checks (untimed) that the base table and every sample's recorded base
/// count include the new rows.
AppendOp Append(Fixture& fx, const std::string& base, engine::TablePtr batch) {
  driver::Connection& conn = fx.ctx->connection();
  const std::string staging = "bench_batch_" + base;
  const size_t expected =
      batch->num_rows() + fx.db.catalog().GetTable(base)->num_rows();
  if (!fx.db.RegisterTable(staging, std::move(batch)).ok()) {
    Fail("cannot register the append batch");
  }
  AppendOp op;
  const size_t log0 = conn.statement_log().size();
  const auto t0 = Clock::now();
  const Status st = fx.ctx->sample_builder().AppendData(base, staging);
  op.ms = MsSince(t0);
  op.statements = conn.statement_log().size() - log0;
  (void)fx.db.catalog().DropTable(staging, false);
  if (!st.ok()) {
    op.error = st.ToString();
    return op;
  }
  const size_t rows = fx.db.catalog().GetTable(base)->num_rows();
  auto samples = fx.ctx->sample_catalog().SamplesFor(base);
  bool ok = rows == expected && samples.ok();
  for (const auto& s : samples.ok() ? samples.value() : std::vector<sampling::SampleInfo>{}) {
    ok = ok && s.base_rows == rows;
  }
  if (!ok) op.error = "base table or sample metadata misses appended rows";
  return op;
}

/// The append workload: a fixed cycle count, not a time limit. The data
/// grows with every append, so a time-bounded loop would make the final
/// table sizes (and every later latency) depend on the machine's speed.
/// Over the run the batches add half the initial data.
Phase RunAppends(Fixture& fx, const Workload& w, const std::vector<Template>& templates,
                 const Args& args) {
  Phase p;
  Rng order_rng(SubSeed(args.seed, 5));
  const int cycles = kAppendCyclesPerSecond * args.seconds;
  const double batch_scale = 0.5 / cycles;
  const auto t0 = Clock::now();
  for (int c = 0; c < cycles; ++c) {
    // Each batch is generated into a scratch Database (input generation,
    // outside the timed region): new orders with their line items, keys
    // shifted past every earlier batch.
    engine::Database scratch;
    GenerateBatch(&scratch, w.tpch_scale * batch_scale, w.insta_scale * batch_scale,
                 SubSeed(args.seed, 100 + static_cast<uint64_t>(c)));
    const int64_t offset = kBatchKeyStride * (c + 1);
    p.appends.push_back(Append(fx, "orders", Rekey(&scratch, "orders", "o_orderkey", offset)));
    p.appends.push_back(Append(fx, "lineitem", Rekey(&scratch, "lineitem", "l_orderkey", offset)));
    p.appends.push_back(
        Append(fx, "orders_insta", Rekey(&scratch, "orders_insta", "order_id", offset)));
    p.appends.push_back(
        Append(fx, "order_products", Rekey(&scratch, "order_products", "order_id", offset)));
    const bool check = c % kAppendExactEvery == kAppendExactEvery - 1;
    for (size_t k : Shuffled(templates.size(), &order_rng)) {
      p.execs.push_back(RunPair(fx, k, templates[k].sql, c % 2 == 0, check));
    }
  }
  p.rounds = cycles;
  p.seconds = MsSince(t0) / 1000.0;
  return p;
}

/// The answer check's outcome, per template and pooled.
struct Checked {
  size_t failed = 0;
  std::vector<Accuracy> per_template;
  Accuracy all;
};

Checked CheckAnswers(const Phase& p, const std::vector<Template>& templates) {
  Checked c;
  c.per_template.resize(templates.size());
  auto fail = [&](const std::string& what) {
    if (c.failed++ < 5) std::fprintf(stderr, "FAILED %s\n", what.c_str());
  };
  for (const Exec& e : p.execs) {
    std::string why = e.error;
    if (why.empty() && e.has_exact) {
      why = e.approximated ? CheckApproximated(e, &c.per_template[e.family])
                           : ComparePassthrough(e.approx.result, e.exact);
    }
    if (!why.empty()) fail(templates[e.family].id + ": " + why);
  }
  for (const AppendOp& op : p.appends) {
    if (!op.error.empty()) fail("append: " + op.error);
  }
  for (const Accuracy& a : c.per_template) {
    c.all.rel_err.insert(c.all.rel_err.end(), a.rel_err.begin(), a.rel_err.end());
    c.all.rel_bound.insert(c.all.rel_bound.end(), a.rel_bound.begin(), a.rel_bound.end());
    c.all.cells += a.cells;
    c.all.covered += a.covered;
    c.all.unmeasured += a.unmeasured;
    c.all.missed_groups += a.missed_groups;
  }
  return c;
}

double Coverage(const Accuracy& a) {
  return a.cells == 0 ? 0.0
                      : static_cast<double>(a.covered) / static_cast<double>(a.cells);
}

/// Latencies of one template's statements.
struct TemplateTimes {
  std::vector<double> approx_ms, exact_ms;
  std::vector<double> speedup;  // exact / approx of each back-to-back pair
  size_t approximated = 0;
};

std::vector<TemplateTimes> PerTemplate(const Phase& p, size_t n) {
  std::vector<TemplateTimes> t(n);
  for (const Exec& e : p.execs) {
    t[e.family].approx_ms.push_back(e.approx_ms);
    if (e.has_exact) {
      t[e.family].exact_ms.push_back(e.exact_ms);
      t[e.family].speedup.push_back(e.exact_ms / e.approx_ms);
    }
    if (e.approximated) ++t[e.family].approximated;
  }
  return t;
}

/// The metrics of one run. `e2e` and `layers` are the ones BENCHMARK.json
/// names; the `_extra` lists are recorded but not gated.
struct Metrics {
  std::vector<Metric> e2e, e2e_extra, layers, layers_extra;
};

void EndToEnd(const Workload& w, const Phase& p, const Checked& c,
              const std::vector<TemplateTimes>& per_template,
              const std::vector<double>& setup_s, Metrics* m) {
  std::vector<double> approx_ms, append_ms;
  double busy_ms = 0.0;
  size_t approximated = 0;
  for (const Exec& e : p.execs) {
    approx_ms.push_back(e.approx_ms);
    busy_ms += e.approx_ms;
    if (e.approximated) ++approximated;
  }
  for (const AppendOp& op : p.appends) {
    append_ms.push_back(op.ms);
    busy_ms += op.ms;
  }
  std::vector<double> approx_med, exact_med, speedup;
  for (const TemplateTimes& t : per_template) {
    if (t.approx_ms.empty() || t.exact_ms.empty()) continue;
    approx_med.push_back(Median(t.approx_ms));
    exact_med.push_back(Median(t.exact_ms));
    // Paired: a burst of host noise slows both sides of a pair alike.
    speedup.push_back(Median(t.speedup));
  }
  const size_t ops = p.execs.size() + p.appends.size();
  m->e2e = {
      {"speedup_geomean", Geomean(speedup), "x", speedup.size()},
      {"approx_share",
       static_cast<double>(approximated) / static_cast<double>(p.execs.size()),
       "fraction", p.execs.size()},
      {"peak_rss_mb", PeakRssMb(), "MB", 1},
      {"setup_s", Median(setup_s), "s", setup_s.size()},
      {"err_bound_p50", Median(c.all.rel_bound), "fraction", c.all.rel_bound.size()},
      {"ci_coverage", Coverage(c.all), "fraction", c.all.cells},
  };
  // Absolute latencies move together with the host's load, by 5-31%
  // IQR/median between runs on a shared 4-vCPU VM, so they are recorded but
  // not gated. rel_err_p50 rests on the one sample draw a seed makes and
  // moves with the seed by up to 26%. error_rate must be 0, since any
  // failure makes the run incorrect.
  m->e2e_extra = {
      {"approx_p50_ms", Median(approx_ms), "ms", approx_ms.size()},
      {"approx_p90_ms", Quantile(approx_ms, 0.9), "ms", approx_ms.size()},
      {"approx_geomean_ms", Geomean(approx_med), "ms", approx_med.size()},
      {"throughput_qps", static_cast<double>(ops) / (busy_ms / 1000.0), "stmt/s", ops},
      {"exact_geomean_ms", Geomean(exact_med), "ms", exact_med.size()},
      {"rel_err_p50", Median(c.all.rel_err), "fraction", c.all.rel_err.size()},
      {"error_rate", static_cast<double>(c.failed) / static_cast<double>(ops),
       "fraction", ops},
  };
  if (w.kind == Kind::kDashboard) {
    m->e2e_extra.push_back({"repeated_share",
                            static_cast<double>(p.repeats) / static_cast<double>(p.execs.size()),
                            "fraction", p.execs.size()});
  }
  if (w.kind == Kind::kAppend) {
    m->e2e_extra.push_back({"append_p50_ms", Median(append_ms), "ms", append_ms.size()});
    m->e2e_extra.push_back({"append_p95_ms", Quantile(append_ms, 0.95), "ms", append_ms.size()});
  }
}

struct BuildTimes {
  std::vector<double> uniform_ms, hashed_ms;
};

/// Rebuilds every registered sample once, timed: unregister it and drop its
/// table (untimed), then create it again from its catalog entry. It runs
/// last, so nothing reads the rebuilt samples; on append-sf1 they are built
/// over the grown tables.
BuildTimes TimeSampleBuilds(Fixture& fx) {
  auto samples = fx.ctx->sample_catalog().SamplesFor("");
  if (!samples.ok()) Fail("sample catalog: " + samples.status().ToString());
  auto& b = fx.ctx->sample_builder();
  BuildTimes bt;
  for (const sampling::SampleInfo& s : samples.value()) {
    const bool uniform = s.type == sampling::SampleType::kUniform;
    if (!uniform && s.type != sampling::SampleType::kHashed) continue;
    // Unregister also drops the sample table.
    if (!fx.ctx->sample_catalog().Unregister(s.sample_table).ok()) {
      Fail("cannot drop sample " + s.sample_table);
    }
    const auto t0 = Clock::now();
    auto r = uniform ? b.CreateUniformSample(s.base_table, s.ratio)
                     : b.CreateHashedSample(s.base_table, s.columns.at(0), s.ratio);
    (uniform ? bt.uniform_ms : bt.hashed_ms).push_back(MsSince(t0));
    if (!r.ok()) Fail("sample rebuild: " + r.status().ToString());
  }
  return bt;
}

/// The replay pass: each distinct statement once (the dashboard's first
/// kDashboardTraced), stage by stage, then the sample builds. Returns the
/// replay mismatch count.
size_t TraceLayers(Fixture& fx, const Workload& w, const std::vector<Template>& templates,
                   const Phase& p, Metrics* m) {
  std::vector<std::string> distinct;
  if (w.kind == Kind::kDashboard) {
    for (size_t i = 0; i < p.execs.size() && i < kDashboardTraced; ++i) {
      distinct.push_back(p.execs[i].sql);
    }
  } else {
    for (const auto& t : templates) distinct.push_back(t.sql);
  }
  double stage_sum[kNumStages] = {};
  double reparse = 0, exact = 0, statements = 0;
  std::vector<double> bytes, subsamples, rows, exact_rows, candidates, coverage;
  size_t decomposed = 0, mismatches = 0;
  for (const std::string& sql : distinct) {
    const Replay r = ReplayStatement(fx, sql);
    if (r.decomposed) {
      ++decomposed;
      continue;
    }
    if (!r.mismatch.empty()) {
      ++mismatches;
      std::fprintf(stderr, "REPLAY MISMATCH %s: %s\n", sql.c_str(), r.mismatch.c_str());
    }
    double stages_us = 0.0;
    for (int s = 0; s < kNumStages; ++s) {
      stage_sum[s] += r.stage_us[s];
      stages_us += r.stage_us[s];
    }
    coverage.push_back(stages_us / r.wall_us);
    reparse += r.reparse_us;
    exact += r.exact_us;
    statements += static_cast<double>(r.statements);
    exact_rows.push_back(static_cast<double>(r.exact_rows_scanned));
    if (r.reached_planner) candidates.push_back(r.candidates);
    if (r.approximated) {
      bytes.push_back(static_cast<double>(r.rewritten_bytes));
      subsamples.push_back(r.subsamples);
      rows.push_back(static_cast<double>(r.rows_scanned));
    }
  }
  const BuildTimes build_times = TimeSampleBuilds(fx);
  const size_t n = distinct.size() - decomposed;
  const double nd = static_cast<double>(std::max<size_t>(1, n));
  for (int s = 0; s < kNumStages; ++s) {
    // Zero on workloads without pass-through statements: not gated.
    auto& into = s == kEnginePassthrough ? m->layers_extra : m->layers;
    into.push_back({kStageNames[s], stage_sum[s] / nd, "us", n});
  }
  m->layers.insert(m->layers.end(), {
      {"sql.reparse_us", reparse / nd, "us", n},
      {"sql.rewritten_bytes", Mean(bytes), "bytes", bytes.size()},
      {"core.plan_candidates", Mean(candidates), "count", candidates.size()},
      {"core.subsamples", Mean(subsamples), "count", subsamples.size()},
      {"sampling.build_uniform_ms", Mean(build_times.uniform_ms), "ms",
       build_times.uniform_ms.size()},
      {"sampling.build_hashed_ms", Mean(build_times.hashed_ms), "ms",
       build_times.hashed_ms.size()},
      {"driver.statements", statements / nd, "count", n},
      {"engine.exact_us", exact / nd, "us", n},
      {"engine.rows_scanned", Mean(rows), "count", rows.size()},
      {"engine.exact_rows_scanned", Mean(exact_rows), "count", exact_rows.size()},
  });
  // A range check, not a metric to push up or down: the replayed stages
  // should add up to the measured ExecuteApprox time (0.9 to 1.1).
  const double stage_coverage = Median(coverage);
  if (stage_coverage < 0.9 || stage_coverage > 1.1) {
    std::fprintf(stderr, "warning: trace.coverage %.3f is outside [0.9, 1.1]\n",
                 stage_coverage);
  }
  m->layers_extra.push_back({"trace.coverage", stage_coverage, "fraction", coverage.size()});
  // Must be zero (a mismatch makes the run incorrect): not gated.
  m->layers_extra.push_back(
      {"trace.replay_mismatch", static_cast<double>(mismatches), "count", n});
  m->layers_extra.push_back(
      {"trace.decomposed_skipped", static_cast<double>(decomposed), "count", distinct.size()});
  if (w.kind == Kind::kAppend) {
    std::vector<double> per_append;
    for (const AppendOp& op : p.appends) per_append.push_back(static_cast<double>(op.statements));
    m->layers_extra.push_back(
        {"driver.append_statements", Mean(per_append), "count", per_append.size()});
  }
  return mismatches;
}

void PrintReport(const Workload& w, const Args& args, const Phase& p,
                 const std::vector<Template>& templates,
                 const std::vector<TemplateTimes>& per_template, const Checked& c,
                 const Metrics& m) {
  std::printf("workload %s  seed %llu  rounds %d  timed phase %.1f s  "
              "engine threads %d  simd %s\n",
              w.name, static_cast<unsigned long long>(args.seed), p.rounds, p.seconds,
              EngineThreads(),
              engine::kernels::SimdLevelName(engine::kernels::CurrentSimdLevel()));
  std::printf("%-8s %-8s %6s %12s %12s %9s %7s %9s %9s\n", "template", "mode", "n",
              "approx_ms", "exact_ms", "speedup", "cells", "coverage", "rel_err");
  for (size_t k = 0; k < templates.size(); ++k) {
    const TemplateTimes& t = per_template[k];
    const double am = Median(t.approx_ms), em = Median(t.exact_ms);
    const double speedup = Median(t.speedup);
    const char* mode = t.approximated == t.approx_ms.size() ? "approx"
                       : t.approximated == 0               ? "exact"
                                                           : "mixed";
    const Accuracy& a = c.per_template[k];
    std::printf("%-8s %-8s %6zu %12.3f %12.3f %8.2fx %7zu %9.3f %9.4f\n",
                templates[k].id.c_str(), mode, t.approx_ms.size(), am, em,
                speedup, a.cells, Coverage(a), Median(a.rel_err));
  }
  for (const auto* group : {&m.e2e, &m.e2e_extra, &m.layers, &m.layers_extra}) {
    for (const Metric& x : *group) {
      std::printf("%-28s %14.6g %-8s (n=%zu)\n", x.name.c_str(), x.value, x.unit.c_str(),
                  x.n);
    }
  }
  std::printf("cells %zu  unmeasured %zu  missed groups %zu\n", c.all.cells,
              c.all.unmeasured, c.all.missed_groups);
}

void WriteRecord(const Workload& w, const Args& args, const Phase& p,
                 const std::vector<Template>& templates,
                 const std::vector<TemplateTimes>& per_template,
                 const std::vector<double>& setup_s, const Metrics& m, bool correct,
                 size_t failed) {
  std::FILE* f = std::fopen(args.json.c_str(), "w");
  if (f == nullptr) Fail("cannot write " + args.json);
  std::vector<double> approx_ms, exact_ms, append_ms;
  std::string templ = "[";
  for (size_t k = 0; k < templates.size(); ++k) {
    const TemplateTimes& t = per_template[k];
    approx_ms.insert(approx_ms.end(), t.approx_ms.begin(), t.approx_ms.end());
    exact_ms.insert(exact_ms.end(), t.exact_ms.begin(), t.exact_ms.end());
    if (k) templ += ",\n   ";
    templ += "{\"id\": \"" + templates[k].id + "\", \"approximated\": " +
             std::to_string(t.approximated) + ", \"approx_ms\": " +
             SpreadJson(SpreadOf(t.approx_ms)) + ", \"exact_ms\": " +
             SpreadJson(SpreadOf(t.exact_ms)) + "}";
  }
  templ += "]";
  for (const AppendOp& op : p.appends) append_ms.push_back(op.ms);
  std::vector<Metric> extra = m.e2e_extra;
  extra.insert(extra.end(), m.layers_extra.begin(), m.layers_extra.end());
  std::fprintf(
      f,
      "{\"bench\": \"e2e\", \"workload\": \"%s\", \"seed\": %llu, \"seconds\": %d, "
      "\"trace\": %s, \"rounds\": %d,\n"
      " \"machine\": {\"git_sha\": \"%s\", \"nproc\": %u, \"engine_threads\": %d, "
      "\"simd\": \"%s\", \"build_type\": \"%s\", \"cpu\": \"%s\"},\n"
      " \"correct\": %s, \"attempted\": %zu, \"failed\": %zu,\n"
      " \"metrics\": %s,\n \"layers\": %s,\n \"extra\": %s,\n"
      " \"timings\": {\"approx_ms\": %s, \"exact_ms\": %s, \"append_ms\": %s, "
      "\"setup_s\": %s},\n"
      " \"templates\": %s}\n",
      w.name, static_cast<unsigned long long>(args.seed), args.seconds,
      args.trace ? "true" : "false", p.rounds, JsonEscape(GitSha()).c_str(),
      std::thread::hardware_concurrency(), EngineThreads(),
      engine::kernels::SimdLevelName(engine::kernels::CurrentSimdLevel()),
      AQPBENCH_BUILD_TYPE, JsonEscape(CpuModel()).c_str(), correct ? "true" : "false",
      p.execs.size() + p.appends.size(), failed, MetricsJson(m.e2e, true).c_str(),
      MetricsJson(m.layers, true).c_str(), MetricsJson(extra, true).c_str(),
      SpreadJson(SpreadOf(approx_ms)).c_str(), SpreadJson(SpreadOf(exact_ms)).c_str(),
      SpreadJson(SpreadOf(append_ms)).c_str(), SpreadJson(SpreadOf(setup_s)).c_str(),
      templ.c_str());
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const Workload* wp = nullptr;
  std::string names;
  for (const auto& w : kWorkloads) {
    if (args.workload == w.name) wp = &w;
    names += std::string(" ") + w.name;
  }
  if (wp == nullptr) Fail("--workload must be one of:" + names);
  const Workload& w = *wp;
  const std::vector<Template> templates = WorkloadTemplates(w);

  // 1. Setup, several times: setup_s is the median. Only the last
  //    fixture is kept; each earlier one is freed first, so peak memory
  //    reflects one copy of the data.
  std::vector<double> setup_s;
  std::unique_ptr<Fixture> fixture;
  while (setup_s.size() < w.setup_reps) {
    fixture.reset();
    const auto t0 = Clock::now();
    fixture = Setup(w, args.seed);
    setup_s.push_back(MsSince(t0) / 1000.0);
  }
  Fixture& fx = *fixture;

  // 2. One untimed warm-up round: every template once, both sides.
  for (size_t k = 0; k < templates.size(); ++k) {
    const Exec e = RunPair(fx, k, templates[k].sql, true, true);
    if (!e.error.empty()) Fail(templates[k].id + " warm-up: " + e.error);
  }

  // 3. The timed phase: a closed loop, one client, no think time.
  const Phase phase = w.kind == Kind::kAppend ? RunAppends(fx, w, templates, args)
                                              : RunReads(fx, w, templates, args);

  // 4. Every answer against the exact one, outside the timed region.
  const Checked checked = CheckAnswers(phase, templates);
  const std::vector<TemplateTimes> per_template = PerTemplate(phase, templates.size());
  Metrics m;
  EndToEnd(w, phase, checked, per_template, setup_s, &m);

  // 5. The replay pass, after the timed phase so it cannot perturb it.
  const size_t mismatches =
      args.trace ? TraceLayers(fx, w, templates, phase, &m) : 0;
  const bool correct = checked.failed == 0 && mismatches == 0;

  PrintReport(w, args, phase, templates, per_template, checked, m);
  if (!args.json.empty()) {
    WriteRecord(w, args, phase, templates, per_template, setup_s, m, correct,
                checked.failed);
  }
  const std::vector<Metric>& result = args.trace ? m.layers : m.e2e;
  for (const Metric& x : result) {
    if (!std::isfinite(x.value)) Fail(x.name + " is not finite");
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": %s}\n",
              correct ? "true" : "false", phase.execs.size() + phase.appends.size(),
              checked.failed, MetricsJson(result, false).c_str());
  return correct ? 0 : 1;
}
