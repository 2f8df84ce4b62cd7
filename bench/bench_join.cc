// Join benchmark: the flat radix-partitioned hash join vs. the old per-row
// string-key std::unordered_map join (kept here as the baseline), swept over
// build-side sizes (1K / 32K / 1M), key cardinalities (unique / skewed /
// hot-key) and 1/2/4/8 threads.
//
// Probe sizes are chosen so every configuration emits ~build_size output
// pairs — the modes differ in duplicate-chain length (1 / 16 / n/256), not
// output volume, so timings compare build+probe cost, not gather volume.
// Both sides share the combined-gather code path (GatherJoinPairsInto), so
// the delta is purely key hashing + table build + probe.
//
// Acceptance bar (ISSUE 4): >= 3x single-thread build+probe speedup over
// the string-map baseline on the 1M-row unique-key case.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "engine/aggregates.h"
#include "engine/join_table.h"
#include "engine/operators.h"
#include "engine/table.h"

namespace vdb::engine {
namespace {

/// Key cardinality shapes. Every shape emits ~build_size pairs.
enum Mode : int { kUnique = 0, kSkewed = 1, kHotKey = 2 };

size_t KeyDomain(size_t build_rows, int mode) {
  switch (mode) {
    case kUnique:
      return build_rows;
    case kSkewed:
      return std::max<size_t>(1, build_rows / 16);
    default:  // kHotKey: 256 keys, each with build_rows/256 duplicates.
      return std::min<size_t>(256, build_rows);
  }
}

size_t ProbeRows(size_t build_rows, int mode) {
  // ~one emitted pair per build row: probe_rows * (build_rows / domain).
  return KeyDomain(build_rows, mode);
}

TablePtr MakeSide(size_t rows, size_t key_domain, bool sequential,
                  uint64_t seed, const char* payload) {
  Rng rng(seed);
  std::vector<int64_t> keys(rows), pay(rows);
  for (size_t r = 0; r < rows; ++r) {
    keys[r] = sequential ? static_cast<int64_t>(r % key_domain)
                         : static_cast<int64_t>(rng.NextBounded(key_domain));
    pay[r] = static_cast<int64_t>(r);
  }
  auto t = std::make_shared<Table>();
  t->AddColumn("k", Column::FromData(TypeId::kInt64, std::move(keys), {}, {},
                                     {}));
  t->AddColumn(payload, Column::FromData(TypeId::kInt64, std::move(pay), {},
                                         {}, {}));
  return t;
}

struct JoinInput {
  TablePtr probe, build;
};

/// One input per (build_rows, mode), built once and shared across the
/// baseline and every thread count so all variants join identical data.
const JoinInput& InputFor(size_t build_rows, int mode) {
  static std::map<std::pair<size_t, int>, JoinInput>* cache =
      new std::map<std::pair<size_t, int>, JoinInput>();
  auto it = cache->find({build_rows, mode});
  if (it == cache->end()) {
    const size_t domain = KeyDomain(build_rows, mode);
    JoinInput in;
    in.build = MakeSide(build_rows, domain, /*sequential=*/true, 7, "rv");
    in.probe =
        MakeSide(ProbeRows(build_rows, mode), domain, /*sequential=*/false,
                 11, "lv");
    it = cache->emplace(std::make_pair(build_rows, mode), std::move(in)).first;
  }
  return it->second;
}

/// The pre-rewrite join, verbatim in shape: per-row ValueGroupKey string
/// keys on both sides, serial std::unordered_map<string, vector> build,
/// left-row-major probe. The combined gather is shared with the new path.
TablePtr StringMapJoinBaseline(const TablePtr& left_table,
                               const TablePtr& right_table) {
  const Table& left = *left_table;
  const Table& right = *right_table;
  auto key_of = [](const Table& t, size_t row, bool* has_null) {
    Value v = t.column(0).Get(row);
    *has_null = v.is_null();
    std::string key = ValueGroupKey(v);
    key.push_back('\x1f');
    return key;
  };
  std::unordered_map<std::string, std::vector<uint32_t>> build;
  build.reserve(right.num_rows());
  for (size_t r = 0; r < right.num_rows(); ++r) {
    bool has_null = false;
    std::string key = key_of(right, r, &has_null);
    if (!has_null) build[key].push_back(static_cast<uint32_t>(r));
  }
  SelVector out_l, out_r;
  for (size_t lr = 0; lr < left.num_rows(); ++lr) {
    bool has_null = false;
    std::string key = key_of(left, lr, &has_null);
    if (has_null) continue;
    auto it = build.find(key);
    if (it == build.end()) continue;
    for (uint32_t rr : it->second) {
      out_l.push_back(static_cast<uint32_t>(lr));
      out_r.push_back(rr);
    }
  }
  auto out = std::make_shared<Table>();
  GatherJoinPairsInto(RowSet::Of(left_table), out_l.data(),
                      RowSet::Of(right_table), out_r.data(), out_l.size(), 1,
                      out.get());
  return out;
}

void BM_JoinStringMapBaseline(benchmark::State& state) {
  const JoinInput& in = InputFor(static_cast<size_t>(state.range(0)),
                                 static_cast<int>(state.range(1)));
  size_t out_rows = 0;
  for (auto _ : state) {
    TablePtr out = StringMapJoinBaseline(in.probe, in.build);
    out_rows = out->num_rows();
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(static_cast<uint64_t>(state.iterations()) *
                           out_rows));
  state.counters["out_rows"] = static_cast<double>(out_rows);
}

void BM_JoinRadix(benchmark::State& state) {
  const JoinInput& in = InputFor(static_cast<size_t>(state.range(0)),
                                 static_cast<int>(state.range(1)));
  const int threads = static_cast<int>(state.range(2));
  size_t out_rows = 0;
  for (auto _ : state) {
    auto out = HashJoin(*in.probe, *in.build, std::vector<int>{0},
                        std::vector<int>{0}, sql::JoinType::kInner, nullptr,
                        /*rand_seed=*/1, threads);
    if (!out.ok()) {
      state.SkipWithError(out.status().ToString().c_str());
      return;
    }
    out_rows = out.value()->num_rows();
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(static_cast<uint64_t>(state.iterations()) *
                           out_rows));
  state.counters["out_rows"] = static_cast<double>(out_rows);
}

BENCHMARK(BM_JoinStringMapBaseline)
    ->ArgNames({"build", "mode"})
    ->ArgsProduct({{1 << 10, 1 << 15, 1 << 20}, {kUnique, kSkewed, kHotKey}})
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_JoinRadix)
    ->ArgNames({"build", "mode", "threads"})
    ->ArgsProduct({{1 << 10, 1 << 15, 1 << 20},
                   {kUnique, kSkewed, kHotKey},
                   {1, 2, 4, 8}})
    ->Unit(benchmark::kMillisecond);

/// Bloom pre-probe section: a build side big enough to enable the filter
/// automatically, probed at two hit rates. Low-hit probes are the filter's
/// target — most probe rows are rejected by a single gathered Bloom word
/// instead of a slot-array walk — while the 100%-hit probe bounds the
/// overhead when the filter never rejects anything. Every (on, off) pair is
/// differentially checked: the filter has no false negatives, so the pair
/// lists must be identical element for element.
bool RunBloomSection(bool smoke) {
  using vdb::bench::BenchJsonRecord;
  using vdb::bench::TimeMedianMs;

  const size_t build_rows = smoke ? (1 << 16) : (1 << 20);
  const size_t probe_rows = smoke ? (1 << 18) : (1 << 21);
  const int reps = smoke ? 3 : 5;
  // Low hit rate: probe keys span 64x the build domain (~1.6% hits).
  // Full hit rate: probe keys drawn from the build domain itself.
  struct HitCase {
    const char* label;
    size_t probe_domain;
  };
  const HitCase hit_cases[] = {
      {"low-hit (~1.6%)", build_rows * 64},
      {"all-hit (100%)", build_rows},
  };

  TablePtr build = MakeSide(build_rows, build_rows, /*sequential=*/true, 7,
                            "rv");
  std::printf("\n== join Bloom pre-probe: build=%zu probe=%zu ==\n",
              build_rows, probe_rows);
  std::printf("%-18s %-6s %12s %12s %9s  %s\n", "probe mix", "thr",
              "off ms", "on ms", "speedup", "pairs (off == on)");

  bool all_ok = true;
  for (const HitCase& hc : hit_cases) {
    TablePtr probe = MakeSide(probe_rows, hc.probe_domain,
                              /*sequential=*/false, 11, "lv");
    const std::vector<const Column*> lk{&probe->column(0)};
    const std::vector<const Column*> rk{&build->column(0)};
    for (int threads : smoke ? std::vector<int>{1} : std::vector<int>{1, 2}) {
      auto run_pairs = [&](int bloom_mode, size_t* pairs) {
        SetJoinBloomForTest(bloom_mode);
        auto out = HashJoinPairs(RowSet::Of(probe), RowSet::Of(build), lk, rk,
                                 sql::JoinType::kInner, nullptr,
                                 /*rand_seed=*/1, threads);
        SetJoinBloomForTest(-1);
        if (!out.ok()) {
          std::printf("ERROR: %s\n", out.status().ToString().c_str());
          return false;
        }
        *pairs = out.value().size();
        return true;
      };
      size_t pairs_off = 0, pairs_on = 0;
      bool ok = true;
      const double off_ms = TimeMedianMs(
          reps, [&] { ok = ok && run_pairs(0, &pairs_off); });
      const double on_ms = TimeMedianMs(
          reps, [&] { ok = ok && run_pairs(1, &pairs_on); });
      if (!ok) {
        all_ok = false;
        continue;
      }
      // Differential: identical pair lists element for element (no false
      // negatives), checked directly once per configuration.
      SetJoinBloomForTest(0);
      auto ref = HashJoinPairs(RowSet::Of(probe), RowSet::Of(build), lk, rk,
                               sql::JoinType::kInner, nullptr, 1, threads);
      SetJoinBloomForTest(1);
      auto fil = HashJoinPairs(RowSet::Of(probe), RowSet::Of(build), lk, rk,
                               sql::JoinType::kInner, nullptr, 1, threads);
      SetJoinBloomForTest(-1);
      const bool same = ref.ok() && fil.ok() &&
                        ref.value().left == fil.value().left &&
                        ref.value().right == fil.value().right;
      if (!same || pairs_off != pairs_on) all_ok = false;
      std::printf("%-18s %-6d %12.2f %12.2f %8.2fx  %zu %s\n", hc.label,
                  threads, off_ms, on_ms, off_ms / on_ms, pairs_off,
                  same && pairs_off == pairs_on ? "ok" : "MISMATCH");
      const std::string op = std::string("join probe ") + hc.label;
      BenchJsonRecord(op, "bloom=off", off_ms, threads);
      BenchJsonRecord(op, "bloom=on", on_ms, threads);
    }
  }
  return all_ok;
}

/// Thread-count section: a build side several morsels long, so at 2 and 4
/// threads the build is radix-partitioned, probed by a left join in which
/// half the probe keys miss (null extensions). A second join composes the
/// first join's row set with a third table on a key gathered from the row
/// set, and the root gathers every column. The pair lists of both joins and
/// the gathered table must be identical at 1, 2 and 4 threads.
bool RunThreadSection() {
  const size_t build_rows = 4 * MorselRows() + 123;
  const size_t keys = build_rows / 4;  // four build rows per key
  TablePtr build = MakeSide(build_rows, keys, /*sequential=*/true, 7, "rv");
  TablePtr probe = MakeSide(build_rows, 2 * keys, /*sequential=*/false, 11,
                            "lv");
  TablePtr third = MakeSide(keys, keys, /*sequential=*/true, 13, "tv");
  std::printf("\n== join thread counts: build=%zu probe=%zu third=%zu ==\n",
              build_rows, build_rows, keys);

  struct Run {
    JoinPairs first, second;
    TablePtr gathered;
  };
  auto run = [&](int threads) -> Result<Run> {
    Run out;
    auto first = HashJoinPairs(RowSet::Of(probe), RowSet::Of(build),
                               {&probe->column(0)}, {&build->column(0)},
                               sql::JoinType::kLeft, nullptr, 1, threads);
    if (!first.ok()) return first.status();
    out.first = first.value();
    auto rows = RowSet::Join(RowSet::Of(probe), RowSet::Of(build),
                             std::move(first).ValueOrDie(), threads, nullptr);
    if (!rows.ok()) return rows.status();
    // The build side's payload (combined column 3) is its row number, so
    // the first quarter of the build rows find a partner in `third`.
    const Column key = rows.value().GatherColumn(3, threads);
    auto second = HashJoinPairs(rows.value(), RowSet::Of(third), {&key},
                                {&third->column(0)}, sql::JoinType::kInner,
                                nullptr, 1, threads);
    if (!second.ok()) return second.status();
    out.second = second.value();
    auto joined = RowSet::Join(std::move(rows).ValueOrDie(),
                               RowSet::Of(third),
                               std::move(second).ValueOrDie(), threads,
                               nullptr);
    if (!joined.ok()) return joined.status();
    auto gathered = joined.value().GatherGuarded(
        threads, nullptr, joined.value().AllColumns());
    if (!gathered.ok()) return gathered.status();
    out.gathered = std::move(gathered).ValueOrDie();
    return out;
  };
  auto same_table = [](const Table& a, const Table& b) {
    if (a.num_columns() != b.num_columns() || a.num_rows() != b.num_rows()) {
      return false;
    }
    for (size_t c = 0; c < a.num_columns(); ++c) {
      for (size_t r = 0; r < a.num_rows(); ++r) {
        const Value x = a.Get(r, c), y = b.Get(r, c);
        if (x.is_null() != y.is_null() || (!x.is_null() && !x.Equals(y))) {
          return false;
        }
      }
    }
    return true;
  };

  bool all_ok = true;
  auto ref = run(1);
  if (!ref.ok()) {
    std::printf("ERROR: %s\n", ref.status().ToString().c_str());
    return false;
  }
  for (int threads : {1, 2, 4}) {
    auto got = run(threads);
    if (!got.ok()) {
      std::printf("ERROR: %s\n", got.status().ToString().c_str());
      all_ok = false;
      continue;
    }
    const Run& a = ref.value();
    const Run& b = got.value();
    const bool same = a.first.left == b.first.left &&
                      a.first.right == b.first.right &&
                      a.second.left == b.second.left &&
                      a.second.right == b.second.right &&
                      same_table(*a.gathered, *b.gathered);
    if (!same) all_ok = false;
    std::printf("thr %d: first join %zu pairs, second %zu pairs, gathered "
                "%zu rows  %s\n",
                threads, b.first.size(), b.second.size(),
                b.gathered->num_rows(), same ? "ok" : "MISMATCH");
  }
  return all_ok;
}

}  // namespace
}  // namespace vdb::engine

int main(int argc, char** argv) {
  vdb::bench::BenchJsonInit("join", argc, argv);
  const bool smoke = vdb::bench::HasFlag(argc, argv, "--smoke");

  const bool bloom_ok = vdb::engine::RunBloomSection(smoke);
  const bool threads_ok = vdb::engine::RunThreadSection();

  if (!smoke) {
    // Drop our flags before Google Benchmark sees (and rejects) them.
    std::vector<char*> kept;
    for (int i = 0; i < argc; ++i) {
      const std::string a = argv[i];
      if (a != "--json" && a != "--smoke") kept.push_back(argv[i]);
    }
    int kept_argc = static_cast<int>(kept.size());
    benchmark::Initialize(&kept_argc, kept.data());
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
  }
  vdb::bench::BenchJsonWrite();
  return bloom_ok && threads_ok ? 0 : 1;
}
