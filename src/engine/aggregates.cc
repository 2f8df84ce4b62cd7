#include "engine/aggregates.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <vector>

#include "common/hash.h"
#include "engine/agg_table.h"
#include "engine/functions.h"
#include "engine/hll.h"
#include "engine/kernels/kernels.h"

namespace vdb::engine {

std::string ValueGroupKey(const Value& v) {
  switch (v.type()) {
    case TypeId::kNull:
      return std::string("\x00N", 2);
    case TypeId::kBool:
    case TypeId::kInt64:
      return "\x01" + std::to_string(v.AsInt());
    case TypeId::kDouble: {
      double d = v.AsDouble();
      // One key for every NaN: %.17g would print "nan" vs "-nan" by sign,
      // while the vectorized group-id path (engine/group_ids.cc) puts all
      // NaNs in one equivalence class — the two must agree or parallel
      // partial-aggregation merges diverge from serial grouping.
      if (std::isnan(d)) return std::string("\x02nan");
      if (d == std::floor(d) && std::abs(d) < 9.2e18) {
        return "\x01" + std::to_string(static_cast<int64_t>(d));
      }
      char buf[40];
      std::snprintf(buf, sizeof(buf), "\x02%.17g", d);
      return buf;
    }
    case TypeId::kString:
      return "\x03" + v.AsString();
  }
  return "?";
}

void AggAccumulator::AddBatch(const Column& col, const uint32_t* rows,
                              size_t n) {
  for (size_t i = 0; i < n; ++i) Add(col.Get(rows[i]));
}

void AggAccumulator::AddRepeated(const Value& v, size_t n) {
  for (size_t i = 0; i < n; ++i) Add(v);
}

void AggAccumulator::Merge(const AggAccumulator&) {
  // Only reachable through a bug: the parallel path checks Mergeable()
  // before partitioning work, and the default Mergeable() is false.
  // (UDAs that want parallel execution override Mergeable + Merge.)
  assert(false && "Merge called on a non-mergeable accumulator");
}

AggregateRegistry& AggregateRegistry::Global() {
  // Leaked singleton behind a const pointer: the pointer itself is immutable
  // (no unsynchronized static mutation) and the pointee serializes every map
  // touch on mu_.
  static AggregateRegistry* const r = new AggregateRegistry();
  return *r;
}

void AggregateRegistry::Register(const std::string& name, UdaFactory factory) {
  MutexLock lock(mu_);
  factories_[name] = std::move(factory);
}

bool AggregateRegistry::Has(const std::string& name) const {
  MutexLock lock(mu_);
  return factories_.count(name) > 0;
}

std::unique_ptr<AggAccumulator> AggregateRegistry::Create(
    const std::string& name) const {
  UdaFactory factory;
  {
    MutexLock lock(mu_);
    auto it = factories_.find(name);
    if (it == factories_.end()) return nullptr;
    factory = it->second;
  }
  // Run the factory outside the lock: a UDA factory is user code and may
  // itself consult the registry.
  return factory();
}

namespace {

/// COUNT(DISTINCT x): a flat open-addressing set of Values under the group
/// equivalence — the same GroupTable, hash, and equality the group-id path
/// uses, with no per-value string keys. The collision test mask applies so
/// the differential fuzz exercises same-hash distinct values here too.
class DistinctCountAcc : public AggAccumulator {
 public:
  DistinctCountAcc() { table_.Reset(8); }
  void Add(const Value& v) override {
    if (v.is_null()) return;
    const uint64_t h = GroupValueHash(v) & GroupHashMaskForTest();
    bool inserted;
    table_.FindOrInsert(
        h, [&](uint32_t g) { return GroupValuesEqual(values_[g], v); },
        &inserted);
    if (inserted) values_.push_back(v);
  }
  bool Mergeable() const override { return true; }
  void Merge(const AggAccumulator& other) override {
    const auto& o = static_cast<const DistinctCountAcc&>(other);
    for (const Value& v : o.values_) Add(v);
  }
  Value Finalize() const override {
    return Value::Int(static_cast<int64_t>(values_.size()));
  }

 private:
  GroupTable table_;
  std::vector<Value> values_;
};

/// Kahan–Babuška–Neumaier compensated accumulation: (sum, comp) carries the
/// running value plus the rounding error of every addition so far, so
/// per-morsel partials lose (essentially) nothing and the morsel-order merge
/// recovers the near-correctly-rounded total. The planner runs every
/// mergeable aggregation through the same fixed morsel decomposition at
/// every thread count, so serial and N-thread results are bit-identical by
/// construction; the compensation buys accuracy on top (downstream error
/// estimators divide by these sums).
inline void NeumaierAdd(double& sum, double& comp, double x) {
  const double t = sum + x;
  if (std::abs(sum) >= std::abs(x)) {
    comp += (sum - t) + x;  // vdb-lint: allow(raw-double-accumulate) this IS the Neumaier compensation
  } else {
    comp += (x - t) + sum;  // vdb-lint: allow(raw-double-accumulate) this IS the Neumaier compensation
  }
  sum = t;
}

/// Wraps n = nulls.size() per-group results as the column Column::Append
/// builds from them in gid order: all NULL (or no groups) is a kNull column,
/// and a NULL-free result carries no null mask. NULL groups (nulls[g] = 1)
/// hold zero placeholders in `ints` / `dbls`, the lane `type` selects.
Column ResultColumn(TypeId type, std::vector<int64_t> ints,
                    std::vector<double> dbls, std::vector<uint8_t> nulls) {
  const size_t num_null =
      static_cast<size_t>(std::count(nulls.begin(), nulls.end(), 1));
  if (num_null == nulls.size()) {
    return Column::FromData(TypeId::kNull, {}, {}, {}, std::move(nulls));
  }
  if (num_null == 0) nulls.clear();
  return Column::FromData(type, std::move(ints), std::move(dbls), {},
                          std::move(nulls));
}

/// Exact quantile over collected values (sorting at finalize). This is the
/// engine's `quantile(x, p)` / `median(x)` / `approx_median(x)`; like
/// Redshift's percentile functions it needs all qualifying values (a full
/// scan when run over a base table).
class QuantileAcc : public AggAccumulator {
 public:
  explicit QuantileAcc(double p) : p_(p) {}
  void Add(const Value& v) override {
    if (!v.is_null()) xs_.push_back(v.AsDouble());
  }
  void AddBatch(const Column& col, const uint32_t* rows, size_t n) override {
    xs_.reserve(xs_.size() + n);
    for (size_t i = 0; i < n; ++i) {
      if (!col.IsNull(rows[i])) xs_.push_back(col.GetNumeric(rows[i]));
    }
  }
  bool Mergeable() const override { return true; }
  void Merge(const AggAccumulator& other) override {
    // Concatenating morsel partials in morsel order reassembles the exact
    // row-order value sequence, so the sorted quantile is bit-identical to
    // the serial computation.
    const auto& o = static_cast<const QuantileAcc&>(other);
    xs_.insert(xs_.end(), o.xs_.begin(), o.xs_.end());
  }
  Value Finalize() const override {
    if (xs_.empty()) return Value::Null();
    std::vector<double> sorted = xs_;
    std::sort(sorted.begin(), sorted.end());
    double idx = p_ * static_cast<double>(sorted.size() - 1);
    size_t lo = static_cast<size_t>(idx);
    size_t hi = std::min(lo + 1, sorted.size() - 1);
    double frac = idx - static_cast<double>(lo);
    return Value::Double(sorted[lo] * (1 - frac) + sorted[hi] * frac);
  }

 private:
  double p_;
  std::vector<double> xs_;
};

/// HyperLogLog-based approximate distinct count (Impala's ndv analogue).
class NdvAcc : public AggAccumulator {
 public:
  void Add(const Value& v) override {
    if (!v.is_null()) hll_.AddHash(HashValue(v));
  }
  bool Mergeable() const override { return true; }
  void Merge(const AggAccumulator& other) override {
    // Register-wise max: exact regardless of insertion order.
    hll_.Merge(static_cast<const NdvAcc&>(other).hll_);
  }
  Value Finalize() const override {
    return Value::Int(static_cast<int64_t>(std::llround(hll_.Estimate())));
  }

 private:
  HyperLogLog hll_;
};

// ---------------------------------------------------- flat SoA accumulators
//
// One class per scatterable aggregate and the only implementation of it.
// Each is pinned value for value against its row-at-a-time reference
// accumulator in tests/test_flat_agg.cc: the same per-row recurrence in the
// same row order, the same per-call batch semantics, the same merge algebra.
// Group state lives in typed lane arrays indexed by gid; Scatter is one pass
// over a batch column, no per-group heap objects, no per-group selection
// vectors.

/// COUNT(x) counts non-null values; COUNT(*) (`col` null) counts rows.
class FlatCountAgg : public FlatAggregator {
 public:
  void ResizeGroups(size_t n) override { counts_.resize(n, 0); }
  void Scatter(const Column* col, size_t base, const uint32_t* rows,
               const uint32_t* gids, size_t n) override {
    if (col == nullptr) {
      for (size_t k = 0; k < n; ++k) ++counts_[gids[k]];
      return;
    }
    for (size_t k = 0; k < n; ++k) {
      if (!col->IsNull(base + (rows == nullptr ? k : rows[k]))) {
        ++counts_[gids[k]];
      }
    }
  }
  void MergeFrom(FlatAggregator& other, const uint32_t* dst_gid,
                 const uint8_t* fresh, size_t n) override {
    const auto& o = static_cast<const FlatCountAgg&>(other);
    for (size_t k = 0; k < n; ++k) {
      const uint32_t d = dst_gid[k];
      counts_[d] = fresh[k] != 0 ? o.counts_[k] : counts_[d] + o.counts_[k];
    }
  }
  Column FinalizeColumn(size_t n) const override {
    return ResultColumn(TypeId::kInt64,
                        std::vector<int64_t>(counts_.data(),
                                             counts_.data() + n),
                        {}, std::vector<uint8_t>(n, 0));
  }

 private:
  std::vector<int64_t> counts_;
};

/// SUM via the scatter-sum kernel: per-gid (sum, comp) Neumaier lanes plus
/// an any-value flag and a saw-non-Int64 flag. A group that only ever added
/// Int64 values finalizes to the rounded Int64 total.
class FlatSumAgg : public FlatAggregator {
 public:
  void ResizeGroups(size_t n) override {
    sums_.resize(n, 0.0);
    comps_.resize(n, 0.0);
    any_.resize(n, 0);
    nonint_.resize(n, 0);
  }
  void Scatter(const Column* col, size_t base, const uint32_t* rows,
               const uint32_t* gids, size_t n) override {
    const uint8_t* nulls = col->NullData();
    if (nulls != nullptr) nulls += base;
    switch (col->type()) {
      case TypeId::kInt64:
        kernels::Ops().scatter_sum_i64(col->IntData() + base, nulls, rows,
                                       gids, n, sums_.data(), comps_.data(),
                                       any_.data(), nullptr);
        return;
      case TypeId::kDouble: {
        kernels::Ops().scatter_sum_f64(col->DoubleData() + base, nulls, rows,
                                       gids, n, sums_.data(), comps_.data(),
                                       any_.data(), nullptr);
        // Every non-null double marks its group non-integer (cheap second
        // pass — the kernel carries one flag).
        for (size_t k = 0; k < n; ++k) {
          const size_t r = rows == nullptr ? k : rows[k];
          if (nulls == nullptr || nulls[r] == 0) nonint_[gids[k]] = 1;
        }
        return;
      }
      default:
        for (size_t k = 0; k < n; ++k) {
          const size_t r = base + (rows == nullptr ? k : rows[k]);
          const Value v = col->Get(r);
          if (v.is_null()) continue;
          const uint32_t g = gids[k];
          any_[g] = 1;
          if (v.type() != TypeId::kInt64) nonint_[g] = 1;
          NeumaierAdd(sums_[g], comps_[g], v.AsDouble());
        }
    }
  }
  void MergeFrom(FlatAggregator& other, const uint32_t* dst_gid,
                 const uint8_t* fresh, size_t n) override {
    const auto& o = static_cast<const FlatSumAgg&>(other);
    for (size_t k = 0; k < n; ++k) {
      const uint32_t d = dst_gid[k];
      if (fresh[k] != 0) {
        sums_[d] = o.sums_[k];
        comps_[d] = o.comps_[k];
        any_[d] = o.any_[k];
        nonint_[d] = o.nonint_[k];
        continue;
      }
      NeumaierAdd(sums_[d], comps_[d], o.sums_[k]);
      NeumaierAdd(sums_[d], comps_[d], o.comps_[k]);
      any_[d] |= o.any_[k];
      nonint_[d] |= o.nonint_[k];
    }
  }
  /// A group that only ever added Int64 values finalizes to the rounded
  /// Int64 total, any other non-empty group to the Double total; one Double
  /// group makes the column Double (the Int totals promote, as Append does).
  Column FinalizeColumn(size_t n) const override {
    std::vector<uint8_t> nulls(n);
    bool any_double = false;
    for (size_t g = 0; g < n; ++g) {
      nulls[g] = any_[g] == 0;
      any_double = any_double || (any_[g] != 0 && nonint_[g] != 0);
    }
    if (any_double) {
      std::vector<double> out(n, 0.0);
      for (size_t g = 0; g < n; ++g) {
        if (any_[g] == 0) continue;
        const double total = sums_[g] + comps_[g];
        out[g] = nonint_[g] != 0
                     ? total
                     : static_cast<double>(std::llround(total));
      }
      return ResultColumn(TypeId::kDouble, {}, std::move(out),
                          std::move(nulls));
    }
    std::vector<int64_t> out(n, 0);
    for (size_t g = 0; g < n; ++g) {
      if (any_[g] != 0) out[g] = std::llround(sums_[g] + comps_[g]);
    }
    return ResultColumn(TypeId::kInt64, std::move(out), {}, std::move(nulls));
  }

 private:
  std::vector<double> sums_;
  std::vector<double> comps_;
  std::vector<uint8_t> any_;
  std::vector<uint8_t> nonint_;  // saw a non-Int64 value
};

/// AVG: Neumaier (sum, comp) lanes plus the non-null count. Every value adds
/// as GetNumeric (Value::AsDouble for every type); Int64/Bool lanes hit the
/// i64 kernel (static_cast<double> of the raw storage — the same value
/// GetNumeric reads), Double lanes the f64 kernel, everything else the
/// generic loop.
class FlatAvgAgg : public FlatAggregator {
 public:
  void ResizeGroups(size_t n) override {
    sums_.resize(n, 0.0);
    comps_.resize(n, 0.0);
    ns_.resize(n, 0);
  }
  void Scatter(const Column* col, size_t base, const uint32_t* rows,
               const uint32_t* gids, size_t n) override {
    const uint8_t* nulls = col->NullData();
    if (nulls != nullptr) nulls += base;
    switch (col->type()) {
      case TypeId::kBool:
      case TypeId::kInt64:
        kernels::Ops().scatter_sum_i64(col->IntData() + base, nulls, rows,
                                       gids, n, sums_.data(), comps_.data(),
                                       nullptr, ns_.data());
        return;
      case TypeId::kDouble:
        kernels::Ops().scatter_sum_f64(col->DoubleData() + base, nulls, rows,
                                       gids, n, sums_.data(), comps_.data(),
                                       nullptr, ns_.data());
        return;
      default:
        for (size_t k = 0; k < n; ++k) {
          const size_t r = base + (rows == nullptr ? k : rows[k]);
          if (col->IsNull(r)) continue;
          const uint32_t g = gids[k];
          NeumaierAdd(sums_[g], comps_[g], col->GetNumeric(r));
          ++ns_[g];
        }
    }
  }
  void MergeFrom(FlatAggregator& other, const uint32_t* dst_gid,
                 const uint8_t* fresh, size_t n) override {
    const auto& o = static_cast<const FlatAvgAgg&>(other);
    for (size_t k = 0; k < n; ++k) {
      const uint32_t d = dst_gid[k];
      if (fresh[k] != 0) {
        sums_[d] = o.sums_[k];
        comps_[d] = o.comps_[k];
        ns_[d] = o.ns_[k];
        continue;
      }
      NeumaierAdd(sums_[d], comps_[d], o.sums_[k]);
      NeumaierAdd(sums_[d], comps_[d], o.comps_[k]);
      ns_[d] += o.ns_[k];
    }
  }
  Column FinalizeColumn(size_t n) const override {
    std::vector<double> out(n, 0.0);
    std::vector<uint8_t> nulls(n);
    for (size_t g = 0; g < n; ++g) {
      nulls[g] = ns_[g] == 0;
      if (ns_[g] != 0) {
        out[g] = (sums_[g] + comps_[g]) / static_cast<double>(ns_[g]);
      }
    }
    return ResultColumn(TypeId::kDouble, {}, std::move(out), std::move(nulls));
  }

 private:
  std::vector<double> sums_;
  std::vector<double> comps_;
  std::vector<int64_t> ns_;
};

/// MIN/MAX. One Scatter call is one batch: each touched group's batch-local
/// extremum is found with strict typed comparisons, then folded ONCE
/// through the Value::Compare recurrence (Fold) — NOT folded row by row,
/// which would diverge on NaNs (Value::Compare buckets NaN as equal, so a
/// NaN-then-smaller batch keeps the pre-batch best under batch semantics
/// but takes the smaller value under row folding). Into an empty group the
/// two agree: strict `<` treats NaN as incomparable just as Compare does,
/// so a window partition (one batch) gets the row fold's answer.
/// Epoch-stamped scratch lanes avoid re-clearing per-group state on every
/// call.
class FlatMinMaxAgg : public FlatAggregator {
 public:
  explicit FlatMinMaxAgg(bool is_min) : is_min_(is_min) {}
  void ResizeGroups(size_t n) override {
    best_.resize(n);
    any_.resize(n, 0);
    epoch_.resize(n, 0);
  }
  void Scatter(const Column* col, size_t base, const uint32_t* rows,
               const uint32_t* gids, size_t n) override {
    ++cur_epoch_;
    touched_.clear();
    switch (col->type()) {
      case TypeId::kInt64: {
        if (batch_i64_.size() < best_.size()) batch_i64_.resize(best_.size());
        for (size_t k = 0; k < n; ++k) {
          const size_t r = base + (rows == nullptr ? k : rows[k]);
          if (col->IsNull(r)) continue;
          const int64_t x = col->GetInt(r);
          const uint32_t g = gids[k];
          if (Touch(g) || (is_min_ ? x < batch_i64_[g] : x > batch_i64_[g])) {
            batch_i64_[g] = x;
          }
        }
        for (uint32_t g : touched_) Fold(g, Value::Int(batch_i64_[g]));
        return;
      }
      case TypeId::kDouble: {
        if (batch_f64_.size() < best_.size()) batch_f64_.resize(best_.size());
        for (size_t k = 0; k < n; ++k) {
          const size_t r = base + (rows == nullptr ? k : rows[k]);
          if (col->IsNull(r)) continue;
          const double x = col->GetDouble(r);
          const uint32_t g = gids[k];
          if (Touch(g) || (is_min_ ? x < batch_f64_[g] : x > batch_f64_[g])) {
            batch_f64_[g] = x;
          }
        }
        for (uint32_t g : touched_) Fold(g, Value::Double(batch_f64_[g]));
        return;
      }
      case TypeId::kString: {
        if (batch_str_.size() < best_.size()) batch_str_.resize(best_.size());
        for (size_t k = 0; k < n; ++k) {
          const size_t r = base + (rows == nullptr ? k : rows[k]);
          if (col->IsNull(r)) continue;
          const std::string& x = col->GetString(r);
          const uint32_t g = gids[k];
          if (Touch(g) || (is_min_ ? x.compare(*batch_str_[g]) < 0
                                   : x.compare(*batch_str_[g]) > 0)) {
            batch_str_[g] = &x;
          }
        }
        for (uint32_t g : touched_) Fold(g, Value::String(*batch_str_[g]));
        return;
      }
      default:
        // Bool and mixed lanes fold row at a time.
        for (size_t k = 0; k < n; ++k) {
          const size_t r = base + (rows == nullptr ? k : rows[k]);
          const Value v = col->Get(r);
          if (!v.is_null()) Fold(gids[k], v);
        }
    }
  }
  void MergeFrom(FlatAggregator& other, const uint32_t* dst_gid,
                 const uint8_t* fresh, size_t n) override {
    auto& o = static_cast<FlatMinMaxAgg&>(other);
    for (size_t k = 0; k < n; ++k) {
      const uint32_t d = dst_gid[k];
      if (fresh[k] != 0) {
        best_[d] = std::move(o.best_[k]);
        any_[d] = o.any_[k];
      } else if (o.any_[k]) {
        Fold(d, o.best_[k]);
      }
    }
  }
  /// The extremes are Values of the argument's type (Bool, String, ...), so
  /// they append one by one.
  Column FinalizeColumn(size_t n) const override {
    Column out;
    for (size_t g = 0; g < n; ++g) {
      out.Append(any_[g] ? best_[g] : Value::Null());
    }
    return out;
  }

 private:
  /// The row-at-a-time recurrence (first-seen kept on ties and NaNs).
  void Fold(uint32_t g, const Value& v) {
    if (!any_[g]) {
      best_[g] = v;
      any_[g] = 1;
      return;
    }
    const int c = v.Compare(best_[g]);
    if ((is_min_ && c < 0) || (!is_min_ && c > 0)) best_[g] = v;
  }

  /// First touch of group g this call; stamps it and queues the fold.
  bool Touch(uint32_t g) {
    if (epoch_[g] == cur_epoch_) return false;
    epoch_[g] = cur_epoch_;
    touched_.push_back(g);
    return true;
  }


  bool is_min_;
  std::vector<Value> best_;
  std::vector<uint8_t> any_;
  // Per-call scratch: epoch stamp + batch-local extremum lanes.
  std::vector<uint64_t> epoch_;
  uint64_t cur_epoch_ = 0;
  std::vector<uint32_t> touched_;
  std::vector<int64_t> batch_i64_;
  std::vector<double> batch_f64_;
  std::vector<const std::string*> batch_str_;
};

/// VAR/STDDEV: Welford (n, mean, m2) lanes in row order, Chan pairwise
/// merge; finalizes to the sample variance or standard deviation.
class FlatVarAgg : public FlatAggregator {
 public:
  explicit FlatVarAgg(bool stddev) : stddev_(stddev) {}
  void ResizeGroups(size_t n) override {
    ns_.resize(n, 0);
    means_.resize(n, 0.0);
    m2s_.resize(n, 0.0);
  }
  void Scatter(const Column* col, size_t base, const uint32_t* rows,
               const uint32_t* gids, size_t n) override {
    // Each value adds as GetNumeric; the typed lanes below read the raw
    // storage, which is the same value.
    const uint8_t* nulls = col->NullData();
    if (nulls != nullptr) nulls += base;
    switch (col->type()) {
      case TypeId::kBool:
      case TypeId::kInt64: {
        const int64_t* data = col->IntData() + base;
        for (size_t k = 0; k < n; ++k) {
          const size_t r = rows == nullptr ? k : rows[k];
          if (nulls != nullptr && nulls[r] != 0) continue;
          Welford(gids[k], static_cast<double>(data[r]));
        }
        return;
      }
      case TypeId::kDouble: {
        const double* data = col->DoubleData() + base;
        for (size_t k = 0; k < n; ++k) {
          const size_t r = rows == nullptr ? k : rows[k];
          if (nulls != nullptr && nulls[r] != 0) continue;
          Welford(gids[k], data[r]);
        }
        return;
      }
      default:
        for (size_t k = 0; k < n; ++k) {
          const size_t r = base + (rows == nullptr ? k : rows[k]);
          if (col->IsNull(r)) continue;
          Welford(gids[k], col->GetNumeric(r));
        }
    }
  }
  /// Chan's pairwise merge; a fresh or still-empty destination takes the
  /// partial's state verbatim.
  void MergeFrom(FlatAggregator& other, const uint32_t* dst_gid,
                 const uint8_t* fresh, size_t n) override {
    const auto& o = static_cast<const FlatVarAgg&>(other);
    for (size_t k = 0; k < n; ++k) {
      const uint32_t d = dst_gid[k];
      if (fresh[k] == 0 && o.ns_[k] == 0) continue;
      if (fresh[k] != 0 || ns_[d] == 0) {
        ns_[d] = o.ns_[k];
        means_[d] = o.means_[k];
        m2s_[d] = o.m2s_[k];
        continue;
      }
      const double na = static_cast<double>(ns_[d]);
      const double nb = static_cast<double>(o.ns_[k]);
      const double delta = o.means_[k] - means_[d];
      const double total = na + nb;
      m2s_[d] += o.m2s_[k] + delta * delta * (na * nb / total);
      means_[d] += delta * (nb / total);
      ns_[d] += o.ns_[k];
    }
  }
  Column FinalizeColumn(size_t n) const override {
    std::vector<double> out(n, 0.0);
    std::vector<uint8_t> nulls(n);
    for (size_t g = 0; g < n; ++g) {
      nulls[g] = ns_[g] < 2;
      if (ns_[g] < 2) continue;
      const double var = m2s_[g] / static_cast<double>(ns_[g] - 1);
      out[g] = stddev_ ? std::sqrt(var) : var;
    }
    return ResultColumn(TypeId::kDouble, {}, std::move(out), std::move(nulls));
  }

 private:
  void Welford(uint32_t g, double x) {
    ++ns_[g];
    const double d = x - means_[g];
    means_[g] += d / static_cast<double>(ns_[g]);
    m2s_[g] += d * (x - means_[g]);
  }

  bool stddev_;
  std::vector<int64_t> ns_;
  std::vector<double> means_;
  std::vector<double> m2s_;
};

/// Object lane: one AggAccumulator per gid, for the aggregates without an
/// SoA form. A scatter call buckets its rows by gid, keeping row order, and
/// hands each touched group one AddBatch — exactly the batch the group's
/// accumulator would get over the morsel's compacted rows. Groups hold null
/// until first touched; a null group is an empty accumulator. `first` is the
/// accumulator CreateFlatAggregator built to learn Mergeable(); it becomes
/// the first group created (or stands in for a never-touched group).
class ObjectLaneAgg : public FlatAggregator {
 public:
  ObjectLaneAgg(const AggSpec& spec, std::unique_ptr<AggAccumulator> first)
      : spec_(spec), mergeable_(first->Mergeable()), spare_(std::move(first)) {}
  bool Mergeable() const override { return mergeable_; }
  void ResizeGroups(size_t n) override { accs_.resize(n); }
  void Scatter(const Column* col, size_t base, const uint32_t* rows,
               const uint32_t* gids, size_t n) override {
    // Counting sort by gid: group g's rows land in
    // [start[g], start[g + 1]) of `bucketed`, in row order.
    const size_t ngroups = accs_.size();
    std::vector<size_t> start(ngroups + 1, 0);
    for (size_t k = 0; k < n; ++k) ++start[size_t{gids[k]} + 1];
    for (size_t g = 0; g < ngroups; ++g) start[g + 1] += start[g];
    if (col == nullptr) {  // star argument: count(*)-style
      for (uint32_t g = 0; g < ngroups; ++g) {
        const size_t cnt = start[g + 1] - start[g];
        if (cnt > 0) Acc(g).AddRepeated(Value::Int(1), cnt);
      }
      return;
    }
    std::vector<uint32_t> bucketed(n);
    std::vector<size_t> next(start.begin(), start.end() - 1);
    for (size_t k = 0; k < n; ++k) {
      // Row indices fit uint32: grouped inputs pass CheckGroupableRows.
      bucketed[next[gids[k]]++] =
          static_cast<uint32_t>(base + (rows == nullptr ? k : rows[k]));
    }
    for (uint32_t g = 0; g < ngroups; ++g) {
      const size_t cnt = start[g + 1] - start[g];
      if (cnt > 0) Acc(g).AddBatch(*col, bucketed.data() + start[g], cnt);
    }
  }
  void MergeFrom(FlatAggregator& other, const uint32_t* dst_gid,
                 const uint8_t* fresh, size_t n) override {
    auto& o = static_cast<ObjectLaneAgg&>(other);
    for (size_t k = 0; k < n; ++k) {
      const uint32_t d = dst_gid[k];
      if (fresh[k] != 0) {
        accs_[d] = std::move(o.accs_[k]);
      } else if (o.accs_[k] != nullptr) {
        Acc(d).Merge(*o.accs_[k]);
      }
    }
  }
  /// Finalize returns arbitrary Values (a UDA's included), so they append
  /// one by one. A never-touched group finalizes an empty accumulator.
  Column FinalizeColumn(size_t n) const override {
    Column out;
    for (size_t g = 0; g < n; ++g) {
      if (accs_[g] != nullptr) {
        out.Append(accs_[g]->Finalize());
      } else {
        out.Append(spare_ != nullptr ? spare_->Finalize()
                                     : Fresh()->Finalize());
      }
    }
    return out;
  }

 private:
  /// CreateFlatAggregator already created one accumulator for spec_, so
  /// creation cannot fail here.
  std::unique_ptr<AggAccumulator> Fresh() const {
    return std::move(CreateAccumulator(spec_)).ValueOrDie();
  }
  AggAccumulator& Acc(uint32_t g) {
    if (accs_[g] == nullptr) {
      accs_[g] = spare_ != nullptr ? std::move(spare_) : Fresh();
    }
    return *accs_[g];
  }

  AggSpec spec_;
  bool mergeable_;
  std::unique_ptr<AggAccumulator> spare_;  // empty; null once used
  std::vector<std::unique_ptr<AggAccumulator>> accs_;
};

}  // namespace

Result<AggSpec> AggSpecFromCall(const sql::Expr& call) {
  AggSpec s;
  s.name = call.name;
  s.distinct = call.distinct;
  const bool star =
      call.args.empty() || call.args[0]->kind == sql::ExprKind::kStar;
  s.arg = star ? nullptr : call.args[0].get();
  const std::string fn = "aggregate function '" + s.name + "'";
  if (s.distinct && s.name != "count") {
    return Status::InvalidArgument(fn + " does not support DISTINCT");
  }
  if (star && (s.distinct || (s.name != "count" &&
                              IsBuiltinAggregateFunction(s.name)))) {
    return Status::InvalidArgument(fn + " needs a column or expression "
                                   "argument; '*' is valid only in count(*)");
  }
  if (s.name == "quantile" || s.name == "percentile") {
    const sql::Expr* p = call.args.size() == 2 ? call.args[1].get() : nullptr;
    // A negative literal (-0.0 included) is spelled as a negation in SQL
    // text, so it is no literal fraction either.
    const bool numeric = p != nullptr &&
                         p->kind == sql::ExprKind::kLiteral &&
                         (p->literal.type() == TypeId::kInt64 ||
                          p->literal.type() == TypeId::kDouble) &&
                         !std::signbit(p->literal.AsDouble());
    if (!numeric ||
        !(p->literal.AsDouble() >= 0.0 && p->literal.AsDouble() <= 1.0)) {
      return Status::InvalidArgument(
          fn + " needs a numeric literal fraction in [0, 1] as its second "
               "argument");
    }
    s.param = p->literal.AsDouble();
  }
  return s;
}

Result<std::unique_ptr<AggAccumulator>> CreateAccumulator(const AggSpec& s) {
  using Ptr = std::unique_ptr<AggAccumulator>;
  if (s.name == "count" && s.distinct) return Ptr(new DistinctCountAcc());
  if (s.name == "quantile" || s.name == "percentile") {
    return Ptr(new QuantileAcc(s.param));
  }
  if (s.name == "median" || s.name == "approx_median") {
    return Ptr(new QuantileAcc(0.5));
  }
  if (s.name == "ndv" || s.name == "approx_distinct" ||
      s.name == "approx_count_distinct") {
    return Ptr(new NdvAcc());
  }
  auto uda = AggregateRegistry::Global().Create(s.name);
  if (uda) return uda;
  return Status::Unsupported("unknown aggregate: " + s.name);
}

Result<std::unique_ptr<FlatAggregator>> CreateFlatAggregator(
    const AggSpec& s) {
  using Ptr = std::unique_ptr<FlatAggregator>;
  if (s.name == "count" && !s.distinct) return Ptr(new FlatCountAgg());
  if (s.name == "sum") return Ptr(new FlatSumAgg());
  if (s.name == "avg") return Ptr(new FlatAvgAgg());
  if (s.name == "min") return Ptr(new FlatMinMaxAgg(true));
  if (s.name == "max") return Ptr(new FlatMinMaxAgg(false));
  if (s.name == "var" || s.name == "var_samp" || s.name == "variance") {
    return Ptr(new FlatVarAgg(false));
  }
  if (s.name == "stddev" || s.name == "stddev_samp") {
    return Ptr(new FlatVarAgg(true));
  }
  // Count-distinct sets, quantile vectors, HLL sketches and UDAs keep
  // objects.
  auto acc = CreateAccumulator(s);
  if (!acc.ok()) return acc.status();
  return Ptr(new ObjectLaneAgg(s, std::move(acc).ValueOrDie()));
}

}  // namespace vdb::engine
