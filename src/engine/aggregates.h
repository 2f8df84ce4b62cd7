// Aggregate functions — one FlatAggregator implementation per aggregate,
// used by GROUP BY and windows alike — and the UDA (user-defined aggregate)
// registry. VerdictDB supports any UDA that converges to a non-degenerate
// distribution (paper §2.2); UDAs registered here are usable both in plain
// engine queries and in VerdictDB-rewritten queries.

#ifndef VDB_ENGINE_AGGREGATES_H_
#define VDB_ENGINE_AGGREGATES_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/value.h"
#include "engine/column.h"
#include "sql/ast.h"

namespace vdb::engine {

/// One aggregate call extracted from a query.
struct AggSpec {
  std::string name;                 // lowercase function name
  bool distinct = false;            // count(distinct x)
  const sql::Expr* arg = nullptr;   // null for count(*)
  double param = 0.5;               // quantile fraction (2nd argument)
};

/// Builds the AggSpec for aggregate call `call` (a GROUP BY aggregate or a
/// window), validating what the call shape alone decides: `*` (or no
/// argument) is valid only in count(*), DISTINCT only in count(distinct x),
/// and quantile/percentile take a numeric literal fraction in [0, 1] as
/// their second argument. Violations are kInvalidArgument naming the
/// function. A UDA may take `*`: it then receives Value::Int(1) per row.
Result<AggSpec> AggSpecFromCall(const sql::Expr& call);

/// Streaming accumulator for one aggregate within one group: the per-group
/// state of the object-lane aggregates (count distinct, quantile/median,
/// ndv) and the interface a UDA implements.
class AggAccumulator {
 public:
  virtual ~AggAccumulator() = default;
  /// Adds one input value. count(*) receives Value::Int(1) per row.
  virtual void Add(const Value& v) = 0;
  /// Adds rows `rows[0..n)` of a materialized argument column (the
  /// vectorized executor's selection-vector interface). The default loops
  /// over Add; accumulators may override with typed loops.
  virtual void AddBatch(const Column& col, const uint32_t* rows, size_t n);
  /// Adds the same value n times (a `*` argument over a group of n rows).
  virtual void AddRepeated(const Value& v, size_t n);
  /// True if this accumulator supports Merge. A query with any
  /// non-mergeable accumulator aggregates its whole input as one morsel.
  /// UDAs default to false.
  virtual bool Mergeable() const { return false; }
  /// Folds a partial state into this one. `other` must be the same concrete
  /// accumulator type, and both Mergeable(). The planner aggregates every
  /// mergeable query through per-morsel partials merged strictly in morsel
  /// order — the same decomposition at every thread count — so results are
  /// bit-identical between serial and N-thread runs.
  virtual void Merge(const AggAccumulator& other);
  virtual Value Finalize() const = 0;
};

/// Per-group aggregate state indexed by dense group id: the one production
/// implementation of every aggregate, fed column-at-a-time by both the
/// grouped-aggregation driver and window evaluation. count/sum/avg/min/max/
/// var/stddev keep SoA (structure-of-arrays) typed lanes; every other
/// aggregate keeps one AggAccumulator per group. Both forms produce, bit for
/// bit, what the row-at-a-time reference accumulators in
/// tests/test_flat_agg.cc compute from the same rows under the same batch
/// and merge decomposition (pinned by the FlatAggTest differential fuzz).
class FlatAggregator {
 public:
  virtual ~FlatAggregator() = default;
  /// False when a group's state cannot be merged (a UDA without Merge); the
  /// planner then aggregates the whole input as one morsel.
  virtual bool Mergeable() const { return true; }
  /// Grows state to `n` groups (never shrinks). New groups start empty.
  virtual void ResizeGroups(size_t n) = 0;
  /// Accumulates col[base + r_k] into group gids[k] for k in [0, n), in k
  /// order, where r_k is rows[k] or, when `rows` is null, k. `rows` ascends,
  /// so selective GROUP BYs skip mask expansion without changing
  /// accumulation order. `col` is nullptr for a `*` argument. `base` is the
  /// row offset of batch position 0 — nonzero when the planner feeds a table
  /// column directly at the morsel's start row instead of slicing it (the
  /// zero-copy direct-column path). One call is one batch: aggregates with
  /// per-batch semantics (min/max's batch-local extremum fold) treat the
  /// whole call as one AddBatch per group.
  virtual void Scatter(const Column* col, size_t base, const uint32_t* rows,
                       const uint32_t* gids, size_t n) = 0;
  /// Folds groups [0, n) of `other` (one morsel's partial, the same concrete
  /// type) into this, group k into dst_gid[k], in k order. A group with
  /// fresh[k] != 0 is its first occurrence: it MOVES in verbatim, leaving
  /// the source group unspecified. The others merge (AggAccumulator::Merge's
  /// algebra, per group). Merging into an empty group instead of moving
  /// would re-round compensated sums (NeumaierAdd(0, 0, sum) then comp
  /// collapses the error term). dst groups must already exist
  /// (ResizeGroups); calling this once per morsel, strictly in morsel
  /// order, keeps results bit-identical across thread counts.
  virtual void MergeFrom(FlatAggregator& other, const uint32_t* dst_gid,
                         const uint8_t* fresh, size_t n) = 0;
  /// The finalized values of groups [0, n) as one column — the column that
  /// appending each group's result Value in gid order (Column::Append)
  /// builds: Int and Double groups promote to Double, NULL groups hold
  /// placeholders, an all-NULL result is a kNull column, and n == 0 is an
  /// empty kNull column.
  virtual Column FinalizeColumn(size_t n) const = 0;
};

/// Creates the group state for `spec`: SoA lanes for count/sum/avg/min/max/
/// var/stddev, one AggAccumulator per group for DISTINCT, quantile/median,
/// ndv/HLL and UDAs. Fails for an unknown aggregate.
Result<std::unique_ptr<FlatAggregator>> CreateFlatAggregator(
    const AggSpec& spec);

using UdaFactory = std::function<std::unique_ptr<AggAccumulator>()>;

/// Process-wide registry of user-defined aggregates.
class AggregateRegistry {
 public:
  static AggregateRegistry& Global();

  void Register(const std::string& name, UdaFactory factory);
  bool Has(const std::string& name) const;
  std::unique_ptr<AggAccumulator> Create(const std::string& name) const;

 private:
  // The registry is process-global and reachable from pool workers at plan
  // time while tests may still be registering UDAs; every map touch holds
  // mu_ so the global is synchronized shared state, not an unguarded static.
  mutable Mutex mu_;
  std::map<std::string, UdaFactory> factories_ GUARDED_BY(mu_);  // vdb-lint: allow(string-keyed-map) UDA registry: looked up once per aggregate at plan time
};

/// Creates the per-group accumulator of an object-lane aggregate: count
/// distinct, quantile/percentile/median, ndv, or a registered UDA. The
/// SoA-lane aggregates have no accumulator form. Fails for unknown names.
Result<std::unique_ptr<AggAccumulator>> CreateAccumulator(const AggSpec& spec);

/// Serializes a value into a byte key usable for grouping / distinct sets;
/// numerically equal ints and doubles produce the same key.
std::string ValueGroupKey(const Value& v);

}  // namespace vdb::engine

#endif  // VDB_ENGINE_AGGREGATES_H_
