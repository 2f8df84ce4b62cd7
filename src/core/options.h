// User-facing approximation settings (paper §2.4). VerdictDB deliberately
// exposes an I/O budget rather than latency/accuracy knobs; an optional
// minimum-accuracy contract (HAC) is enforced *after* execution by falling
// back to the exact query.

#ifndef VDB_CORE_OPTIONS_H_
#define VDB_CORE_OPTIONS_H_

#include <cstdint>

namespace vdb::core {

struct VerdictOptions {
  /// Maximum fraction of each large table that a query may read (paper
  /// default 2%).
  double io_budget = 0.02;

  /// Confidence level for reported error bounds.
  double confidence = 0.95;

  /// High-level Accuracy Contract: minimum accuracy in [0,1); 0 disables.
  /// 0.99 means every approximate aggregate must be within ±1% relative
  /// error (at the configured confidence) or the query is re-run exactly.
  double min_accuracy = 0.0;

  /// Append `<agg>_err` columns to results. Off by default in the paper so
  /// legacy applications can consume results unchanged; on by default here
  /// because the examples and benches read them.
  bool include_error_columns = true;

  /// Tables smaller than this are never substituted with samples (paper
  /// default: 10M rows; lowered for laptop-scale data).
  int64_t min_rows_for_sampling = 100'000;

  /// Approximate queries must retain at least this many sample tuples per
  /// output group, else the planner declares AQP infeasible (matches the
  /// paper's behaviour on tq-3/8/15 whose grouping columns have extreme
  /// cardinality).
  int64_t min_tuples_per_group = 20;

  /// Threads per query for the in-process engine's morsel-driven parallel
  /// executor (scans, partial aggregation, join probe, sample
  /// construction); <= 0 = all hardware threads. Every setting runs the same
  /// morsels, 1 on the calling thread alone, so results are identical
  /// across all settings.
  int num_threads = 1;

  /// Per-query wall-clock deadline in milliseconds; 0 disables. The whole
  /// user query — sample probes, the rewritten approximate query, and any
  /// HAC exact fallback — shares one deadline, polled cooperatively at
  /// morsel/batch boundaries. An expired deadline unwinds the statement
  /// with kDeadlineExceeded; if the approximate answer is already in hand
  /// when the exact fallback trips, the approximate answer is served
  /// instead (with its error bounds and a degradation note in ExecInfo).
  int64_t timeout_ms = 0;

  /// Per-query memory budget in bytes for row-proportional execution
  /// buffers (join build/probe structures, group tables, gathered outputs);
  /// 0 disables. Exceeding it unwinds with kResourceExhausted naming the
  /// operator that tripped — never an abort. Accounting covers the large
  /// engine-side allocations, not every transient byte.
  uint64_t memory_budget_bytes = 0;
};

}  // namespace vdb::core

#endif  // VDB_CORE_OPTIONS_H_
