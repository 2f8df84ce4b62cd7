// Morsel-driven parallel execution substrate.
//
// A fixed pool of worker threads executes "morsels" — contiguous row ranges
// of a larger scan — claimed dynamically from a shared atomic counter, so
// fast workers steal work from slow ones. Results are never merged inside
// the pool: callers give every morsel its own output slot and concatenate
// slots in morsel order afterwards, which makes query results deterministic
// regardless of how the OS schedules the workers (and independent of the
// pool size, so a 1-thread and an 8-thread run produce identical output).
// One thread, or one morsel, runs the same morsels inline on the caller:
// operators never branch on the thread count themselves.

#ifndef VDB_COMMON_THREAD_POOL_H_
#define VDB_COMMON_THREAD_POOL_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "common/governor.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace vdb {

/// Default rows per morsel for parallel scans. Small enough that a 1M-row
/// scan yields ~30 work units (good load balance at 8 threads), large enough
/// that per-morsel batch-evaluation setup cost is amortized.
size_t MorselRows();

/// Test hook: overrides the morsel granularity (0 restores the default).
/// Lets tests exercise morsel-boundary cases (morsel smaller than a batch,
/// row counts not divisible by the morsel size) with small tables.
void SetMorselRowsForTest(size_t rows);

/// Morsels in the decomposition of [0, total): ceil(total / morsel_rows),
/// and one empty morsel [0, 0) for an empty input, so every morsel body sees
/// its input at least once (an empty result keeps its schema and types, and
/// a guarded sweep polls once). `morsel_rows` must be > 0.
inline size_t MorselCount(size_t total, size_t morsel_rows) {
  return total == 0 ? 1 : (total + morsel_rows - 1) / morsel_rows;
}

/// A lazily-grown fixed worker pool shared by the whole process. Workers
/// sleep on a condition variable between jobs; a ParallelFor call publishes
/// one job at a time and participates in it from the calling thread.
class ThreadPool {
 public:
  static ThreadPool& Global();

  ~ThreadPool();

  /// Splits [0, total) into MorselCount(total, morsel_rows) contiguous
  /// morsels and runs body(morsel_index, begin, end) for each, using up to
  /// max_threads threads including the caller. Blocks until every morsel has
  /// finished. One thread or one morsel runs inline, in morsel order.
  ///
  /// The morsel decomposition depends only on (total, morsel_rows), never on
  /// max_threads or scheduling, so callers that write into per-morsel slots
  /// and merge in index order get bit-deterministic results.
  ///
  /// The body must not throw. Calls from inside a worker (nesting) run all
  /// morsels inline on the calling thread.
  ///
  /// Lock contract (REQUIRES(!mu_)): the caller must NOT hold the pool
  /// mutex — the enqueue path locks mu_ to publish the job and again to
  /// wait for completion, so calling with it held self-deadlocks. Morsel
  /// bodies run with no pool lock held; a body that needs mu_-guarded pool
  /// state is a design error (bodies see only caller-owned slots).
  void ParallelFor(size_t total, size_t morsel_rows, int max_threads,
                   const std::function<void(size_t, size_t, size_t)>& body)
      REQUIRES(!mu_);

  /// ParallelFor with first-error/stop propagation — the fix for the
  /// silent-completion gap where a failing morsel body could not abort the
  /// sweep. The body returns Status; the first non-OK return (or a guard
  /// trip, polled at every morsel claim when `guard` is non-null) raises a
  /// shared stop token that makes unclaimed morsels no-ops. Already-running
  /// morsels finish their current body call — cancellation is cooperative,
  /// never preemptive.
  ///
  /// Returns kOk only when every morsel ran and returned kOk. On failure,
  /// per-morsel statuses are merged in MORSEL order and the first non-OK
  /// one is returned, so a deterministic failure reports the same morsel's
  /// message regardless of thread count or schedule. (When several morsels
  /// fail concurrently before the stop token lands, which subset recorded a
  /// status can vary, but the earliest recorded morsel is always the one
  /// reported.) Skipped morsels record nothing.
  ///
  /// The morsel decomposition is identical to ParallelFor's, and on the
  /// all-OK path the bodies observe nothing of the machinery — results
  /// stay bit-identical to an unguarded ParallelFor.
  Status ParallelForStatus(
      size_t total, size_t morsel_rows, int max_threads,
      const ExecGuard* guard, const char* site,
      const std::function<Status(size_t, size_t, size_t)>& body)
      REQUIRES(!mu_);

 private:
  ThreadPool() = default;

  struct Job;

  void WorkerLoop() REQUIRES(!mu_);
  void EnsureWorkersLocked(size_t n) REQUIRES(mu_);

  Mutex mu_;
  CondVar work_cv_;  // workers: a new job is available
  CondVar done_cv_;  // caller: the current job finished
  Job* job_ GUARDED_BY(mu_) = nullptr;
  uint64_t job_seq_ GUARDED_BY(mu_) = 0;  // bumps per published job
  bool stop_ GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_ GUARDED_BY(mu_);
};

/// Runs body(i) once per i in [0, count) on up to max_threads threads —
/// the per-partition / per-column fan-out shape (morsel size 1), used by the
/// radix-partitioned join build and column-parallel gathers. Iterations must
/// touch disjoint state; completion order is unspecified, so callers that
/// care about order index into preallocated slots.
///
/// Inherits ParallelFor's lock contract: the caller must not hold the pool
/// mutex, and bodies run lock-free — any state a body mutates must be its
/// own slot or independently synchronized (and annotated as such).
template <typename Body>
void ParallelForEach(size_t count, int max_threads, Body&& body) {
  ThreadPool::Global().ParallelFor(
      count, 1, max_threads, [&](size_t, size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) body(i);
      });
}

/// The standard morsel fan-out shape: one default-constructed Slot per
/// morsel of [0, total), filled by body(slot, begin, end), returned in
/// morsel order for the caller to merge. Keeps the decomposition arithmetic
/// (and its agreement with ParallelFor's) in one place.
template <typename Slot, typename Body>
std::vector<Slot> ParallelMorselMap(size_t total, int max_threads,
                                    Body&& body) {
  const size_t morsel_rows = MorselRows();
  std::vector<Slot> slots(MorselCount(total, morsel_rows));
  ThreadPool::Global().ParallelFor(
      total, morsel_rows, max_threads,
      [&](size_t m, size_t begin, size_t end) { body(slots[m], begin, end); });
  return slots;
}

/// ParallelMorselMap over a Status-returning body with guard polling at
/// every morsel claim: body(slot, begin, end) -> Status. Returns the filled
/// slots, or the first failure in morsel order (see ParallelForStatus).
/// Slots of skipped/failed morsels stay default-constructed; callers only
/// see them on the error path, which discards the vector. `morsel_rows`
/// overrides the decomposition (e.g. one morsel covering the whole input).
template <typename Slot, typename Body>
Result<std::vector<Slot>> ParallelMorselMapStatus(
    size_t total, int max_threads, const ExecGuard* guard, const char* site,
    Body&& body, size_t morsel_rows = MorselRows()) {
  std::vector<Slot> slots(MorselCount(total, morsel_rows));
  Status st = ThreadPool::Global().ParallelForStatus(
      total, morsel_rows, max_threads, guard, site,
      [&](size_t m, size_t begin, size_t end) {
        return body(slots[m], begin, end);
      });
  if (!st.ok()) return st;
  return slots;
}

}  // namespace vdb

#endif  // VDB_COMMON_THREAD_POOL_H_
