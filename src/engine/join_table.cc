#include "engine/join_table.h"

#include <algorithm>
#include <atomic>

namespace vdb::engine {

namespace {

/// Smallest power of two >= n (n >= 1).
uint64_t NextPow2(uint64_t n) {
  uint64_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

/// Slot capacity for `count` keyed rows: power of two, load factor <= 2/3.
size_t SlotCapacity(size_t count) {
  return static_cast<size_t>(NextPow2(std::max<uint64_t>(8, count + count / 2)));
}

/// -1 = automatic (size threshold below), 0 = forced off, 1 = forced on.
// Test hook: atomic (relaxed) — tests write between queries while pool
// workers may still read; see docs/INVARIANTS.md (test-hook contract).
std::atomic<int> g_join_bloom_mode{-1};

/// Below this many keyed build rows the Bloom pre-probe is pure overhead:
/// the whole slot array already fits in L1/L2 and probes are cheap.
constexpr size_t kBloomAutoThreshold = 16384;

}  // namespace

void SetJoinBloomForTest(int mode) {
  g_join_bloom_mode.store(mode, std::memory_order_relaxed);
}

bool JoinBloomForced() {
  return g_join_bloom_mode.load(std::memory_order_relaxed) == 1;
}

Status JoinBuildTable::PlanPartitions(const uint64_t* hashes,
                                      const uint8_t* any_null, size_t num_rows,
                                      int num_threads,
                                      std::vector<uint32_t>* part_rows) {
  // Partition only when the parallel build can win: several morsels of input
  // and more than one thread. ~4 partitions per thread smooths skew without
  // shrinking partitions below cache-friendly sizes; the cap bounds the
  // histogram/prefix bookkeeping. One partition runs the same passes below.
  int bits = 0;
  if (num_threads > 1 && num_rows > MorselRows()) {  // vdb-lint: allow(serial-fork) radix split sizing, not a second path: every split runs the same histogram, scatter and per-partition build
    const uint64_t want =
        NextPow2(std::min<uint64_t>(256, static_cast<uint64_t>(num_threads) * 4));
    while ((1ull << bits) < want) ++bits;
  }
  radix_bits_ = bits;
  const size_t P = size_t{1} << bits;
  parts_.assign(P, Partition{});

  // Blocked Bloom sizing: ~8 bits per keyed row (two test bits per key ->
  // ~6% false-positive rate), rounded up to a power of two, and never fewer
  // words than partitions so each radix partition owns a disjoint word span
  // (the build fills the filter lock-free inside build_partition). The word
  // count depends only on the keyed-row COUNT, and the bit content only on
  // the hashes, so every radix split produces the identical filter.
  auto plan_bloom = [&](size_t keyed) -> Status {
    bloom_.clear();
    bloom_shift_ = 0;
    const int mode = g_join_bloom_mode.load(std::memory_order_relaxed);
    const bool enabled =
        mode == 1 || (mode < 0 && keyed >= kBloomAutoThreshold);
    if (!enabled || keyed == 0) return Status::Ok();
    const uint64_t words =
        NextPow2(std::max<uint64_t>(P, std::max<uint64_t>(2, keyed / 8)));
    VDB_RETURN_IF_ERROR(
        Charge(words * sizeof(uint64_t), "join_build_alloc"));
    int lg = 0;
    while ((1ull << lg) < words) ++lg;
    bloom_shift_ = 64 - lg;
    bloom_.assign(words, 0);
    return Status::Ok();
  };

  // Pass 1: per-morsel histogram of non-NULL rows per partition, with the
  // guard polled at every morsel claim.
  auto counts_or = ParallelMorselMapStatus<std::vector<uint32_t>>(
      num_rows, num_threads, guard_, "join_build",
      [&](std::vector<uint32_t>& slot, size_t begin, size_t end) {
        slot.assign(P, 0);
        for (size_t r = begin; r < end; ++r) {
          if (any_null[r] == 0) ++slot[PartitionOf(hashes[r])];
        }
        return Status::Ok();
      });
  if (!counts_or.ok()) return counts_or.status();
  const std::vector<std::vector<uint32_t>>& counts = counts_or.value();

  // Prefix sum partition-major, morsel-minor: partition p's rows occupy one
  // contiguous span, and within it morsel 0's rows precede morsel 1's — so
  // every partition's row list is ascending, which the build relies on for
  // duplicate-chain order.
  const size_t M = counts.size();
  std::vector<std::vector<uint32_t>> offsets(M, std::vector<uint32_t>(P));
  uint32_t total = 0;
  for (size_t p = 0; p < P; ++p) {
    parts_[p].row_begin = total;
    for (size_t m = 0; m < M; ++m) {
      offsets[m][p] = total;
      total += counts[m][p];
    }
    parts_[p].row_end = total;
  }
  VDB_RETURN_IF_ERROR(
      Charge(static_cast<uint64_t>(total) * sizeof(uint32_t),
             "join_build_alloc"));
  part_rows->resize(total);  // vdb-lint: allow(naked-reserve) charged via Charge() above
  VDB_RETURN_IF_ERROR(plan_bloom(total));

  // Pass 2: scatter row indices; every (morsel, partition) cell writes its
  // own precomputed span, so workers never contend.
  VDB_RETURN_IF_ERROR(ThreadPool::Global().ParallelForStatus(
      num_rows, MorselRows(), num_threads, guard_, "join_build",
      [&](size_t m, size_t begin, size_t end) {
        std::vector<uint32_t>& off = offsets[m];
        for (size_t r = begin; r < end; ++r) {
          if (any_null[r] == 0) {
            (*part_rows)[off[PartitionOf(hashes[r])]++] =
                static_cast<uint32_t>(r);
          }
        }
        return Status::Ok();
      }));

  uint64_t slot_bytes = 0;
  for (size_t p = 0; p < P; ++p) {
    const size_t count = parts_[p].row_end - parts_[p].row_begin;
    if (count == 0) continue;
    slot_bytes += static_cast<uint64_t>(SlotCapacity(count)) *
                  (sizeof(uint64_t) + sizeof(uint32_t));
  }
  VDB_RETURN_IF_ERROR(Charge(slot_bytes, "join_build_alloc"));
  for (size_t p = 0; p < P; ++p) {
    const size_t count = parts_[p].row_end - parts_[p].row_begin;
    if (count == 0) continue;
    parts_[p].slot_hash.assign(SlotCapacity(count), 0);
    parts_[p].slot_head.assign(parts_[p].slot_hash.size(), kInvalidRow);
  }
  return Status::Ok();
}

}  // namespace vdb::engine
