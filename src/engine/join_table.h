// Flat open-addressing hash table over a join build side, with a
// radix-partitioned parallel construction path.
//
// Replaces the serial std::unordered_map<std::string, std::vector<uint32_t>>
// the join used: keys are 64-bit hashes computed column-at-a-time
// (engine/group_ids.h) — no per-row string materialization anywhere — and
// the table itself is two flat arrays per partition (slot hash + head build
// row, power-of-two capacity, linear probing) plus one shared `next` array
// chaining duplicate build rows in ascending row order. A probe hit walks
// head -> next -> ... exactly in the order the old per-key vectors listed
// rows, so pair lists are bit-identical to the string-map reference.
//
// Build: workers histogram build-row hashes per morsel into 2^k radix
// partitions (top k hash bits), a prefix sum fixes each partition's
// row-list boundary, workers scatter row indices (disjoint writes; within a
// partition rows stay ascending because the prefix sum runs
// partition-major, morsel-minor), and each partition's sub-table is then
// built independently — no locks, no atomics on the hot path. Slot lookups
// use the LOW hash bits, so radix partitioning on the high bits keeps
// per-partition occupancy uniform. k is a sizing decision (k = 0, one
// partition, below two threads or one morsel of input); every k runs the
// same passes, and each key's chain lists its rows ascending, so pair lists
// are identical at every k.

#ifndef VDB_ENGINE_JOIN_TABLE_H_
#define VDB_ENGINE_JOIN_TABLE_H_

#include <cstdint>
#include <vector>

#include "common/governor.h"
#include "common/thread_pool.h"
#include "engine/kernels/kernels_scalar.h"

namespace vdb::engine {

/// Test hook: forces the join Bloom pre-probe filter on (1), off (0), or
/// restores the automatic size-based policy (-1, the default). Plain global
/// set before parallel regions, like SetJoinKeyHashMaskForTest.
void SetJoinBloomForTest(int mode);

/// True when SetJoinBloomForTest(1) forced the filter on — the probe side's
/// adaptive pass-rate bail-out is disabled so tests and benches measure the
/// filtered path unconditionally.
bool JoinBloomForced();

class JoinBuildTable {
 public:
  /// Absent build row / empty slot sentinel.
  static constexpr uint32_t kInvalidRow = 0xFFFFFFFFu;

  ~JoinBuildTable() { GuardRelease(guard_, charged_bytes_); }

  /// Builds over `num_rows` build rows whose key hashes and NULL-key flags
  /// the caller precomputed (HashJoinKeyColumns). Rows with any_null set are
  /// never inserted (NULL keys never match). `eq(a, b)` decides whether
  /// build rows a and b carry equal keys — called only for same-hash pairs,
  /// i.e. genuine 64-bit collisions and duplicate keys.
  ///
  /// `guard` (optional) is polled per morsel/partition and charged for every
  /// row-proportional allocation (next chain, partition row list, slot
  /// arrays, Bloom words) via TryReserve — an over-budget build returns
  /// kResourceExhausted instead of aborting in the allocator. The charge is
  /// released when the table is destroyed or rebuilt.
  template <typename Eq>
  Status Build(const uint64_t* hashes, const uint8_t* any_null,
               size_t num_rows, int num_threads, Eq&& eq,
               const ExecGuard* guard = nullptr) {
    GuardRelease(guard_, charged_bytes_);
    charged_bytes_ = 0;
    guard_ = guard;
    VDB_RETURN_IF_ERROR(
        Charge(num_rows * sizeof(uint32_t), "join_build_alloc"));
    next_.assign(num_rows, kInvalidRow);
    std::vector<uint32_t> part_rows;
    VDB_RETURN_IF_ERROR(
        PlanPartitions(hashes, any_null, num_rows, num_threads, &part_rows));
    auto build_partition = [&](size_t p) -> Status {
      Partition& part = parts_[p];
      // Blocked Bloom fill rides the per-partition build loop lock-free:
      // key h owns word h >> bloom_shift_, and since the filter has at least
      // as many words as there are radix partitions, a word's top bits
      // contain the partition id — partitions own disjoint word spans. The
      // filter content depends only on the key hashes (not the partition
      // split), so every split produces the identical filter.
      if (!bloom_.empty()) {
        for (uint32_t idx = part.row_begin; idx < part.row_end; ++idx) {
          const uint64_t h = hashes[part_rows[idx]];
          bloom_[h >> bloom_shift_] |= kernels::scalar::BloomBitMask(h);
        }
      }
      if (part.slot_hash.empty()) return Status::Ok();
      const uint64_t mask = part.slot_hash.size() - 1;
      // Per-partition scratch, charged for its own lifetime only.
      ScopedReservation tail_charge(
          guard_, part.slot_hash.size() * sizeof(uint32_t),
          "join_build_alloc");
      VDB_RETURN_IF_ERROR(tail_charge.status());
      std::vector<uint32_t> slot_tail(part.slot_hash.size(), kInvalidRow);
      for (uint32_t idx = part.row_begin; idx < part.row_end; ++idx) {
        const uint32_t r = part_rows[idx];
        const uint64_t h = hashes[r];
        uint64_t i = h & mask;
        for (;;) {
          if (part.slot_head[i] == kInvalidRow) {
            part.slot_head[i] = r;
            part.slot_hash[i] = h;
            slot_tail[i] = r;
            break;
          }
          if (part.slot_hash[i] == h && eq(part.slot_head[i], r)) {
            // Duplicate key: append to the chain tail so chains list build
            // rows ascending (rows arrive in ascending order per partition).
            next_[slot_tail[i]] = r;
            slot_tail[i] = r;
            break;
          }
          i = (i + 1) & mask;
        }
      }
      return Status::Ok();
    };
    // One morsel per partition: the guard is polled at every partition
    // claim, and the first failing partition's status is reported.
    return ThreadPool::Global().ParallelForStatus(
        parts_.size(), 1, num_threads, guard_, "join_build",
        [&](size_t, size_t p, size_t) { return build_partition(p); });
  }

  /// First build row whose key hash is `hash` and whose key `eq(build_row)`
  /// confirms equal; kInvalidRow on miss. Further duplicates via NextDup.
  template <typename Eq>
  uint32_t Find(uint64_t hash, Eq&& eq) const {
    const Partition& part = parts_[PartitionOf(hash)];
    if (part.slot_hash.empty()) return kInvalidRow;
    const uint64_t mask = part.slot_hash.size() - 1;
    uint64_t i = hash & mask;
    for (;;) {
      const uint32_t head = part.slot_head[i];
      if (head == kInvalidRow) return kInvalidRow;
      if (part.slot_hash[i] == hash && eq(head)) return head;
      i = (i + 1) & mask;
    }
  }

  /// Next build row with the same key as `row` (ascending), or kInvalidRow.
  uint32_t NextDup(uint32_t row) const { return next_[row]; }

  /// 2^k radix partitions (1 when the build is not split).
  size_t num_partitions() const { return parts_.size(); }

  /// Blocked Bloom pre-probe filter over the keyed build rows. Probes with
  /// hashes that cannot be in the table are rejected without touching the
  /// slot arrays — a win when the probe side mostly misses (selective or
  /// disjoint key domains). No false negatives: filter-on and filter-off
  /// probes produce identical pair lists. Present only when the build
  /// enabled it (automatic above a size threshold; SetJoinBloomForTest).
  bool has_bloom() const { return !bloom_.empty(); }
  const uint64_t* bloom_words() const { return bloom_.data(); }
  int bloom_shift() const { return bloom_shift_; }
  /// Scalar membership test (the SIMD probe path uses the batch kernel).
  bool BloomMaybeContains(uint64_t hash) const {
    return kernels::scalar::BloomMaybeContains(bloom_.data(), bloom_shift_,
                                               hash);
  }

 private:
  struct Partition {
    std::vector<uint64_t> slot_hash;  // valid where slot_head != kInvalidRow
    std::vector<uint32_t> slot_head;  // first build row keyed here
    uint32_t row_begin = 0, row_end = 0;  // this partition's part_rows span
  };

  /// Decides the radix split, fills `part_rows` with non-NULL build row
  /// indices grouped by partition (ascending within each), and sizes every
  /// partition's slot arrays. Polls the guard per morsel and charges the
  /// row-proportional allocations. Defined in join_table.cc.
  Status PlanPartitions(const uint64_t* hashes, const uint8_t* any_null,
                        size_t num_rows, int num_threads,
                        std::vector<uint32_t>* part_rows);

  /// Radix partition of a key hash: its top radix_bits_ bits, 0 when
  /// unpartitioned. Two shifts, because hash >> 64 is undefined.
  size_t PartitionOf(uint64_t hash) const {
    return static_cast<size_t>((hash >> 1) >> (63 - radix_bits_));
  }

  /// Budget-charges `bytes` against the current guard and remembers the
  /// total so the destructor (or the next Build) releases it.
  Status Charge(uint64_t bytes, const char* site) {
    VDB_RETURN_IF_ERROR(GuardTryReserve(guard_, bytes, site));
    charged_bytes_ += bytes;
    return Status::Ok();
  }

  int radix_bits_ = 0;  // partition index = PartitionOf(hash)
  std::vector<Partition> parts_;
  std::vector<uint32_t> next_;
  std::vector<uint64_t> bloom_;  // empty when the pre-probe is disabled
  int bloom_shift_ = 0;          // word index = hash >> bloom_shift_
  const ExecGuard* guard_ = nullptr;  // set per Build; polled and charged
  uint64_t charged_bytes_ = 0;        // released on destruction / rebuild
};

}  // namespace vdb::engine

#endif  // VDB_ENGINE_JOIN_TABLE_H_
