// Flat open-addressing group tables for hash aggregation, DISTINCT, and
// window partitioning — the aggregation-side sibling of engine/join_table.
// One power-of-two slot array (64-bit mixed key hash + group id per slot),
// linear probing, hash-first match with representative-row verification, no
// per-row or per-group string keys anywhere. The same table backs three
// clients:
//
//   - AssignGroupIds / AssignGroupIdsSelected: dense group-id assignment
//     over column key tuples (kernel-backed hashing via HashGroupColumn);
//   - GroupMergeTable: the morsel-partial merge, keyed on each morsel's
//     typed group-key columns (one row per local group) and the group
//     hashes the producing morsel already computed;
//   - the flat DISTINCT value set in aggregates.cc.

#ifndef VDB_ENGINE_AGG_TABLE_H_
#define VDB_ENGINE_AGG_TABLE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/governor.h"
#include "common/status.h"
#include "engine/column.h"
#include "engine/group_ids.h"

namespace vdb::engine {

/// Test hook: ANDs every group hash (AssignGroupIds, the merge table, the
/// flat DISTINCT set) with `mask` after mixing, forcing distinct keys into
/// shared 64-bit hashes so collision handling is exercised
/// deterministically. ~0ull (the default) disables. The group-side sibling
/// of SetJoinKeyHashMaskForTest; a relaxed atomic (docs/INVARIANTS.md,
/// test-hook contract), set between statements.
void SetGroupHashMaskForTest(uint64_t mask);
uint64_t GroupHashMaskForTest();

/// Hashes multi-column group keys for rows [0, num_rows) column-at-a-time
/// (kernel-dispatched typed lanes via HashGroupColumn) into *hashes,
/// applying the test mask. With no columns every row hashes to the bare
/// seed (the implicit aggregate group).
void HashGroupKeys(const std::vector<const Column*>& cols, size_t num_rows,
                   std::vector<uint64_t>* hashes);

/// A group-key column with a row base: batch position k reads col row
/// base + k. The flat sink's zero-copy direct-column path points straight at
/// a table column with the morsel's start row as base instead of slicing it
/// into a fresh Column; evaluated expression columns use base 0.
struct KeyCol {
  const Column* col = nullptr;
  size_t base = 0;
};

/// Power-of-two open-addressing group table, reusable as scratch. Callers
/// must Reset before first use. FindOrInsert assigns dense group ids in
/// first-occurrence order and records each group's hash, which doubles as
/// the rehash source on growth.
class GroupTable {
 public:
  static constexpr uint32_t kNoGroup = 0xFFFFFFFFu;

  ~GroupTable() { GuardRelease(guard_, charged_bytes_); }

  /// Attaches a per-statement guard: slot-array growth is budget-charged
  /// through TryReserve (site "agg_group_grow") and a trip latches into
  /// guard_status() instead of growing — inserts then stop assigning fresh
  /// groups (returning gid 0) so the table never fills to the point of an
  /// unterminated probe. Callers MUST check guard_status() after an insert
  /// batch and discard results on failure. Set before Reset.
  void set_guard(const ExecGuard* guard) { guard_ = guard; }

  /// First guard/budget failure observed by Reset or growth; kOk otherwise.
  const Status& guard_status() const { return guard_status_; }

  /// Clears to zero groups, sized so `expected` groups fit without growth.
  void Reset(size_t expected);

  size_t num_groups() const { return group_hashes_.size(); }
  uint64_t group_hash(uint32_t gid) const { return group_hashes_[gid]; }

  /// Moves the per-group hash array out (insertion order); Reset before
  /// reusing the table afterwards.
  std::vector<uint64_t> TakeGroupHashes() { return std::move(group_hashes_); }

  /// Finds the group with hash `h` for which eq(gid) holds, or inserts a
  /// new one (returning the next dense id). eq runs only on same-hash
  /// candidates — the representative-row verification — so it stays off the
  /// hot path unless hashes collide.
  template <typename Eq>
  uint32_t FindOrInsert(uint64_t h, Eq&& eq, bool* inserted) {
    if ((group_hashes_.size() + 1) * 4 > slots_.size() * 3) {
      Grow();
      if (!guard_status_.ok()) {
        // Budget trip: stop assigning fresh groups (the caller checks
        // guard_status() and discards). gid 0 keeps downstream indexing
        // in-bounds until the unwind.
        *inserted = false;
        return 0;
      }
    }
    const uint64_t mask = slots_.size() - 1;
    size_t i = h & mask;
    while (slots_[i].gid != kNoGroup) {
      if (slots_[i].hash == h && eq(slots_[i].gid)) {
        *inserted = false;
        return slots_[i].gid;
      }
      i = (i + 1) & mask;
    }
    const uint32_t gid = static_cast<uint32_t>(group_hashes_.size());  // vdb-lint: allow(naked-size-narrowing) group count <= row count, guarded by CheckGroupIdCapacity
    slots_[i] = Slot{h, gid};
    group_hashes_.push_back(h);
    *inserted = true;
    return gid;
  }

  /// Batched FindOrInsert over n keys: gids[k] = group id of hashes[k], with
  /// eq(k, gid) the same-hash verification and on_insert(k, gid) called once
  /// per fresh group BEFORE eq can see it (callers append the representative
  /// there). Functionally identical to n FindOrInsert calls; the batch form
  /// hoists the slot pointer, probe mask, and growth threshold out of the
  /// per-row path — the dense group-id assignment loop is the hottest loop
  /// in hash aggregation.
  template <typename Eq, typename OnInsert>
  void FindOrInsertBatch(const uint64_t* hashes, size_t n, Eq&& eq,
                         OnInsert&& on_insert, uint32_t* gids) {
    Slot* slots = slots_.data();
    uint64_t mask = slots_.size() - 1;
    size_t grow_at = slots_.size() / 4 * 3;
    for (size_t k = 0; k < n; ++k) {
      const uint64_t h = hashes[k];
      size_t i = h & mask;
      uint32_t gid;
      for (;;) {
        const Slot s = slots[i];
        if (s.gid == kNoGroup) {
          gid = static_cast<uint32_t>(group_hashes_.size());  // vdb-lint: allow(naked-size-narrowing) group count <= row count, guarded by CheckGroupIdCapacity
          slots[i] = Slot{h, gid};
          group_hashes_.push_back(h);
          on_insert(k, gid);
          if (group_hashes_.size() >= grow_at) {
            Grow();
            if (!guard_status_.ok()) {
              // Budget trip mid-batch: zero-fill the remaining gids (kept
              // in-bounds for the caller's unwind path) and stop probing a
              // table that can no longer grow.
              for (size_t j = k; j < n; ++j) gids[j] = 0;
              return;
            }
            slots = slots_.data();
            mask = slots_.size() - 1;
            grow_at = slots_.size() / 4 * 3;
          }
          break;
        }
        if (s.hash == h && eq(k, s.gid)) {
          gid = s.gid;
          break;
        }
        i = (i + 1) & mask;
      }
      gids[k] = gid;
    }
  }

 private:
  /// One probe touches one cache line: hash and gid live in the same
  /// 16-byte slot rather than split across two arrays.
  struct Slot {
    uint64_t hash;
    uint32_t gid;
  };

  void Grow();

  std::vector<Slot> slots_;
  std::vector<uint64_t> group_hashes_;  // per-gid, insertion order
  const ExecGuard* guard_ = nullptr;    // polled/charged on growth
  uint64_t charged_bytes_ = 0;          // released on destruction / Reset
  Status guard_status_ = Status::Ok();  // first growth failure, latched
};

/// Hashed merge table of the morsel-partial aggregation merge. Each morsel
/// hands in its local groups as typed key columns (row k = local group k's
/// key, gathered from its representative row) plus the group hashes its
/// AssignGroupIds computed (GroupAssignment::group_hash — a pure function
/// of the key values, so every morsel agrees). Same-hash candidates are
/// verified with JoinKeysEqual's cross-typed cell equality (NULL == NULL,
/// NaN == NaN, -0.0 == 0.0, 5 == 5.0), so a key that evaluates to Int64 in
/// one morsel and Double in another still merges. Candidates are compared
/// against their first occurrence's cells in that morsel's own columns, not
/// against the merged columns: those follow Column::Append's coercions
/// (Int64 -> Double rounding past 2^53, NULL on a string/numeric clash),
/// which would split groups that GroupValuesEqual joins.
class GroupMergeTable {
 public:
  /// Clears to zero groups over `arity` key columns, sized so `expected`
  /// groups fit without growth.
  void Reset(size_t arity, size_t expected);

  /// Guard plumbing: forwards to the underlying GroupTable (growth charged
  /// at site "agg_group_grow", failures latched). Set before Reset; check
  /// guard_status() after each MergeMorsel.
  void set_guard(const ExecGuard* guard) { table_.set_guard(guard); }
  const Status& guard_status() const { return table_.guard_status(); }

  size_t num_groups() const { return table_.num_groups(); }

  /// Merges one morsel's n local groups in local order: keys[c] (arity
  /// columns of n rows) holds their key tuples and hashes[k] group k's hash.
  /// dst_gid[k] receives group k's merged id and fresh[k] is 1 when group k
  /// created it (its key then appends to the merged key columns), else 0.
  /// Keeps `keys` to verify later morsels' candidates against.
  void MergeMorsel(std::vector<Column> keys, const uint64_t* hashes,
                   size_t n, uint32_t* dst_gid, uint8_t* fresh);

  /// The merged key columns, one row per group in merged-id order: exactly
  /// what Column::Append builds from each group's first-occurrence key.
  /// Reset before reusing the table afterwards.
  std::vector<Column> TakeKeyColumns() { return std::move(merged_); }

 private:
  /// First occurrence of a merged group: its morsel and local row there.
  struct Origin {
    uint32_t morsel;
    uint32_t row;
  };

  GroupTable table_;
  std::vector<std::vector<Column>> morsel_keys_;  // per merged morsel
  std::vector<Origin> origin_;                     // per merged group
  std::vector<Column> merged_;                     // per key column
};

/// Assigns dense group ids over the selected rows rows[0..n) (ascending) of
/// `cols`, each of dense size num_dense — the bitmap GROUP BY path, which
/// dense-evaluates key expressions over a survivor span and groups only the
/// set-bit rows without expanding the mask. out->gid_of_row[i] is the gid of
/// rows[i]; rep_row holds dense row indices. Hashing runs over the full
/// dense span (the typed kernels want contiguous lanes); only selected rows
/// are probed, so gids, first-occurrence order, and group hashes match what
/// AssignGroupIds would produce on the compacted rows.
void AssignGroupIdsSelected(const std::vector<const Column*>& cols,
                            size_t num_dense, const uint32_t* rows, size_t n,
                            GroupAssignment* out);

/// Based-column forms of AssignGroupIds / AssignGroupIdsSelected: batch
/// position k of key column c reads c.col row c.base + k. Row indices in
/// the result (gid_of_row positions, rep_row, `rows`) stay batch-relative.
/// Output is identical to first slicing each column to [base, base + n) and
/// calling the unbased form.
GroupAssignment AssignGroupIdsBased(const std::vector<KeyCol>& cols,
                                    size_t num_rows);
void AssignGroupIdsSelectedBased(const std::vector<KeyCol>& cols,
                                 size_t num_dense, const uint32_t* rows,
                                 size_t n, GroupAssignment* out);

}  // namespace vdb::engine

#endif  // VDB_ENGINE_AGG_TABLE_H_
