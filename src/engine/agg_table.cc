#include "engine/agg_table.h"

#include <algorithm>
#include <atomic>
#include <cmath>

namespace vdb::engine {

namespace {
// Test hook read by pool workers during parallel group-id assignment while
// tests write it from the main thread between queries: atomic (relaxed) so
// that handoff is a defined data point, not a formal race. Loaded once per
// hashing call, never per row.
std::atomic<uint64_t> g_group_hash_mask{~0ull};

/// Raw-lane view of one group-key column for the inlined representative-row
/// verification — the same relation as group_ids.cc's CellsEqual (NULLs
/// equal, NaNs equal, typed compares elsewhere) without a per-row
/// out-of-line call. Raw pointers are pre-offset by the column's row base so
/// batch-relative row indices address them directly; only the string path
/// keeps the base (Column::GetString wants absolute rows).
struct KeyLane {
  TypeId type;
  const int64_t* ints = nullptr;
  const double* dbls = nullptr;
  const uint8_t* nulls = nullptr;
  const Column* col = nullptr;  // string compares
  size_t base = 0;              // string compares only
};

std::vector<KeyLane> MakeKeyLanes(const std::vector<KeyCol>& cols) {
  std::vector<KeyLane> lanes;
  lanes.reserve(cols.size());  // vdb-lint: allow(naked-reserve) column-count bounded
  for (const KeyCol& kc : cols) {  // vdb-lint: allow(ungoverned-loop) column-count bounded, not row-proportional
    const Column* c = kc.col;
    KeyLane l;
    l.type = c->type();
    l.nulls = c->NullData();
    if (l.nulls != nullptr) l.nulls += kc.base;
    l.col = c;
    l.base = kc.base;
    if (l.type == TypeId::kBool || l.type == TypeId::kInt64) {
      l.ints = c->IntData() + kc.base;
    } else if (l.type == TypeId::kDouble) {
      l.dbls = c->DoubleData() + kc.base;
    }
    lanes.push_back(l);
  }
  return lanes;
}

inline bool LaneRowsEqual(const KeyLane* lanes, size_t nlanes, uint32_t a,
                          uint32_t b) {
  for (size_t i = 0; i < nlanes; ++i) {
    const KeyLane& l = lanes[i];
    if (l.type == TypeId::kNull) continue;  // every cell NULL: equal
    const bool an = l.nulls != nullptr && l.nulls[a] != 0;
    const bool bn = l.nulls != nullptr && l.nulls[b] != 0;
    if (an != bn) return false;
    if (an) continue;
    switch (l.type) {
      case TypeId::kNull:
        break;
      case TypeId::kBool:
      case TypeId::kInt64:
        if (l.ints[a] != l.ints[b]) return false;
        break;
      case TypeId::kDouble: {
        const double x = l.dbls[a], y = l.dbls[b];
        if (!(x == y || (std::isnan(x) && std::isnan(y)))) return false;
        break;
      }
      case TypeId::kString:
        if (l.col->GetString(l.base + a) != l.col->GetString(l.base + b)) {
          return false;
        }
        break;
    }
  }
  return true;
}

/// True when every key lane is integer-typed with no NULL bytes — the
/// dominant GROUP BY shape (int key columns). Equality then reduces to raw
/// int compares, so the probe loop skips LaneRowsEqual's per-lane null
/// checks and type dispatch, which run on every row (a hash match IS the
/// common case: same-group rows share the hash).
bool AllIntNoNull(const std::vector<KeyLane>& lanes) {
  for (const KeyLane& l : lanes) {
    if ((l.type != TypeId::kInt64 && l.type != TypeId::kBool) ||
        l.nulls != nullptr) {
      return false;
    }
  }
  return true;
}

inline bool IntRowsEqual(const KeyLane* lanes, size_t nlanes, uint32_t a,
                         uint32_t b) {
  for (size_t i = 0; i < nlanes; ++i) {
    if (lanes[i].ints[a] != lanes[i].ints[b]) return false;
  }
  return true;
}

/// Mixed int/double key lanes, still no NULLs (e.g. GROUP BY g, sid where
/// sid came out of a floor() expression as Double). Per-lane branch on the
/// stored int pointer replaces the type switch; double equality keeps the
/// NaNs-equal rule so grouping matches CellsEqual exactly.
bool AllNumericNoNull(const std::vector<KeyLane>& lanes) {
  for (const KeyLane& l : lanes) {
    if (l.nulls != nullptr) return false;
    if (l.type != TypeId::kInt64 && l.type != TypeId::kBool &&
        l.type != TypeId::kDouble) {
      return false;
    }
  }
  return true;
}

inline bool NumRowsEqual(const KeyLane* lanes, size_t nlanes, uint32_t a,
                         uint32_t b) {
  for (size_t i = 0; i < nlanes; ++i) {
    const KeyLane& l = lanes[i];
    if (l.ints != nullptr) {
      if (l.ints[a] != l.ints[b]) return false;
    } else {
      const double x = l.dbls[a], y = l.dbls[b];
      if (!(x == y || (std::isnan(x) && std::isnan(y)))) return false;
    }
  }
  return true;
}

/// Appends src rows `rows[0..n)` to *dst with Column::Append's per-value
/// semantics (Int64 and Double promote, a string/numeric clash stores
/// NULL, a Bool lands as Int64). AppendSelected already appends mismatched
/// types value by value; only its adoption of a Bool lane into an empty
/// column differs.
void AppendAsValues(const Column& src, const uint32_t* rows, size_t n,
                    Column* dst) {
  if (src.type() != TypeId::kBool) {
    dst->AppendSelected(src, rows, n);
    return;
  }
  for (size_t k = 0; k < n; ++k) dst->Append(src.Get(rows[k]));
}

}  // namespace

void SetGroupHashMaskForTest(uint64_t mask) {
  g_group_hash_mask.store(mask, std::memory_order_relaxed);
}

uint64_t GroupHashMaskForTest() {
  return g_group_hash_mask.load(std::memory_order_relaxed);
}

void HashGroupKeys(const std::vector<const Column*>& cols, size_t num_rows,
                   std::vector<uint64_t>* hashes) {
  hashes->assign(num_rows, kGroupHashSeed);
  for (const Column* c : cols) HashGroupColumn(*c, num_rows, hashes);
  const uint64_t mask = GroupHashMaskForTest();
  if (mask != ~0ull) {
    for (uint64_t& h : *hashes) h &= mask;
  }
}

namespace {

/// Based form of HashGroupKeys: hashes rows [base, base + num_rows) of each
/// key column into hashes[0..num_rows).
void HashGroupKeysBased(const std::vector<KeyCol>& cols, size_t num_rows,
                        std::vector<uint64_t>* hashes) {
  hashes->assign(num_rows, kGroupHashSeed);
  for (const KeyCol& kc : cols) {
    HashGroupColumnRange(*kc.col, kc.base, kc.base + num_rows,
                         hashes->data());
  }
  const uint64_t mask = GroupHashMaskForTest();
  if (mask != ~0ull) {
    for (uint64_t& h : *hashes) h &= mask;
  }
}

std::vector<KeyCol> ZeroBased(const std::vector<const Column*>& cols) {
  std::vector<KeyCol> kcs;
  kcs.reserve(cols.size());  // vdb-lint: allow(naked-reserve) column-count bounded
  for (const Column* c : cols) kcs.push_back(KeyCol{c, 0});
  return kcs;
}

}  // namespace

void GroupTable::Reset(size_t expected) {
  size_t cap = 16;
  // Size so `expected` groups stay under the 3/4 load factor.
  while (cap * 3 < (expected + 1) * 4) cap <<= 1;
  GuardRelease(guard_, charged_bytes_);
  charged_bytes_ = 0;
  guard_status_ = Status::Ok();
  Status st = GuardTryReserve(
      guard_, static_cast<uint64_t>(cap) * sizeof(Slot), "agg_group_grow");
  if (!st.ok()) {
    // Latch and fall back to the minimum capacity (uncharged) so callers
    // that probe before checking guard_status() stay in-bounds; the first
    // growth attempt re-fails and stops inserts.
    guard_status_ = std::move(st);
    cap = 16;
  } else if (guard_ != nullptr) {
    charged_bytes_ = static_cast<uint64_t>(cap) * sizeof(Slot);
  }
  slots_.assign(cap, Slot{0, kNoGroup});
  group_hashes_.clear();
}

void GroupTable::Grow() {
  const size_t cap = slots_.empty() ? 16 : slots_.size() * 2;
  // Charge the doubled array before releasing the old charge: both buffers
  // are briefly alive during the reallocation, and a failed charge must
  // leave the existing (still valid) table untouched.
  Status st = GuardTryReserve(
      guard_, static_cast<uint64_t>(cap) * sizeof(Slot), "agg_group_grow");
  if (!st.ok()) {
    if (guard_status_.ok()) guard_status_ = std::move(st);
    return;
  }
  GuardRelease(guard_, charged_bytes_);
  charged_bytes_ =
      guard_ != nullptr ? static_cast<uint64_t>(cap) * sizeof(Slot) : 0;
  slots_.assign(cap, Slot{0, kNoGroup});
  const uint64_t mask = cap - 1;
  // Rehash from the stored per-group hashes; no equality checks needed —
  // every gid is already distinct, same-hash groups just extend the chain.
  for (uint32_t g = 0; g < group_hashes_.size(); ++g) {
    size_t i = group_hashes_[g] & mask;
    while (slots_[i].gid != kNoGroup) i = (i + 1) & mask;
    slots_[i] = Slot{group_hashes_[g], g};
  }
}

void GroupMergeTable::Reset(size_t arity, size_t expected) {
  table_.Reset(expected);
  morsel_keys_.clear();
  origin_.clear();
  merged_.assign(arity, Column());
}

void GroupMergeTable::MergeMorsel(std::vector<Column> keys,
                                  const uint64_t* hashes, size_t n,
                                  uint32_t* dst_gid, uint8_t* fresh) {
  // Morsel and row indices fit uint32: grouped inputs pass
  // CheckGroupableRows, and a morsel has at most one group per row.
  const auto morsel = static_cast<uint32_t>(morsel_keys_.size());  // vdb-lint: allow(naked-size-narrowing) morsel count <= row count, guarded by CheckGroupableRows
  std::vector<const Column*> cur(keys.size());
  std::vector<const Column*> cand(keys.size());
  for (size_t c = 0; c < keys.size(); ++c) cur[c] = &keys[c];
  std::vector<uint32_t> fresh_rows;
  std::fill(fresh, fresh + n, uint8_t{0});
  table_.FindOrInsertBatch(
      hashes, n,
      [&](size_t k, uint32_t g) {
        const Origin o = origin_[g];
        const std::vector<Column>& src =
            o.morsel == morsel ? keys : morsel_keys_[o.morsel];
        for (size_t c = 0; c < src.size(); ++c) cand[c] = &src[c];
        return JoinKeysEqual(cand, o.row, cur, k);
      },
      [&](size_t k, uint32_t) {
        origin_.push_back(Origin{morsel, static_cast<uint32_t>(k)});
        fresh_rows.push_back(static_cast<uint32_t>(k));
        fresh[k] = 1;
      },
      dst_gid);
  for (size_t c = 0; c < keys.size(); ++c) {
    AppendAsValues(keys[c], fresh_rows.data(), fresh_rows.size(),
                   &merged_[c]);
  }
  morsel_keys_.push_back(std::move(keys));
}

GroupAssignment AssignGroupIds(const std::vector<const Column*>& cols,
                               size_t num_rows) {
  return AssignGroupIdsBased(ZeroBased(cols), num_rows);
}

void AssignGroupIdsSelected(const std::vector<const Column*>& cols,
                            size_t num_dense, const uint32_t* rows, size_t n,
                            GroupAssignment* out) {
  AssignGroupIdsSelectedBased(ZeroBased(cols), num_dense, rows, n, out);
}

GroupAssignment AssignGroupIdsBased(const std::vector<KeyCol>& cols,
                                    size_t num_rows) {
  GroupAssignment out;
  out.gid_of_row.resize(num_rows);  // vdb-lint: allow(naked-reserve) 4B/row gid scratch, morsel- or input-bounded
  if (cols.empty()) {
    std::fill(out.gid_of_row.begin(), out.gid_of_row.end(), 0u);
    if (num_rows > 0) {
      out.rep_row.push_back(0);
      out.group_hash.push_back(kGroupHashSeed & GroupHashMaskForTest());
    }
    return out;
  }

  std::vector<uint64_t> hashes;
  HashGroupKeysBased(cols, num_rows, &hashes);
  const std::vector<KeyLane> lanes = MakeKeyLanes(cols);

  GroupTable table;
  table.Reset(std::min<size_t>(num_rows, 64));
  auto probe = [&](auto rows_eq) {
    table.FindOrInsertBatch(
        hashes.data(), num_rows,
        [&](size_t r, uint32_t g) {
          return rows_eq(lanes.data(), lanes.size(), static_cast<uint32_t>(r),
                         out.rep_row[g]);
        },
        [&](size_t r, uint32_t) {
          out.rep_row.push_back(static_cast<uint32_t>(r));
        },
        out.gid_of_row.data());
  };
  // Each arm passes a distinct lambda type so the probe loop instantiates
  // with the equality inlined (a shared function pointer would indirect-call
  // per row).
  if (AllIntNoNull(lanes)) {
    probe([](const KeyLane* l, size_t nl, uint32_t a, uint32_t b) {
      return IntRowsEqual(l, nl, a, b);
    });
  } else if (AllNumericNoNull(lanes)) {
    probe([](const KeyLane* l, size_t nl, uint32_t a, uint32_t b) {
      return NumRowsEqual(l, nl, a, b);
    });
  } else {
    probe([](const KeyLane* l, size_t nl, uint32_t a, uint32_t b) {
      return LaneRowsEqual(l, nl, a, b);
    });
  }
  out.group_hash = table.TakeGroupHashes();
  return out;
}

void AssignGroupIdsSelectedBased(const std::vector<KeyCol>& cols,
                                 size_t num_dense, const uint32_t* rows,
                                 size_t n, GroupAssignment* out) {
  out->gid_of_row.clear();
  out->rep_row.clear();
  out->group_hash.clear();
  out->gid_of_row.resize(n);  // vdb-lint: allow(naked-reserve) 4B/row gid scratch, morsel- or input-bounded
  if (n == 0) return;
  if (cols.empty()) {
    std::fill(out->gid_of_row.begin(), out->gid_of_row.end(), 0u);
    out->rep_row.push_back(rows[0]);
    out->group_hash.push_back(kGroupHashSeed & GroupHashMaskForTest());
    return;
  }

  std::vector<uint64_t> hashes;
  HashGroupKeysBased(cols, num_dense, &hashes);
  const std::vector<KeyLane> lanes = MakeKeyLanes(cols);

  // Compact the selected rows' hashes so the probe loop streams them.
  std::vector<uint64_t> sel_hashes(n);
  for (size_t k = 0; k < n; ++k) sel_hashes[k] = hashes[rows[k]];

  GroupTable table;
  table.Reset(std::min<size_t>(n, 64));
  auto probe = [&](auto rows_eq) {
    table.FindOrInsertBatch(
        sel_hashes.data(), n,
        [&](size_t k, uint32_t g) {
          return rows_eq(lanes.data(), lanes.size(), rows[k],
                         out->rep_row[g]);
        },
        [&](size_t k, uint32_t) { out->rep_row.push_back(rows[k]); },
        out->gid_of_row.data());
  };
  if (AllIntNoNull(lanes)) {
    probe([](const KeyLane* l, size_t nl, uint32_t a, uint32_t b) {
      return IntRowsEqual(l, nl, a, b);
    });
  } else if (AllNumericNoNull(lanes)) {
    probe([](const KeyLane* l, size_t nl, uint32_t a, uint32_t b) {
      return NumRowsEqual(l, nl, a, b);
    });
  } else {
    probe([](const KeyLane* l, size_t nl, uint32_t a, uint32_t b) {
      return LaneRowsEqual(l, nl, a, b);
    });
  }
  out->group_hash = table.TakeGroupHashes();
}

}  // namespace vdb::engine
