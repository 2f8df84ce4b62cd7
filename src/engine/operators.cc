#include "engine/operators.h"

#include "common/thread_pool.h"
#include "engine/group_ids.h"
#include "engine/join_table.h"
#include "engine/kernels/kernels.h"
#include "engine/vector_eval.h"

namespace vdb::engine {

namespace {

/// Sentinel in a right-side pair list: emit NULLs (left join extension).
constexpr uint32_t kNullRow = RowSet::kNullRightRow;

constexpr uint32_t kInvalidRow = JoinBuildTable::kInvalidRow;

/// A leaf row set over a borrowed table, for the table-reference overloads,
/// whose callers gather before the borrowed table can go away.
RowSet BorrowTable(const Table& t) {
  return RowSet::Of(TablePtr(TablePtr{}, const_cast<Table*>(&t)));
}

/// Composes a two-table join's pairs and gathers every combined column.
Result<TablePtr> GatherAll(RowSet left, RowSet right, JoinPairs pairs,
                           int num_threads, const ExecGuard* guard) {
  auto rows = RowSet::Join(std::move(left), std::move(right),
                           std::move(pairs), num_threads, guard);
  if (!rows.ok()) return rows.status();
  return rows.value().GatherGuarded(num_threads, guard,
                                    rows.value().AllColumns());
}

/// The selection-vector machinery (uint32_t indices, kNullRow sentinel)
/// addresses strictly fewer than 2^32 - 1 rows per input.
Status CheckJoinInputSizes(const RowSet& left, const RowSet& right) {
  constexpr size_t kMaxRows = 0xFFFFFFFEu;
  if (left.num_rows() > kMaxRows || right.num_rows() > kMaxRows) {
    return Status::Unsupported("join inputs above 2^32 - 2 rows");
  }
  return Status::Ok();
}

/// Hashes one side's join keys, morsel-parallel: workers fill disjoint
/// ranges of the preallocated hash/null arrays, so the result is identical
/// at every thread count.
void HashJoinKeysParallel(const std::vector<const Column*>& keys, size_t n,
                          int num_threads, std::vector<uint64_t>* hashes,
                          std::vector<uint8_t>* any_null) {
  hashes->resize(n);  // vdb-lint: allow(naked-reserve) charged by HashJoinPairs (hash_charge)
  any_null->assign(n, 0);
  ThreadPool::Global().ParallelFor(
      n, MorselRows(), num_threads, [&](size_t, size_t begin, size_t end) {
        HashJoinKeyColumns(keys, begin, end, hashes->data(), any_null->data());
      });
}

}  // namespace

Result<JoinPairs> HashJoinPairs(const RowSet& left, const RowSet& right,
                                const std::vector<const Column*>& left_keys,
                                const std::vector<const Column*>& right_keys,
                                sql::JoinType join_type,
                                const sql::Expr* residual, uint64_t rand_seed,
                                int num_threads, const ExecGuard* guard) {
  if (left_keys.empty() || left_keys.size() != right_keys.size()) {
    return Status::Internal("hash join requires matching key lists");
  }
  VDB_RETURN_IF_ERROR(CheckJoinInputSizes(left, right));
  const size_t rn = right.num_rows();
  const size_t ln = left.num_rows();

  // Key-hash scratch for both sides (8B hash + 1B null flag per row),
  // released when the join returns.
  ScopedReservation hash_charge(
      guard, static_cast<uint64_t>(rn + ln) * (sizeof(uint64_t) + 1),
      "join_build_alloc");
  VDB_RETURN_IF_ERROR(hash_charge.status());

  // Build on the right input: vectorized key hashing into the flat
  // open-addressing table (radix-partitioned, see JoinBuildTable).
  std::vector<uint64_t> rhash;
  std::vector<uint8_t> rnull;
  HashJoinKeysParallel(right_keys, rn, num_threads, &rhash, &rnull);
  JoinBuildTable build;
  VDB_RETURN_IF_ERROR(
      build.Build(rhash.data(), rnull.data(), rn, num_threads,
                  [&](uint32_t a, uint32_t b) {
                    return JoinKeysEqual(right_keys, a, right_keys, b);
                  },
                  guard));

  std::vector<uint64_t> lhash;
  std::vector<uint8_t> lnull;
  HashJoinKeysParallel(left_keys, ln, num_threads, &lhash, &lnull);

  // When the build enabled its Bloom pre-probe, run the probe side through
  // the batch prefilter kernel up front: bloom_pass bit lr clear means
  // lhash[lr] is provably absent from the build table, so the probe skips
  // Find() entirely. No false negatives, so pair lists are identical with
  // the filter on or off; the win comes on low-hit-rate probes, where most
  // rows never touch the slot arrays. The decision is adaptive: prefilter a
  // prefix first, and when its pass rate shows probes mostly hit (the
  // filter would be pure overhead on top of unavoidable Find() calls), drop
  // the filter for the rest. The bail-out depends only on the key hashes,
  // so it is deterministic across thread counts.
  kernels::Bitmap bloom_pass;
  bool use_bloom = build.has_bloom() && ln > 0;
  if (use_bloom) {
    constexpr size_t kProbeSample = 16384;  // multiple of 64: whole words
    const size_t sample = std::min(ln, kProbeSample);
    bloom_pass.ResetForOverwrite(ln);
    kernels::Ops().bloom_prefilter(build.bloom_words(), build.bloom_shift(),
                                   lhash.data(), sample, bloom_pass.words());
    size_t passed = 0;
    for (size_t w = 0; w < (sample + 63) / 64; ++w) {
      passed += static_cast<size_t>(__builtin_popcountll(bloom_pass.word(w)));
    }
    if (!JoinBloomForced() && passed * 4 > sample * 3) {
      use_bloom = false;  // > 75% of probes hit anyway
    } else if (ln > sample) {
      kernels::Ops().bloom_prefilter(
          build.bloom_words(), build.bloom_shift(), lhash.data() + sample,
          ln - sample, bloom_pass.words() + sample / 64);
    }
  }

  // First build row matching left row `lr`'s key, else kInvalidRow; further
  // duplicates (ascending build rows) via NextDup.
  auto find_head = [&](size_t lr) -> uint32_t {
    if (lnull[lr] != 0) return kInvalidRow;  // NULL keys never match.
    if (use_bloom && !bloom_pass.Test(lr)) return kInvalidRow;
    return build.Find(lhash[lr], [&](uint32_t br) {
      return JoinKeysEqual(left_keys, lr, right_keys, br);
    });
  };

  const bool left_join = join_type == sql::JoinType::kLeft;
  JoinPairs out;
  SelVector& out_l = out.left;
  SelVector& out_r = out.right;

  if (residual == nullptr) {
    // Probe and emit in left-row-major order. The build table is read-only
    // from here on, so the probe splits into left-row morsels: each morsel
    // emits into its own pair lists, and concatenating the lists in morsel
    // order gives the left-row-major output at every thread count.
    struct ProbeSlot {
      SelVector l, r;
    };
    auto slots_or = ParallelMorselMapStatus<ProbeSlot>(
        ln, num_threads, guard, "join_probe",
        [&](ProbeSlot& slot, size_t range_begin, size_t range_end) {
          for (size_t lr = range_begin; lr < range_end; ++lr) {
            uint32_t rr = find_head(lr);
            if (rr == kInvalidRow) {
              if (left_join) {
                slot.l.push_back(static_cast<uint32_t>(lr));
                slot.r.push_back(kNullRow);
              }
              continue;
            }
            for (; rr != kInvalidRow; rr = build.NextDup(rr)) {
              slot.l.push_back(static_cast<uint32_t>(lr));
              slot.r.push_back(rr);
            }
          }
          return Status::Ok();
        });
    if (!slots_or.ok()) return slots_or.status();
    std::vector<ProbeSlot> slots = std::move(slots_or).ValueOrDie();
    size_t total = 0;
    for (const ProbeSlot& slot : slots) total += slot.l.size();
    // The pair lists live to the end of the statement (they become the
    // join's row set); the charge stays until ResetForStatement.
    VDB_RETURN_IF_ERROR(GuardTryReserve(
        guard, static_cast<uint64_t>(total) * 2 * sizeof(uint32_t),
        "join_probe_alloc"));
    if (slots.size() == 1) {
      out_l = std::move(slots[0].l);
      out_r = std::move(slots[0].r);
    } else {
      out_l.reserve(total);  // vdb-lint: allow(naked-reserve) charged via GuardTryReserve above
      out_r.reserve(total);  // vdb-lint: allow(naked-reserve) charged via GuardTryReserve above
      // Release each slot's lists as soon as they are appended, so the
      // pair lists are never held twice over.
      for (ProbeSlot& slot : slots) {
        out_l.insert(out_l.end(), slot.l.begin(), slot.l.end());
        SelVector().swap(slot.l);
        out_r.insert(out_r.end(), slot.r.begin(), slot.r.end());
        SelVector().swap(slot.r);
      }
    }
  } else {
    // Streaming probe: the residual runs batch-at-a-time over bounded chunks
    // of candidate pairs, so a hot key with a selective residual never
    // materializes the full candidate cross product. Chunk entries with
    // rr == kNullRow mark left rows with no candidates at all (left join).
    // `open_lr` tracks a left row whose candidates may span chunk
    // boundaries; it null-extends once all its candidates have failed. The
    // chunk lists, compaction lists, and the evaluator's combined-schema
    // scratch are all hoisted out of the loop and reused across flushes.
    constexpr size_t kChunk = 1 << 16;
    SelVector chunk_l, chunk_r, real_l, real_r;
    chunk_l.reserve(kChunk);  // vdb-lint: allow(naked-reserve) fixed 64K chunk scratch
    chunk_r.reserve(kChunk);  // vdb-lint: allow(naked-reserve) fixed 64K chunk scratch
    PairPredicateEvaluator eval(left, right, rand_seed, num_threads, guard);
    // Global ordinal of the next candidate pair handed to the evaluator:
    // candidates are enumerated in a deterministic left-row-major order, so
    // the ordinal addresses rand-family draws in the residual.
    uint64_t cand_base = 0;
    int64_t open_lr = -1;
    bool open_matched = false;
    auto emit_null_ext = [&](uint32_t lr) {
      out_l.push_back(lr);
      out_r.push_back(kNullRow);
    };
    auto flush = [&]() -> Status {
      if (chunk_l.empty()) return Status::Ok();
      real_l.clear();
      real_r.clear();
      for (size_t i = 0; i < chunk_l.size(); ++i) {
        if (chunk_r[i] != kNullRow) {
          real_l.push_back(chunk_l[i]);
          real_r.push_back(chunk_r[i]);
        }
      }
      const kernels::Bitmap* pass = nullptr;
      if (!real_l.empty()) {
        auto mask = eval.Eval(*residual, real_l.data(), real_r.data(),
                              real_l.size(), cand_base);
        if (!mask.ok()) return mask.status();
        pass = mask.value();
        cand_base += real_l.size();
      }
      size_t ri = 0;
      for (size_t i = 0; i < chunk_l.size(); ++i) {
        const uint32_t lr = chunk_l[i];
        if (open_lr >= 0 && lr != static_cast<uint32_t>(open_lr)) {
          if (!open_matched && left_join) {
            emit_null_ext(static_cast<uint32_t>(open_lr));
          }
          open_lr = -1;
        }
        if (chunk_r[i] == kNullRow) {
          if (left_join) emit_null_ext(lr);
        } else {
          if (open_lr < 0) {
            open_lr = lr;
            open_matched = false;
          }
          if (pass->Test(ri)) {
            out_l.push_back(lr);
            out_r.push_back(chunk_r[i]);
            open_matched = true;
          }
          ++ri;
        }
      }
      chunk_l.clear();
      chunk_r.clear();
      return Status::Ok();
    };

    for (size_t lr = 0; lr < ln; ++lr) {
      // Chunk-boundary poll: flushes only happen when candidates accumulate,
      // so a mostly-missing probe still polls every kChunk left rows.
      if ((lr & (kChunk - 1)) == 0) {
        VDB_RETURN_IF_ERROR(GuardCheck(guard, "join_probe"));
      }
      uint32_t rr = find_head(lr);
      if (rr == kInvalidRow) {
        if (left_join) {
          chunk_l.push_back(static_cast<uint32_t>(lr));
          chunk_r.push_back(kNullRow);
          if (chunk_l.size() >= kChunk) VDB_RETURN_IF_ERROR(flush());
        }
        continue;
      }
      for (; rr != kInvalidRow; rr = build.NextDup(rr)) {
        chunk_l.push_back(static_cast<uint32_t>(lr));
        chunk_r.push_back(rr);
        if (chunk_l.size() >= kChunk) VDB_RETURN_IF_ERROR(flush());
      }
    }
    VDB_RETURN_IF_ERROR(flush());
    if (open_lr >= 0 && !open_matched && left_join) {
      emit_null_ext(static_cast<uint32_t>(open_lr));
    }
  }

  return out;
}

Result<TablePtr> HashJoin(const Table& left, const Table& right,
                          const std::vector<const Column*>& left_keys,
                          const std::vector<const Column*>& right_keys,
                          sql::JoinType join_type, const sql::Expr* residual,
                          uint64_t rand_seed, int num_threads,
                          const ExecGuard* guard) {
  RowSet l = BorrowTable(left), r = BorrowTable(right);
  auto pairs = HashJoinPairs(l, r, left_keys, right_keys, join_type, residual,
                             rand_seed, num_threads, guard);
  if (!pairs.ok()) return pairs.status();
  return GatherAll(std::move(l), std::move(r), std::move(pairs).ValueOrDie(),
                   num_threads, guard);
}

Result<TablePtr> HashJoin(const Table& left, const Table& right,
                          const std::vector<int>& left_keys,
                          const std::vector<int>& right_keys,
                          sql::JoinType join_type, const sql::Expr* residual,
                          uint64_t rand_seed, int num_threads) {
  std::vector<const Column*> lcols, rcols;
  lcols.reserve(left_keys.size());  // vdb-lint: allow(naked-reserve) key-count bounded
  rcols.reserve(right_keys.size());  // vdb-lint: allow(naked-reserve) key-count bounded
  for (int k : left_keys) lcols.push_back(&left.column(static_cast<size_t>(k)));
  for (int k : right_keys) {
    rcols.push_back(&right.column(static_cast<size_t>(k)));
  }
  return HashJoin(left, right, lcols, rcols, join_type, residual, rand_seed,
                  num_threads);
}

Result<JoinPairs> CrossJoinPairs(const RowSet& left, const RowSet& right,
                                 const sql::Expr* residual, uint64_t rand_seed,
                                 size_t max_pairs, int num_threads,
                                 const ExecGuard* guard) {
  VDB_RETURN_IF_ERROR(CheckJoinInputSizes(left, right));
  const size_t ln = left.num_rows();
  const size_t rn = right.num_rows();
  const size_t pairs = ln * rn;
  if (pairs > max_pairs) {
    return Status::Unsupported(
        "cross join would produce too many candidate pairs: " +
        std::to_string(pairs));
  }

  JoinPairs out;
  SelVector& out_l = out.left;
  SelVector& out_r = out.right;
  if (residual == nullptr) {
    VDB_RETURN_IF_ERROR(GuardTryReserve(
        guard, static_cast<uint64_t>(pairs) * 2 * sizeof(uint32_t),
        "cross_join_alloc"));
    out_l.reserve(pairs);  // vdb-lint: allow(naked-reserve) charged via GuardTryReserve above
    out_r.reserve(pairs);  // vdb-lint: allow(naked-reserve) charged via GuardTryReserve above
    size_t since_poll = 0;
    for (size_t lr = 0; lr < ln; ++lr) {
      // Batch-boundary poll: once per ~64K emitted pairs, never per row.
      if (since_poll >= (size_t{1} << 16) || lr == 0) {
        VDB_RETURN_IF_ERROR(GuardCheck(guard, "cross_join"));
        since_poll = 0;
      }
      since_poll += rn;
      for (size_t rr = 0; rr < rn; ++rr) {
        out_l.push_back(static_cast<uint32_t>(lr));
        out_r.push_back(static_cast<uint32_t>(rr));
      }
    }
    return out;
  }

  // With a residual: evaluate the predicate batch-at-a-time over bounded
  // chunks of the pair space, keeping peak memory proportional to the chunk
  // plus the surviving pairs; the evaluator's scratch is reused per chunk.
  constexpr size_t kChunk = 1 << 16;
  SelVector chunk_l, chunk_r;
  chunk_l.reserve(kChunk);  // vdb-lint: allow(naked-reserve) fixed 64K chunk scratch
  chunk_r.reserve(kChunk);  // vdb-lint: allow(naked-reserve) fixed 64K chunk scratch
  PairPredicateEvaluator eval(left, right, rand_seed, num_threads, guard);
  // Pairs are enumerated row-major, so the running count IS the global pair
  // ordinal lr * rn + rr of the chunk's first pair.
  uint64_t pair_base = 0;
  auto flush = [&]() -> Status {
    if (chunk_l.empty()) return Status::Ok();
    auto mask = eval.Eval(*residual, chunk_l.data(), chunk_r.data(),
                          chunk_l.size(), pair_base);
    if (!mask.ok()) return mask.status();
    const kernels::Bitmap& pass = *mask.value();
    for (size_t w = 0; w < pass.num_words(); ++w) {
      uint64_t word = pass.word(w);
      while (word != 0) {
        const size_t i = w * 64 + static_cast<size_t>(__builtin_ctzll(word));
        out_l.push_back(chunk_l[i]);
        out_r.push_back(chunk_r[i]);
        word &= word - 1;
      }
    }
    pair_base += chunk_l.size();
    chunk_l.clear();
    chunk_r.clear();
    return Status::Ok();
  };
  for (size_t lr = 0; lr < ln; ++lr) {
    for (size_t rr = 0; rr < rn; ++rr) {
      chunk_l.push_back(static_cast<uint32_t>(lr));
      chunk_r.push_back(static_cast<uint32_t>(rr));
      if (chunk_l.size() >= kChunk) VDB_RETURN_IF_ERROR(flush());
    }
  }
  VDB_RETURN_IF_ERROR(flush());
  return out;
}

Result<TablePtr> CrossJoin(const Table& left, const Table& right,
                           const sql::Expr* residual, uint64_t rand_seed,
                           size_t max_pairs, int num_threads,
                           const ExecGuard* guard) {
  RowSet l = BorrowTable(left), r = BorrowTable(right);
  auto pairs = CrossJoinPairs(l, r, residual, rand_seed, max_pairs,
                              num_threads, guard);
  if (!pairs.ok()) return pairs.status();
  return GatherAll(std::move(l), std::move(r), std::move(pairs).ValueOrDie(),
                   num_threads, guard);
}

}  // namespace vdb::engine
