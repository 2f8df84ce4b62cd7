// Runtime-dispatched SIMD kernel layer.
//
// One dispatch table (KernelOps) of data-parallel primitives behind the
// engine's hot loops: Int64/Double comparison lanes emitting row bitmaps,
// Int64/Double arithmetic lanes, NULL byte-mask -> bitmap conversion, the
// row-addressed CounterRandom draw over sequential row ids, the multi-column
// join/group key hash mix, and the join Bloom pre-probe. The scalar
// implementations are ALWAYS built and are the semantic reference; an AVX2
// table is compiled only when the toolchain supports -mavx2 (CMake gates the
// one file) and is selected at startup iff the CPU reports AVX2.
//
// Dispatch contract:
//  - The level is detected once (CPUID via __builtin_cpu_supports) and can be
//    forced DOWN by the VDB_SIMD environment variable ("scalar" | "avx2") or
//    by SetSimdLevelForTest(); requests above the detected level clamp to it,
//    so tests can always ask for kAvx2 and silently run scalar on old boxes.
//  - Every kernel is BIT-IDENTICAL across levels: equal inputs produce equal
//    output bytes at every level, for every n (including n % 64 != 0 tails
//    and n == 0). The differential fuzz in tests/test_vector_eval.cc and the
//    kernel units in tests/test_kernels.cc enforce this; the scalar-forced CI
//    leg keeps the fallback from rotting. See README.md in this directory
//    for the rules a new kernel must follow.
//  - SetSimdLevelForTest stores the level and ops table through atomics
//    (kernels.cc), so idle pool workers may read concurrently; call it
//    between statements so one statement never mixes levels.
//
// Semantics pinned by the scalar reference (kernels must not drift):
//  - Double comparisons are phrased from < and > only (the engine's
//    three-way convention): NaN operands land in the cmp == 0 bucket, so
//    kEq(NaN, x) is TRUE — matching Value::Compare / ThreeWayD.
//  - Int64 add/sub/mul wrap mod 2^64 (computed in uint64_t; two's-complement
//    wrap, the same thing AVX2's paddq/psubq/pmullq-emulation does).
//  - Output bitmaps are written wholesale: every word of the destination is
//    stored, and tail bits beyond n are zero.

#ifndef VDB_ENGINE_KERNELS_KERNELS_H_
#define VDB_ENGINE_KERNELS_KERNELS_H_

#include <cstddef>
#include <cstdint>

namespace vdb::engine::kernels {

enum class SimdLevel : int { kScalar = 0, kAvx2 = 1 };

/// Best level this binary + CPU supports (computed once).
SimdLevel DetectedSimdLevel();

/// Level the dispatch table currently runs at.
SimdLevel CurrentSimdLevel();

/// Forces the dispatch level; clamps to DetectedSimdLevel(). Test/bench hook
/// (and the VDB_SIMD env override's mechanism): both paths stay CI-covered.
void SetSimdLevelForTest(SimdLevel level);

/// "scalar" / "avx2".
const char* SimdLevelName(SimdLevel level);

/// Comparison operator of a compare kernel. The engine's NaN convention is
/// baked in (see file header); for Int64 these are the native relations.
enum class CmpOp : int { kEq = 0, kNe, kLt, kLe, kGt, kGe };

/// Mirrors the operator across swapped operands: cmp(c, x) == Mirror(cmp)(x, c)
/// under the three-way formulation (valid for NaN too), so const-vs-vector
/// shapes reuse the vector-vs-const kernels.
inline CmpOp MirrorCmp(CmpOp op) {
  switch (op) {
    case CmpOp::kLt: return CmpOp::kGt;
    case CmpOp::kLe: return CmpOp::kGe;
    case CmpOp::kGt: return CmpOp::kLt;
    case CmpOp::kGe: return CmpOp::kLe;
    default: return op;  // kEq / kNe are symmetric
  }
}

enum class ArithOp : int { kAdd = 0, kSub, kMul };

/// The dispatch table. `bits` outputs are row bitmaps (bitmap.h layout:
/// little-endian bit per row, zeroed tail), sized Bitmap::WordsFor(n) words.
/// All pointers may be unaligned; vector/vector operands must not overlap
/// outputs. n == 0 is a no-op.
struct KernelOps {
  // Comparisons: bit k of `bits` = cmp(a[k], b[k]) (vv) or cmp(a[k], c) (vc).
  void (*cmp_i64_vv)(CmpOp op, const int64_t* a, const int64_t* b, size_t n,
                     uint64_t* bits);
  void (*cmp_i64_vc)(CmpOp op, const int64_t* a, int64_t c, size_t n,
                     uint64_t* bits);
  void (*cmp_f64_vv)(CmpOp op, const double* a, const double* b, size_t n,
                     uint64_t* bits);
  void (*cmp_f64_vc)(CmpOp op, const double* a, double c, size_t n,
                     uint64_t* bits);

  // Arithmetic lanes; every element is computed (NULL masking is the
  // caller's job — payloads at NULL rows are never observed but must still
  // be level-identical, which computing unconditionally guarantees).
  void (*arith_i64_vv)(ArithOp op, const int64_t* a, const int64_t* b,
                       size_t n, int64_t* out);
  void (*arith_i64_vc)(ArithOp op, const int64_t* a, int64_t c, size_t n,
                       int64_t* out);
  void (*arith_i64_cv)(ArithOp op, int64_t c, const int64_t* b, size_t n,
                       int64_t* out);
  void (*arith_f64_vv)(ArithOp op, const double* a, const double* b, size_t n,
                       double* out);
  void (*arith_f64_vc)(ArithOp op, const double* a, double c, size_t n,
                       double* out);
  void (*arith_f64_cv)(ArithOp op, double c, const double* b, size_t n,
                       double* out);

  // Bit k of `bits` = (bytes[k] != 0): NULL byte-mask -> bitmap conversion.
  void (*bytes_nonzero_bits)(const uint8_t* bytes, size_t n, uint64_t* bits);

  // out[k] = CounterRandomDouble(seed, row0 + k, site): the rand-family
  // batch kernel over sequential physical row ids (4-lane mix under AVX2).
  void (*rand_f64_seq)(uint64_t seed, uint64_t row0, uint64_t site, size_t n,
                       double* out);

  // h[k] = MixInto(h[k], nulls[k] ? kNullHash : HashMix64(data[k])): the
  // Int64 lane of multi-column group/join key hashing (engine/group_ids.cc
  // owns the constants and passes null_hash in). `nulls` may be null.
  void (*hash_mix_i64)(uint64_t* h, const int64_t* data, const uint8_t* nulls,
                       uint64_t null_hash, size_t n);

  // Join Bloom pre-probe: bit k = MaybeContains(hashes[k]) against a blocked
  // Bloom filter of 2^(64-shift) words where key h sets bits
  // (h>>38)&63 and (h>>44)&63 of word h>>shift (gathered under AVX2).
  void (*bloom_prefilter)(const uint64_t* bloom_words, int shift,
                          const uint64_t* hashes, size_t n, uint64_t* bits);

  // out[k] = src[rows[k]]: the materialization gather lane behind
  // Column::AppendSelected / RowView::GatherColumn. Row indices are uint32
  // physical rows; vector gathers must zero-extend them to 64-bit lanes
  // (i32-indexed gathers sign-extend and would misread rows >= 2^31).
  void (*gather_i64)(const int64_t* src, const uint32_t* rows, size_t n,
                     int64_t* out);
  void (*gather_f64)(const double* src, const uint32_t* rows, size_t n,
                     double* out);

  // Scatter-accumulate for the flat SoA aggregation sink: for each k in row
  // order, skipping NULL rows, Neumaier-add the value at row (rows ? rows[k]
  // : k) into group gids[k]'s (sums, comps) lanes. `rows` indexes x/nulls
  // (the bitmap-selected form); gids is always parallel to k. Optional
  // per-group side outputs: any[g] = 1 on each non-null add (SUM's NULL-
  // if-empty flag), ns[g] incremented per non-null add (AVG's divisor).
  // The (sum, comp) recurrence is a loop-carried dependency per group, so
  // accumulation order IS the semantics: kernels must add strictly in k
  // order for the engine's bit-identity contract to hold.
  void (*scatter_sum_i64)(const int64_t* x, const uint8_t* nulls,
                          const uint32_t* rows, const uint32_t* gids, size_t n,
                          double* sums, double* comps, uint8_t* any,
                          int64_t* ns);
  void (*scatter_sum_f64)(const double* x, const uint8_t* nulls,
                          const uint32_t* rows, const uint32_t* gids, size_t n,
                          double* sums, double* comps, uint8_t* any,
                          int64_t* ns);
};

/// The table for the current dispatch level.
const KernelOps& Ops();

}  // namespace vdb::engine::kernels

#endif  // VDB_ENGINE_KERNELS_KERNELS_H_
