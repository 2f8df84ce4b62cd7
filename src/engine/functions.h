// Scalar function evaluation and aggregate-function identification.
//
// The set mirrors what the paper requires of the underlying database (§2.1):
// rand(), a uniform hash function, floor(), case expressions, and the usual
// math/string builtins.

#ifndef VDB_ENGINE_FUNCTIONS_H_
#define VDB_ENGINE_FUNCTIONS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "common/value.h"
#include "sql/ast.h"

namespace vdb::engine {

/// True if `name` (lowercase) is an aggregate function understood by the
/// engine (count, sum, avg, min, max, var/variance, stddev, quantile, median,
/// approx_median, ndv, approx_distinct, or a registered UDA). Built-in names
/// are answered from a static table; only other names consult (and lock)
/// the UDA registry.
bool IsAggregateFunction(const std::string& name);

/// True if `name` (lowercase) is a built-in aggregate (not a UDA).
bool IsBuiltinAggregateFunction(const std::string& name);

/// Built-in scalar functions. The bind step resolves each scalar call's
/// name (aliases included) to one of these ids exactly once
/// (ResolveScalarFunction) and stores it on the node (sql::Expr::scalar_fn);
/// CallScalarFunction and the batch kernels dispatch on the id and never
/// compare names per row. Every id after kNullif is NULL in -> NULL out.
enum class ScalarFn : uint8_t {
  kUnresolved = 0,
  kRand,
  kRandPoisson,
  kCoalesce,
  kIf,
  kNullif,
  kFloor,
  kCeil,
  kAbs,
  kSqrt,
  kExp,
  kLn,
  kPower,
  kMod,
  kRound,
  kSign,
  kGreatest,
  kLeast,
  kUnitHash,
  kCrc32,
  kHash64,
  kLength,
  kUpper,
  kLower,
  kSubstr,
  kConcat,
  kYear,
  kMonth,
  kToDouble,
  kToInt,
};

/// The id the bind step stored on a scalar call node.
inline ScalarFn BoundScalarFn(const sql::Expr& call) {
  return static_cast<ScalarFn>(call.scalar_fn);
}

/// Resolves one scalar call node (kFunction, neither aggregate nor window):
/// looks its name up, checks the argument count, and stores the id on the
/// node. Unknown names produce kUnsupported; a wrong argument count produces
/// kInvalidArgument. Idempotent.
Status ResolveScalarFunction(sql::Expr* call);

/// Evaluates a resolved scalar builtin over its evaluated arguments (their
/// count was checked at resolve time). `rand_addr` addresses rand-family
/// draws — each is a pure function of (query seed, row id, call site),
/// never a stream draw (common/random.h). kUnresolved is an internal error.
Result<Value> CallScalarFunction(ScalarFn fn, const std::vector<Value>& args,
                                 const RandAddr& rand_addr);

/// Combines two already-evaluated operands of a non-logical binary operator
/// (arithmetic, comparison, LIKE) with NULL propagation: the per-value
/// semantics of the batch evaluator's mixed-type lanes. Int64 add/sub/mul
/// wrap mod 2^64 through the typed lanes' kernels::scalar::ArithApply.
Result<Value> ApplyBinaryOp(sql::BinaryOp op, const Value& l, const Value& r);

/// Unary minus with NULL propagation (Int64 stays integral and wraps).
Value NegateValue(const Value& v);

/// Integer remainder for a nonzero divisor (callers map b == 0 to NULL).
/// b == -1 yields 0, the exact remainder; `INT64_MIN % -1` itself traps.
inline int64_t IntMod(int64_t a, int64_t b) { return b == -1 ? 0 : a % b; }

/// SQL LIKE with % and _ wildcards.
bool LikeMatch(const std::string& text, const std::string& pattern);

}  // namespace vdb::engine

#endif  // VDB_ENGINE_FUNCTIONS_H_
