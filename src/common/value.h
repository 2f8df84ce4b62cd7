// Dynamically-typed scalar value used by the expression evaluator's
// per-value paths (CallScalarFunction, mixed-type lanes) and the result-set
// boundary. Columns store data natively (see engine/column.h); Value is only
// materialized per-cell during expression evaluation and result-set access.

#ifndef VDB_COMMON_VALUE_H_
#define VDB_COMMON_VALUE_H_

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

namespace vdb {

/// Runtime type of a Value or a Column.
enum class TypeId : uint8_t {
  kNull = 0,
  kBool,
  kInt64,
  kDouble,
  kString,
};

/// Returns "NULL", "BOOLEAN", "BIGINT", "DOUBLE" or "VARCHAR".
const char* TypeName(TypeId t);

/// The one double -> int64 conversion: Value::AsInt and the SQL functions
/// floor, ceil, round(x) and to_int all go through it. It truncates toward
/// zero and saturates: values at or beyond +-2^63, infinities included,
/// clamp to INT64_MAX / INT64_MIN, and NaN converts to 0 (the rule of Java's
/// and Rust's float-to-integer casts). A plain static_cast is undefined
/// behaviour for all three.
inline int64_t SaturatingToInt64(double d) {
  constexpr double kTwo63 = 9223372036854775808.0;  // 2^63, exact
  if (std::isnan(d)) return 0;
  if (d >= kTwo63) return std::numeric_limits<int64_t>::max();
  if (d < -kTwo63) return std::numeric_limits<int64_t>::min();
  return static_cast<int64_t>(d);
}

/// A nullable scalar. Numeric types promote Int64 -> Double in arithmetic.
class Value {
 public:
  Value() : type_(TypeId::kNull) {}

  static Value Null() { return Value(); }
  static Value Bool(bool b) {
    Value v;
    v.type_ = TypeId::kBool;
    v.i_ = b ? 1 : 0;
    return v;
  }
  static Value Int(int64_t i) {
    Value v;
    v.type_ = TypeId::kInt64;
    v.i_ = i;
    return v;
  }
  static Value Double(double d) {
    Value v;
    v.type_ = TypeId::kDouble;
    v.d_ = d;
    return v;
  }
  static Value String(std::string s) {
    Value v;
    v.type_ = TypeId::kString;
    v.s_ = std::move(s);
    return v;
  }

  TypeId type() const { return type_; }
  bool is_null() const { return type_ == TypeId::kNull; }

  bool AsBool() const { return i_ != 0; }
  /// Doubles convert by SaturatingToInt64.
  int64_t AsInt() const {
    return type_ == TypeId::kDouble ? SaturatingToInt64(d_) : i_;
  }
  /// Numeric coercion: Int64/Bool widen to double; NULL is 0.0.
  double AsDouble() const {
    if (type_ == TypeId::kDouble) return d_;
    return static_cast<double>(i_);
  }
  const std::string& AsString() const { return s_; }

  bool is_numeric() const {
    return type_ == TypeId::kInt64 || type_ == TypeId::kDouble ||
           type_ == TypeId::kBool;
  }

  /// Three-way comparison following SQL semantics for non-null operands:
  /// numerics compare numerically, strings lexicographically. Returns
  /// negative / zero / positive. Comparing incompatible types orders by type.
  int Compare(const Value& other) const;

  /// SQL equality (both non-null). NULLs never compare equal here; callers
  /// handle NULL propagation.
  bool Equals(const Value& other) const { return Compare(other) == 0; }

  /// Display form: "NULL", integer, shortest-round-trip double, raw string.
  std::string ToString() const;

 private:
  TypeId type_;
  int64_t i_ = 0;
  double d_ = 0.0;
  std::string s_;
};

}  // namespace vdb

#endif  // VDB_COMMON_VALUE_H_
