#include "engine/functions.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <cmath>
#include <limits>
#include <string_view>

#include "common/hash.h"
#include "engine/aggregates.h"
#include "engine/kernels/kernels_scalar.h"

namespace vdb::engine {

namespace {

template <typename T, size_t N, typename Key>
constexpr bool SortedBy(const std::array<T, N>& a, Key key) {
  for (size_t i = 1; i < N; ++i) {
    if (!(key(a[i - 1]) < key(a[i]))) return false;
  }
  return true;
}

// Built-in aggregate names, sorted for binary search.
constexpr std::array<std::string_view, 17> kBuiltinAggregates = {
    "approx_count_distinct", "approx_distinct", "approx_median", "avg",
    "count",                 "max",             "median",        "min",
    "ndv",                   "percentile",      "quantile",      "stddev",
    "stddev_samp",           "sum",             "var",           "var_samp",
    "variance",
};
static_assert(SortedBy(kBuiltinAggregates,
                       [](std::string_view n) { return n; }),
              "kBuiltinAggregates must stay sorted");

constexpr size_t kVariadic = std::numeric_limits<size_t>::max();

struct ScalarEntry {
  std::string_view name;
  ScalarFn fn;
  size_t min_args;
  size_t max_args;
};

// Every built-in scalar name, aliases included, sorted for binary search.
// The one place a name maps to an id; the rand family here must match
// sql::IsRandFunctionExpr (call-site numbering happens before bind).
constexpr std::array<ScalarEntry, 37> kScalarFunctions = {{
    {"abs", ScalarFn::kAbs, 1, 1},
    {"cast_double", ScalarFn::kToDouble, 1, 1},
    {"cast_int", ScalarFn::kToInt, 1, 1},
    {"ceil", ScalarFn::kCeil, 1, 1},
    {"ceiling", ScalarFn::kCeil, 1, 1},
    {"coalesce", ScalarFn::kCoalesce, 0, kVariadic},
    {"concat", ScalarFn::kConcat, 0, kVariadic},
    {"crc32", ScalarFn::kCrc32, 1, 1},
    {"exp", ScalarFn::kExp, 1, 1},
    {"floor", ScalarFn::kFloor, 1, 1},
    {"greatest", ScalarFn::kGreatest, 1, kVariadic},
    {"hash64", ScalarFn::kHash64, 1, 1},
    {"if", ScalarFn::kIf, 3, 3},
    {"least", ScalarFn::kLeast, 1, kVariadic},
    {"length", ScalarFn::kLength, 1, 1},
    {"ln", ScalarFn::kLn, 1, 1},
    {"log", ScalarFn::kLn, 1, 1},
    {"lower", ScalarFn::kLower, 1, 1},
    {"mod", ScalarFn::kMod, 2, 2},
    {"month", ScalarFn::kMonth, 1, 1},
    {"nullif", ScalarFn::kNullif, 2, 2},
    {"pow", ScalarFn::kPower, 2, 2},
    {"power", ScalarFn::kPower, 2, 2},
    {"rand", ScalarFn::kRand, 0, 0},
    {"rand_poisson", ScalarFn::kRandPoisson, 0, 0},
    {"random", ScalarFn::kRand, 0, 0},
    {"round", ScalarFn::kRound, 1, 2},
    {"sign", ScalarFn::kSign, 1, 1},
    {"sqrt", ScalarFn::kSqrt, 1, 1},
    {"substr", ScalarFn::kSubstr, 2, 3},
    {"substring", ScalarFn::kSubstr, 2, 3},
    {"to_double", ScalarFn::kToDouble, 1, 1},
    {"to_int", ScalarFn::kToInt, 1, 1},
    {"unit_hash", ScalarFn::kUnitHash, 1, 1},
    {"upper", ScalarFn::kUpper, 1, 1},
    {"verdict_hash", ScalarFn::kUnitHash, 1, 1},
    {"year", ScalarFn::kYear, 1, 1},
}};
static_assert(SortedBy(kScalarFunctions,
                       [](const ScalarEntry& e) { return e.name; }),
              "kScalarFunctions must stay sorted");

bool AnyNull(const std::vector<Value>& args) {
  for (const auto& a : args) {
    if (a.is_null()) return true;
  }
  return false;
}

}  // namespace

bool IsBuiltinAggregateFunction(const std::string& name) {
  return std::binary_search(kBuiltinAggregates.begin(),
                            kBuiltinAggregates.end(), std::string_view(name));
}

bool IsAggregateFunction(const std::string& name) {
  return IsBuiltinAggregateFunction(name) ||
         AggregateRegistry::Global().Has(name);
}

Status ResolveScalarFunction(sql::Expr* call) {
  const std::string_view name(call->name);
  auto it = std::lower_bound(
      kScalarFunctions.begin(), kScalarFunctions.end(), name,
      [](const ScalarEntry& e, std::string_view n) { return e.name < n; });
  if (it == kScalarFunctions.end() || it->name != name) {
    return Status::Unsupported("unknown function: " + call->name);
  }
  if (call->args.size() < it->min_args || call->args.size() > it->max_args) {
    return Status::InvalidArgument("wrong argument count for " + call->name);
  }
  call->scalar_fn = static_cast<int>(it->fn);
  return Status::Ok();
}

bool LikeMatch(const std::string& text, const std::string& pattern) {
  // Iterative two-pointer wildcard matcher (% = any run, _ = any char).
  size_t t = 0, p = 0, star_p = std::string::npos, star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '_' || pattern[p] == text[t])) {
      ++t;
      ++p;
    } else if (p < pattern.size() && pattern[p] == '%') {
      star_p = p++;
      star_t = t;
    } else if (star_p != std::string::npos) {
      p = star_p + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

Result<Value> ApplyBinaryOp(sql::BinaryOp op, const Value& l, const Value& r) {
  using sql::BinaryOp;
  if (l.is_null() || r.is_null()) return Value::Null();

  switch (op) {
    case BinaryOp::kAdd:
    case BinaryOp::kSub:
    case BinaryOp::kMul: {
      const kernels::ArithOp kop =
          op == BinaryOp::kAdd
              ? kernels::ArithOp::kAdd
              : (op == BinaryOp::kSub ? kernels::ArithOp::kSub
                                      : kernels::ArithOp::kMul);
      if (l.type() == TypeId::kInt64 && r.type() == TypeId::kInt64) {
        return Value::Int(
            kernels::scalar::ArithApply(kop, l.AsInt(), r.AsInt()));
      }
      return Value::Double(
          kernels::scalar::ArithApply(kop, l.AsDouble(), r.AsDouble()));
    }
    case BinaryOp::kDiv: {
      const double b = r.AsDouble();
      if (b == 0.0) return Value::Null();
      return Value::Double(l.AsDouble() / b);
    }
    case BinaryOp::kMod: {
      const int64_t b = r.AsInt();
      if (b == 0) return Value::Null();
      return Value::Int(IntMod(l.AsInt(), b));
    }
    case BinaryOp::kEq: return Value::Bool(l.Compare(r) == 0);
    case BinaryOp::kNe: return Value::Bool(l.Compare(r) != 0);
    case BinaryOp::kLt: return Value::Bool(l.Compare(r) < 0);
    case BinaryOp::kLe: return Value::Bool(l.Compare(r) <= 0);
    case BinaryOp::kGt: return Value::Bool(l.Compare(r) > 0);
    case BinaryOp::kGe: return Value::Bool(l.Compare(r) >= 0);
    case BinaryOp::kLike:
      return Value::Bool(LikeMatch(l.ToString(), r.ToString()));
    default:
      return Status::Internal("unhandled binary op");
  }
}

Value NegateValue(const Value& v) {
  if (v.is_null()) return Value::Null();
  if (v.type() == TypeId::kInt64) {
    // Unsigned negation: defined two's-complement wrap (-INT64_MIN ==
    // INT64_MIN), matching the engine's uint64-wrap arithmetic kernels.
    return Value::Int(
        static_cast<int64_t>(0ull - static_cast<uint64_t>(v.AsInt())));
  }
  return Value::Double(-v.AsDouble());
}

Result<Value> CallScalarFunction(ScalarFn fn, const std::vector<Value>& args,
                                 const RandAddr& rand_addr) {
  // The rand family, coalesce, if and nullif see NULL arguments; every later
  // id is NULL in -> NULL out.
  if (fn > ScalarFn::kNullif && AnyNull(args)) return Value::Null();

  switch (fn) {
    case ScalarFn::kUnresolved:
      return Status::Internal("scalar function call was not resolved at bind");
    // Row-addressed: the value depends only on (query seed, row id, call
    // site), so this spec and the batch rand kernel in vector_eval.cc agree
    // bit for bit.
    case ScalarFn::kRand:
      return Value::Double(RandAt(rand_addr));
    case ScalarFn::kRandPoisson:
      // Poisson(1) draw; used by SQL formulations of consolidated bootstrap
      // (each tuple's multiplicity within one resample).
      return Value::Int(PoissonOneFromUniform(RandAt(rand_addr)));
    case ScalarFn::kCoalesce:
      for (const auto& a : args) {
        if (!a.is_null()) return a;
      }
      return Value::Null();
    case ScalarFn::kIf:
      return (!args[0].is_null() && args[0].AsBool()) ? args[1] : args[2];
    case ScalarFn::kNullif:
      if (!args[0].is_null() && !args[1].is_null() &&
          args[0].Equals(args[1])) {
        return Value::Null();
      }
      return args[0];
    case ScalarFn::kFloor:
      return Value::Int(SaturatingToInt64(std::floor(args[0].AsDouble())));
    case ScalarFn::kCeil:
      return Value::Int(SaturatingToInt64(std::ceil(args[0].AsDouble())));
    case ScalarFn::kAbs:
      if (args[0].type() == TypeId::kInt64) {
        // Unsigned negation: defined wrap on INT64_MIN (abs(INT64_MIN) ==
        // INT64_MIN), matching NegateValue and the arithmetic kernels.
        const int64_t x = args[0].AsInt();
        return Value::Int(
            x < 0 ? static_cast<int64_t>(0ull - static_cast<uint64_t>(x)) : x);
      }
      return Value::Double(std::abs(args[0].AsDouble()));
    case ScalarFn::kSqrt:
      return Value::Double(std::sqrt(args[0].AsDouble()));
    case ScalarFn::kExp:
      return Value::Double(std::exp(args[0].AsDouble()));
    case ScalarFn::kLn:
      return Value::Double(std::log(args[0].AsDouble()));
    case ScalarFn::kPower:
      return Value::Double(std::pow(args[0].AsDouble(), args[1].AsDouble()));
    case ScalarFn::kMod: {
      const int64_t d = args[1].AsInt();
      if (d == 0) return Value::Null();
      return Value::Int(IntMod(args[0].AsInt(), d));
    }
    case ScalarFn::kRound: {
      const double x = args[0].AsDouble();
      if (args.size() == 2) {
        const double scale = std::pow(10.0, args[1].AsDouble());
        return Value::Double(std::round(x * scale) / scale);
      }
      // std::round halves away from zero, as llround does, but leaves the
      // out-of-range cases to the saturating conversion.
      return Value::Int(SaturatingToInt64(std::round(x)));
    }
    case ScalarFn::kSign: {
      const double x = args[0].AsDouble();
      return Value::Int(x > 0 ? 1 : (x < 0 ? -1 : 0));
    }
    case ScalarFn::kGreatest:
    case ScalarFn::kLeast: {
      Value best = args[0];
      for (const auto& a : args) {
        const int c = a.Compare(best);
        if (fn == ScalarFn::kGreatest ? c > 0 : c < 0) best = a;
      }
      return best;
    }
    // Uniform hash to [0, 1): the paper's "hash function (e.g., md5, crc32)"
    // requirement for universe samples.
    case ScalarFn::kUnitHash:
      return Value::Double(HashUnit(args[0]));
    case ScalarFn::kCrc32:
      return Value::Int(Crc32(args[0].ToString()));
    case ScalarFn::kHash64:
      return Value::Int(static_cast<int64_t>(HashValue(args[0]) >> 1));
    case ScalarFn::kLength:
      return Value::Int(static_cast<int64_t>(args[0].ToString().size()));
    case ScalarFn::kUpper:
    case ScalarFn::kLower: {
      std::string s = args[0].ToString();
      if (fn == ScalarFn::kUpper) {
        std::transform(s.begin(), s.end(), s.begin(),
                       [](unsigned char c) { return std::toupper(c); });
      } else {
        std::transform(s.begin(), s.end(), s.begin(),
                       [](unsigned char c) { return std::tolower(c); });
      }
      return Value::String(std::move(s));
    }
    case ScalarFn::kSubstr: {
      std::string s = args[0].ToString();
      int64_t start = args[1].AsInt();  // 1-based
      if (start < 1) start = 1;
      if (static_cast<size_t>(start) > s.size()) return Value::String("");
      const size_t from = static_cast<size_t>(start - 1);
      const size_t len =
          args.size() == 3
              ? static_cast<size_t>(std::max<int64_t>(0, args[2].AsInt()))
              : std::string::npos;
      return Value::String(s.substr(from, len));
    }
    case ScalarFn::kConcat: {
      std::string out;
      for (const auto& a : args) out += a.ToString();
      return Value::String(std::move(out));
    }
    // Dates are stored as yyyymmdd integers throughout the workloads.
    case ScalarFn::kYear:
      return Value::Int(args[0].AsInt() / 10000);
    case ScalarFn::kMonth:
      return Value::Int((args[0].AsInt() / 100) % 100);
    case ScalarFn::kToDouble:
      return Value::Double(args[0].AsDouble());
    case ScalarFn::kToInt:
      return Value::Int(args[0].AsInt());
  }
  return Status::Internal("unhandled scalar function id");
}

}  // namespace vdb::engine
