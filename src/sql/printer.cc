#include "sql/printer.h"

#include <charconv>
#include <cmath>
#include <limits>

#include "sql/lexer.h"

namespace vdb::sql {

namespace {

bool IsAsciiLetter(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}

/// True unless `ident` lexes back as the same bare identifier: a letter or
/// '_' then letters, digits and '_', and no reserved word.
bool NeedsQuote(const std::string& ident) {
  if (ident.empty()) return true;
  if (!IsAsciiLetter(ident[0]) && ident[0] != '_') return true;
  bool letters_only = true;
  for (char c : ident) {
    if (IsAsciiLetter(c)) continue;
    if (c != '_' && (c < '0' || c > '9')) return true;
    letters_only = false;
  }
  // Reserved words are two to eight letters; most names are not.
  if (!letters_only || ident.size() < 2 || ident.size() > 8) return false;
  std::string lower = ident;
  for (char& c : lower) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return IsReservedWord(lower);
}

std::string Ident(const std::string& name, const PrintOptions& o) {
  if (!o.always_quote_identifiers && !NeedsQuote(name)) return name;
  const char q = o.identifier_quote;
  std::string out(1, q);
  for (char c : name) {
    if (c == q) out.push_back(q);  // the lexer reads a doubled quote as one
    out.push_back(c);
  }
  out.push_back(q);
  return out;
}

/// A numeric literal's text. A negative value prints as a parenthesized
/// negation, the form the parser reads it back as, so the text is stable
/// under reprinting and never glues a '-' onto a preceding one ("--" starts
/// a comment). INT64_MIN's magnitude is read back only after a '-', which
/// the parser folds into the literal.
std::string NumericLiteral(const Value& v) {
  if (v.type() == TypeId::kDouble) {
    const double d = v.AsDouble();
    return std::signbit(d) && !std::isnan(d) ? "(-" + PrintDouble(-d) + ")"
                                             : PrintDouble(d);
  }
  const int64_t i = v.AsInt();
  if (i == std::numeric_limits<int64_t>::min()) {
    return "(-9223372036854775808)";
  }
  return i < 0 ? "(-" + std::to_string(-i) + ")" : std::to_string(i);
}

std::string EscapeString(const std::string& s) {
  std::string out = "'";
  for (char c : s) {
    if (c == '\'') out += "''";
    else out.push_back(c);
  }
  out += "'";
  return out;
}

const char* BinOpText(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAdd: return "+";
    case BinaryOp::kSub: return "-";
    case BinaryOp::kMul: return "*";
    case BinaryOp::kDiv: return "/";
    case BinaryOp::kMod: return "%";
    case BinaryOp::kEq: return "=";
    case BinaryOp::kNe: return "<>";
    case BinaryOp::kLt: return "<";
    case BinaryOp::kLe: return "<=";
    case BinaryOp::kGt: return ">";
    case BinaryOp::kGe: return ">=";
    case BinaryOp::kAnd: return "and";
    case BinaryOp::kOr: return "or";
    case BinaryOp::kLike: return "like";
  }
  return "?";
}

std::string ExprText(const Expr& e, const PrintOptions& o);
std::string SelectText(const SelectStmt& s, const PrintOptions& o);

std::string TableRefText(const TableRef& t, const PrintOptions& o) {
  switch (t.kind) {
    case TableRef::Kind::kBase: {
      std::string out = Ident(t.table_name, o);
      if (!t.alias.empty()) out += " as " + Ident(t.alias, o);
      return out;
    }
    case TableRef::Kind::kDerived:
      return "(" + SelectText(*t.derived, o) + ") as " + Ident(t.alias, o);
    case TableRef::Kind::kJoin: {
      std::string out = TableRefText(*t.left, o);
      switch (t.join_type) {
        case JoinType::kInner: out += " inner join "; break;
        case JoinType::kLeft: out += " left join "; break;
        case JoinType::kCross: out += " cross join "; break;
      }
      // Joins chain to the left; a join on the right is parenthesized.
      if (t.right->kind == TableRef::Kind::kJoin) {
        out += "(" + TableRefText(*t.right, o) + ")";
      } else {
        out += TableRefText(*t.right, o);
      }
      if (t.on) out += " on " + ExprText(*t.on, o);
      return out;
    }
  }
  return "?";
}

std::string ExprText(const Expr& e, const PrintOptions& o) {
  switch (e.kind) {
    case ExprKind::kLiteral:
      if (e.literal.type() == TypeId::kString) {
        return EscapeString(e.literal.AsString());
      }
      if (e.literal.type() == TypeId::kDouble ||
          e.literal.type() == TypeId::kInt64) {
        return NumericLiteral(e.literal);
      }
      return e.literal.ToString();
    case ExprKind::kColumnRef:
      if (!e.qualifier.empty()) {
        return Ident(e.qualifier, o) + "." + Ident(e.name, o);
      }
      return Ident(e.name, o);
    case ExprKind::kStar:
      if (!e.qualifier.empty()) return Ident(e.qualifier, o) + ".*";
      return "*";
    case ExprKind::kUnary:
      if (e.unary_op == UnaryOp::kNot) {
        return "(not " + ExprText(*e.args[0], o) + ")";
      }
      return "(-" + ExprText(*e.args[0], o) + ")";
    case ExprKind::kBinary:
      return "(" + ExprText(*e.args[0], o) + " " + BinOpText(e.binary_op) +
             " " + ExprText(*e.args[1], o) + ")";
    case ExprKind::kFunction: {
      std::string out = e.name + "(";
      if (e.distinct) out += "distinct ";
      for (size_t i = 0; i < e.args.size(); ++i) {
        if (i) out += ", ";
        out += ExprText(*e.args[i], o);
      }
      out += ")";
      if (e.is_window) {
        out += " over (";
        if (!e.partition_by.empty()) {
          out += "partition by ";
          for (size_t i = 0; i < e.partition_by.size(); ++i) {
            if (i) out += ", ";
            out += ExprText(*e.partition_by[i], o);
          }
        }
        out += ")";
      }
      return out;
    }
    case ExprKind::kCase: {
      // A CASE without a WHEN is its ELSE value (the grammar needs a WHEN).
      if (e.case_whens.empty()) {
        return e.case_else ? ExprText(*e.case_else, o) : "NULL";
      }
      std::string out = "case";
      for (size_t i = 0; i < e.case_whens.size(); ++i) {
        out += " when " + ExprText(*e.case_whens[i], o) + " then " +
               ExprText(*e.case_thens[i], o);
      }
      if (e.case_else) out += " else " + ExprText(*e.case_else, o);
      out += " end";
      return out;
    }
    case ExprKind::kIsNull:
      return "(" + ExprText(*e.args[0], o) +
             (e.negated ? " is not null)" : " is null)");
    case ExprKind::kInList: {
      std::string out = "(" + ExprText(*e.args[0], o);
      out += e.negated ? " not in (" : " in (";
      for (size_t i = 1; i < e.args.size(); ++i) {
        if (i > 1) out += ", ";
        out += ExprText(*e.args[i], o);
      }
      out += "))";
      return out;
    }
    case ExprKind::kBetween: {
      std::string out = "(" + ExprText(*e.args[0], o);
      if (e.negated) out += " not";
      out += " between " + ExprText(*e.args[1], o) + " and " +
             ExprText(*e.args[2], o) + ")";
      return out;
    }
    case ExprKind::kSubquery:
      return "(" + SelectText(*e.subquery, o) + ")";
    case ExprKind::kExists:
      return "exists (" + SelectText(*e.subquery, o) + ")";
  }
  return "?";
}

std::string SelectText(const SelectStmt& s, const PrintOptions& o) {
  std::string out = "select ";
  if (s.distinct) out += "distinct ";
  for (size_t i = 0; i < s.items.size(); ++i) {
    if (i) out += ", ";
    out += ExprText(*s.items[i].expr, o);
    if (!s.items[i].alias.empty()) out += " as " + Ident(s.items[i].alias, o);
  }
  if (s.from) out += " from " + TableRefText(*s.from, o);
  if (s.where) out += " where " + ExprText(*s.where, o);
  if (!s.group_by.empty()) {
    out += " group by ";
    for (size_t i = 0; i < s.group_by.size(); ++i) {
      if (i) out += ", ";
      out += ExprText(*s.group_by[i], o);
    }
  }
  if (s.having) out += " having " + ExprText(*s.having, o);
  if (!s.order_by.empty()) {
    out += " order by ";
    for (size_t i = 0; i < s.order_by.size(); ++i) {
      if (i) out += ", ";
      out += ExprText(*s.order_by[i].expr, o);
      if (!s.order_by[i].ascending) out += " desc";
    }
  }
  if (s.limit >= 0) out += " limit " + std::to_string(s.limit);
  if (s.union_next) out += " union all " + SelectText(*s.union_next, o);
  return out;
}

}  // namespace

std::string PrintDouble(double v) {
  // Infinities overflow strtod to the same value; NaN is inf - inf (its
  // sign and payload are not kept).
  if (std::isnan(v)) return "(1e999 - 1e999)";
  if (std::isinf(v)) return v > 0 ? "1e999" : "-1e999";
  char buf[32];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  std::string out(buf, res.ptr);
  // Integral values print without a fraction.
  if (out.find_first_not_of("-0123456789") == std::string::npos) {
    out += ".0";
  }
  return out;
}

std::string PrintExpr(const Expr& e, const PrintOptions& opts) {
  return ExprText(e, opts);
}

std::string PrintSelect(const SelectStmt& s, const PrintOptions& opts) {
  return SelectText(s, opts);
}

std::string PrintStatement(const Statement& s, const PrintOptions& opts) {
  switch (s.kind) {
    case StatementKind::kSelect:
      return SelectText(*s.select, opts);
    case StatementKind::kCreateTableAs: {
      PrintOptions quoted = opts;
      quoted.always_quote_identifiers = true;
      return "create table " + Ident(s.table_name, quoted) + " as " +
             SelectText(*s.select, opts);
    }
    case StatementKind::kDropTable:
      return std::string("drop table ") + (s.if_exists ? "if exists " : "") +
             Ident(s.table_name, opts);
    case StatementKind::kInsertSelect:
      return "insert into " + Ident(s.table_name, opts) + " " +
             SelectText(*s.select, opts);
  }
  return "?";
}

}  // namespace vdb::sql
