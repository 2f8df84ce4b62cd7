#include "sql/lexer.h"

#include <cctype>
#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <unordered_set>

namespace vdb::sql {

namespace {
bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}
}  // namespace

Result<std::vector<Token>> Tokenize(const std::string& in) {
  std::vector<Token> out;
  size_t i = 0;
  const size_t n = in.size();
  auto push = [&](TokenKind k, size_t at) {
    Token t;
    t.kind = k;
    t.offset = at;
    out.push_back(std::move(t));
  };
  while (i < n) {
    char c = in[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    if (c == '-' && i + 1 < n && in[i + 1] == '-') {
      while (i < n && in[i] != '\n') ++i;
      continue;
    }
    const size_t at = i;
    if (IsIdentStart(c)) {
      size_t j = i;
      while (j < n && IsIdentChar(in[j])) ++j;
      Token t;
      t.kind = TokenKind::kIdentifier;
      t.text = in.substr(i, j - i);
      t.offset = at;
      out.push_back(std::move(t));
      i = j;
      continue;
    }
    if (c == '`' || c == '"') {
      const char quote = c;
      std::string name;
      size_t j = i + 1;
      while (j < n) {
        if (in[j] == quote) {
          if (j + 1 < n && in[j + 1] == quote) {  // escaped quote
            name.push_back(quote);
            j += 2;
            continue;
          }
          break;
        }
        name.push_back(in[j]);
        ++j;
      }
      if (j >= n) {
        return Status::InvalidArgument("unterminated quoted identifier");
      }
      Token t;
      t.kind = TokenKind::kIdentifier;
      t.text = std::move(name);
      t.quoted = true;
      t.offset = at;
      out.push_back(std::move(t));
      i = j + 1;
      continue;
    }
    if (c == '\'') {
      std::string body;
      size_t j = i + 1;
      while (j < n) {
        if (in[j] == '\'') {
          if (j + 1 < n && in[j + 1] == '\'') {  // escaped quote
            body.push_back('\'');
            j += 2;
            continue;
          }
          break;
        }
        body.push_back(in[j]);
        ++j;
      }
      if (j >= n) return Status::InvalidArgument("unterminated string literal");
      Token t;
      t.kind = TokenKind::kStringLiteral;
      t.text = std::move(body);
      t.offset = at;
      out.push_back(std::move(t));
      i = j + 1;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && i + 1 < n &&
         std::isdigit(static_cast<unsigned char>(in[i + 1])))) {
      size_t j = i;
      bool is_double = false;
      while (j < n && std::isdigit(static_cast<unsigned char>(in[j]))) ++j;
      if (j < n && in[j] == '.') {
        is_double = true;
        ++j;
        while (j < n && std::isdigit(static_cast<unsigned char>(in[j]))) ++j;
      }
      if (j < n && (in[j] == 'e' || in[j] == 'E')) {
        size_t k = j + 1;
        if (k < n && (in[k] == '+' || in[k] == '-')) ++k;
        if (k < n && std::isdigit(static_cast<unsigned char>(in[k]))) {
          is_double = true;
          j = k;
          while (j < n && std::isdigit(static_cast<unsigned char>(in[j]))) ++j;
        }
      }
      Token t;
      t.offset = at;
      std::string num = in.substr(i, j - i);
      if (is_double) {
        t.kind = TokenKind::kDoubleLiteral;
        t.double_value = std::strtod(num.c_str(), nullptr);
      } else {
        // Up to 2^63, which only a leading '-' makes representable: it
        // lexes as INT64_MIN and the parser accepts it only negated.
        t.kind = TokenKind::kIntLiteral;
        uint64_t magnitude = 0;
        const auto parsed = std::from_chars(num.data(), num.data() + num.size(),
                                            magnitude);
        if (parsed.ec != std::errc() || magnitude > (uint64_t{1} << 63)) {
          return Status::InvalidArgument("integer literal out of range at offset " +
                                         std::to_string(at));
        }
        t.int_value = static_cast<int64_t>(magnitude);
      }
      out.push_back(std::move(t));
      i = j;
      continue;
    }
    switch (c) {
      case '(': push(TokenKind::kLParen, at); ++i; break;
      case ')': push(TokenKind::kRParen, at); ++i; break;
      case ',': push(TokenKind::kComma, at); ++i; break;
      case '.': push(TokenKind::kDot, at); ++i; break;
      case ';': push(TokenKind::kSemicolon, at); ++i; break;
      case '*': push(TokenKind::kStar, at); ++i; break;
      case '+': push(TokenKind::kPlus, at); ++i; break;
      case '-': push(TokenKind::kMinus, at); ++i; break;
      case '/': push(TokenKind::kSlash, at); ++i; break;
      case '%': push(TokenKind::kPercent, at); ++i; break;
      case '=': push(TokenKind::kEq, at); ++i; break;
      case '<':
        if (i + 1 < n && in[i + 1] == '=') {
          push(TokenKind::kLe, at);
          i += 2;
        } else if (i + 1 < n && in[i + 1] == '>') {
          push(TokenKind::kNe, at);
          i += 2;
        } else {
          push(TokenKind::kLt, at);
          ++i;
        }
        break;
      case '>':
        if (i + 1 < n && in[i + 1] == '=') {
          push(TokenKind::kGe, at);
          i += 2;
        } else {
          push(TokenKind::kGt, at);
          ++i;
        }
        break;
      case '!':
        if (i + 1 < n && in[i + 1] == '=') {
          push(TokenKind::kNe, at);
          i += 2;
        } else {
          return Status::InvalidArgument("unexpected '!' in SQL input");
        }
        break;
      default:
        return Status::InvalidArgument(std::string("unexpected character '") +
                                       c + "' at offset " +
                                       std::to_string(at));
    }
  }
  Token end;
  end.kind = TokenKind::kEnd;
  end.offset = n;
  out.push_back(std::move(end));
  return out;
}

bool IsReservedWord(const std::string& lower) {
  // The printer asks once per short all-letter identifier it writes.
  static const std::unordered_set<std::string> kWords = {
      "select", "from",  "where",  "group",  "having", "order",  "limit",
      "union",  "join",  "inner",  "left",   "right",  "outer",  "cross",
      "on",     "and",   "or",     "not",    "as",     "by",     "asc",
      "desc",   "case",  "when",   "then",   "else",   "end",    "in",
      "is",     "null",  "like",   "between", "exists", "distinct", "all",
      "create", "table", "drop",   "insert", "into",   "if",     "true",
      "false",
  };
  return kWords.count(lower) > 0;
}

}  // namespace vdb::sql
