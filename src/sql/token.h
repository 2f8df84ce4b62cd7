// Token stream produced by the SQL lexer.

#ifndef VDB_SQL_TOKEN_H_
#define VDB_SQL_TOKEN_H_

#include <cstdint>
#include <string>

namespace vdb::sql {

enum class TokenKind {
  kEnd,
  kIdentifier,   // bare or `quoted`
  kIntLiteral,
  kDoubleLiteral,
  kStringLiteral,  // '...'
  // Punctuation / operators.
  kLParen, kRParen, kComma, kDot, kSemicolon, kStar,
  kPlus, kMinus, kSlash, kPercent,
  kEq, kNe, kLt, kLe, kGt, kGe,
};

struct Token {
  TokenKind kind = TokenKind::kEnd;
  std::string text;    // identifier (original case) or string literal body
  bool quoted = false; // a quoted identifier: a name, never a keyword
  int64_t int_value = 0;
  double double_value = 0.0;
  size_t offset = 0;   // byte offset in the input, for error messages
};

}  // namespace vdb::sql

#endif  // VDB_SQL_TOKEN_H_
