// SQL lexer: converts a query string into a token vector.

#ifndef VDB_SQL_LEXER_H_
#define VDB_SQL_LEXER_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "sql/token.h"

namespace vdb::sql {

/// Tokenizes `input`. Identifiers keep their original case (keyword matching
/// is case-insensitive and happens in the parser). Supports: line comments
/// (`-- ...`), backquoted and double-quoted identifiers, single-quoted string
/// literals with '' escapes, integer and decimal/scientific numeric literals.
/// Inside a quoted identifier the quote character is written twice.
Result<std::vector<Token>> Tokenize(const std::string& input);

/// True if `lower` (a lower-cased word) is a keyword the parser reserves:
/// as a bare identifier it would end an alias position or start a clause,
/// so the printer quotes a name spelled like one.
bool IsReservedWord(const std::string& lower);

}  // namespace vdb::sql

#endif  // VDB_SQL_LEXER_H_
