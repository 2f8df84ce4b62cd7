// AST -> SQL text serialization. The driver (driver/dialect.h) runs the
// middleware's rewritten ASTs in process and prints each one with the
// dialect's options into its statement log, the record of what was sent.
// The text reads back as the statement that ran: Print(Parse(Print(s))) ==
// Print(s), and the parsed text returns the AST's results bit for bit
// (tests/test_roundtrip.cc; "Text/AST agreement contract" in
// docs/INVARIANTS.md).

#ifndef VDB_SQL_PRINTER_H_
#define VDB_SQL_PRINTER_H_

#include <string>

#include "sql/ast.h"

namespace vdb::sql {

/// Serialization options. Defaults print the engine's native dialect.
struct PrintOptions {
  char identifier_quote = '`';
  /// Quote every identifier (some engines require it for mixed case).
  bool always_quote_identifiers = false;
};

/// The SQL text of a double: the shortest decimal that parses back to the
/// same bits, with a fraction or an exponent so it lexes as a double
/// literal (1.0 prints "1.0", not the integer "1"). Infinities print as
/// 1e999 (which overflows to them) and NaN as (1e999 - 1e999). Every double
/// written into SQL goes through it, the printer's double literals included.
std::string PrintDouble(double v);

std::string PrintExpr(const Expr& e, const PrintOptions& opts = {});
std::string PrintSelect(const SelectStmt& s, const PrintOptions& opts = {});
std::string PrintStatement(const Statement& s, const PrintOptions& opts = {});

}  // namespace vdb::sql

#endif  // VDB_SQL_PRINTER_H_
