// SQL front-end tests: lexer, parser, printer round-trips, AST cloning.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "sql/lexer.h"
#include "sql/parser.h"
#include "sql/printer.h"

namespace vdb::sql {
namespace {

TEST(LexerTest, BasicTokens) {
  auto toks = Tokenize("select a, 1.5e2 from `t` where x <> 'it''s'");
  ASSERT_TRUE(toks.ok());
  const auto& v = toks.value();
  EXPECT_EQ(v[0].kind, TokenKind::kIdentifier);
  EXPECT_EQ(v[0].text, "select");
  EXPECT_EQ(v[3].kind, TokenKind::kDoubleLiteral);
  EXPECT_DOUBLE_EQ(v[3].double_value, 150.0);
  // Backquoted identifier keeps its body; string keeps the escaped quote.
  bool found_string = false;
  for (const auto& t : v) {
    if (t.kind == TokenKind::kStringLiteral) {
      EXPECT_EQ(t.text, "it's");
      found_string = true;
    }
  }
  EXPECT_TRUE(found_string);
}

TEST(LexerTest, Comments) {
  auto toks = Tokenize("select 1 -- trailing comment\n, 2");
  ASSERT_TRUE(toks.ok());
  // select, 1, comma, 2, end
  EXPECT_EQ(toks.value().size(), 5u);
}

TEST(LexerTest, Errors) {
  EXPECT_FALSE(Tokenize("select 'unterminated").ok());
  EXPECT_FALSE(Tokenize("select `unterminated").ok());
  EXPECT_FALSE(Tokenize("select a ! b").ok());
}

std::string RoundTrip(const std::string& sql) {
  auto stmt = ParseStatement(sql);
  EXPECT_TRUE(stmt.ok()) << sql << ": " << stmt.status().ToString();
  if (!stmt.ok()) return "";
  std::string printed = PrintStatement(*stmt.value());
  auto again = ParseStatement(printed);
  EXPECT_TRUE(again.ok()) << printed;
  if (!again.ok()) return "";
  // Printing must be a fixed point after one normalization pass.
  EXPECT_EQ(PrintStatement(*again.value()), printed);
  return printed;
}

TEST(ParserTest, RoundTrips) {
  RoundTrip("select 1");
  RoundTrip("select a, b as c from t");
  RoundTrip("select * from t where x > 3 and y < 4 or not z = 1");
  RoundTrip("select count(*), sum(x) from t group by g having count(*) > 5");
  RoundTrip("select a from t order by a desc, b limit 10");
  RoundTrip(
      "select t1.a from t1 inner join t2 on t1.k = t2.k "
      "left join t3 on t2.j = t3.j");
  RoundTrip("select x from (select y as x from t) as d");
  RoundTrip("select case when a > 1 then 'hi' else 'lo' end from t");
  RoundTrip("select x from t where c in (1, 2, 3) and d not in (4)");
  RoundTrip("select x from t where b between 1 and 10");
  RoundTrip("select x from t where s like 'abc%' and u is not null");
  RoundTrip("select x from t where p > (select avg(p) from t)");
  RoundTrip("select count(distinct x) from t");
  RoundTrip("select sum(x) over (partition by g, h) from t");
  RoundTrip("select 1 union all select 2");
  RoundTrip("create table s as select * from t where rand() < 0.01");
  RoundTrip("drop table if exists s");
  RoundTrip("insert into t select * from s");
  RoundTrip("select -x + 3 * (y - 2) / z % 4 from t");
  RoundTrip("select x from t where exists (select 1 from s)");
  RoundTrip("select t.* from t, u");
}

TEST(ParserTest, PrecedenceOfAndOr) {
  auto e = ParseExpression("a or b and c");
  ASSERT_TRUE(e.ok());
  // Must parse as a or (b and c).
  EXPECT_EQ(e.value()->binary_op, BinaryOp::kOr);
  EXPECT_EQ(e.value()->args[1]->binary_op, BinaryOp::kAnd);
}

TEST(ParserTest, ArithmeticPrecedence) {
  auto e = ParseExpression("1 + 2 * 3");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e.value()->binary_op, BinaryOp::kAdd);
  EXPECT_EQ(e.value()->args[1]->binary_op, BinaryOp::kMul);
}

TEST(ParserTest, BetweenBindsItsOwnAnd) {
  auto e = ParseExpression("x between 1 and 2 and y = 3");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e.value()->binary_op, BinaryOp::kAnd);
  EXPECT_EQ(e.value()->args[0]->kind, ExprKind::kBetween);
}

TEST(ParserTest, ImplicitAlias) {
  auto sel = ParseSelect("select price p from orders o");
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(sel.value()->items[0].alias, "p");
  EXPECT_EQ(sel.value()->from->alias, "o");
}

TEST(ParserTest, KeywordsAreCaseInsensitive) {
  auto sel = ParseSelect("SELECT X FROM T WHERE Y > 1 GROUP BY X");
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(sel.value()->group_by.size(), 1u);
}

TEST(ParserTest, Errors) {
  EXPECT_FALSE(ParseStatement("select from t").ok());
  EXPECT_FALSE(ParseStatement("select a from").ok());
  EXPECT_FALSE(ParseStatement("select a from t where").ok());
  EXPECT_FALSE(ParseStatement("select a from (select b from t)").ok())
      << "derived table requires alias";
  EXPECT_FALSE(ParseStatement("select a from t; select b from t").ok());
  EXPECT_FALSE(ParseStatement("select case end from t").ok());
}

TEST(AstTest, CloneIsDeep) {
  auto sel = ParseSelect(
      "select g, sum(x) as s from t where y > 1 group by g "
      "having sum(x) > 2 order by s limit 5");
  ASSERT_TRUE(sel.ok());
  auto clone = sel.value()->Clone();
  // Mutating the clone must not affect the original's printed form.
  std::string before = PrintSelect(*sel.value());
  clone->items[0].alias = "renamed";
  clone->limit = 99;
  clone->where->binary_op = BinaryOp::kLt;
  EXPECT_EQ(PrintSelect(*sel.value()), before);
  EXPECT_NE(PrintSelect(*clone), before);
}

TEST(PrinterTest, QuotesWeirdIdentifiers) {
  auto ref = MakeColumnRef("", "weird name");
  EXPECT_EQ(PrintExpr(*ref), "`weird name`");
  PrintOptions redshift;
  redshift.identifier_quote = '"';
  EXPECT_EQ(PrintExpr(*ref, redshift), "\"weird name\"");
}

TEST(PrinterTest, EscapesStringLiterals) {
  auto lit = MakeStringLit("o'neil");
  EXPECT_EQ(PrintExpr(*lit), "'o''neil'");
}

TEST(PrinterTest, WindowSpec) {
  auto sel = ParseSelect(
      "select sum(count(*)) over (partition by g) from t group by g");
  ASSERT_TRUE(sel.ok());
  EXPECT_NE(PrintSelect(*sel.value()).find("over (partition by g)"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Print/parse round trip: shapes the generated suite (test_roundtrip) found
// printing as text that parses differently or not at all.
// ---------------------------------------------------------------------------

/// Print(Parse(text)) under `opts`.
std::string Reprint(const std::string& text, const PrintOptions& opts = {}) {
  auto st = ParseStatement(text);
  EXPECT_TRUE(st.ok()) << text << ": " << st.status().ToString();
  return st.ok() ? PrintStatement(*st.value(), opts) : "";
}

TEST(RoundTripTest, ReservedWordNamesPrintQuoted) {
  SelectStmt s;
  s.items.emplace_back(MakeColumnRef("on", "select"), "from");
  s.from = MakeBaseTable("order", "on");
  const std::string text = PrintSelect(s);
  EXPECT_EQ(text, "select `on`.`select` as `from` from `order` as `on`");
  EXPECT_EQ(Reprint(text), text);
}

TEST(RoundTripTest, QuotedKeywordsAreNames) {
  auto sel = ParseSelect("select `null`, \"case\" `Limit` from `from`");
  ASSERT_TRUE(sel.ok()) << sel.status().ToString();
  const SelectStmt& s = *sel.value();
  ASSERT_EQ(s.items.size(), 2u);
  EXPECT_EQ(s.items[0].expr->kind, ExprKind::kColumnRef);
  EXPECT_EQ(s.items[0].expr->name, "null");
  EXPECT_EQ(s.items[1].expr->name, "case");
  EXPECT_EQ(s.items[1].alias, "Limit");
  EXPECT_EQ(s.from->table_name, "from");
}

TEST(RoundTripTest, QuoteCharactersInNamesAreDoubled) {
  SelectStmt s;
  s.items.emplace_back(MakeColumnRef("", "a`b"), "c\"d");
  s.from = MakeBaseTable("t");
  const std::string text = PrintSelect(s);
  EXPECT_EQ(text, "select `a``b` as `c\"d` from t");
  EXPECT_EQ(Reprint(text), text);
  PrintOptions redshift;
  redshift.identifier_quote = '"';
  const std::string dq = PrintSelect(s, redshift);
  EXPECT_EQ(dq, "select \"a`b\" as \"c\"\"d\" from t");
  EXPECT_EQ(Reprint(dq, redshift), dq);
}

TEST(RoundTripTest, NegativeLiteralsPrintAsNegations) {
  EXPECT_EQ(PrintExpr(*MakeIntLit(-5)), "(-5)");
  EXPECT_EQ(PrintExpr(*MakeDoubleLit(-0.0)), "(-0.0)");
  // A negation of a negative literal must not print "--", a comment.
  auto neg = MakeUnary(UnaryOp::kNeg, MakeIntLit(-5));
  const std::string text = "select " + PrintExpr(*neg) + " as x";
  EXPECT_EQ(text, "select (-(-5)) as x");
  EXPECT_EQ(Reprint(text), text);
  // INT64_MIN reads back only negated; its magnitude alone is out of range.
  const auto min = MakeIntLit(std::numeric_limits<int64_t>::min());
  EXPECT_EQ(PrintExpr(*min), "(-9223372036854775808)");
  auto e = ParseExpression(PrintExpr(*min));
  ASSERT_TRUE(e.ok()) << e.status().ToString();
  ASSERT_EQ(e.value()->kind, ExprKind::kLiteral);
  EXPECT_EQ(e.value()->literal.AsInt(), std::numeric_limits<int64_t>::min());
  EXPECT_FALSE(ParseExpression("9223372036854775808").ok());
  EXPECT_FALSE(ParseExpression("-9223372036854775809").ok());
  EXPECT_FALSE(ParseStatement("select 1 limit 9223372036854775808").ok());
}

TEST(RoundTripTest, NonFiniteDoublesPrintAsExpressionsThatComputeThem) {
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(PrintDouble(inf), "1e999");
  EXPECT_EQ(PrintExpr(*MakeDoubleLit(-inf)), "(-1e999)");
  EXPECT_EQ(PrintDouble(std::nan("")), "(1e999 - 1e999)");
  auto e = ParseExpression("1e999");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e.value()->literal.AsDouble(), inf);
  for (double v : {inf, -inf, std::nan("")}) {
    const std::string text = "select " + PrintExpr(*MakeDoubleLit(v)) + " as x";
    EXPECT_EQ(Reprint(text), text);
  }
}

TEST(RoundTripTest, RightNestedJoinIsParenthesized) {
  SelectStmt s;
  s.items.emplace_back(MakeStar(), "");
  s.from = MakeJoin(
      JoinType::kLeft, MakeBaseTable("a"),
      MakeJoin(JoinType::kInner, MakeBaseTable("b"), MakeBaseTable("c"),
               MakeBinary(BinaryOp::kEq, MakeColumnRef("b", "k"),
                          MakeColumnRef("c", "k"))),
      MakeBinary(BinaryOp::kEq, MakeColumnRef("a", "k"),
                 MakeColumnRef("b", "k")));
  const std::string text = PrintSelect(s);
  EXPECT_EQ(text,
            "select * from a left join (b inner join c on (b.k = c.k)) on "
            "(a.k = b.k)");
  auto back = ParseSelect(text);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back.value()->from->kind, TableRef::Kind::kJoin);
  EXPECT_EQ(back.value()->from->join_type, JoinType::kLeft);
  EXPECT_EQ(back.value()->from->right->kind, TableRef::Kind::kJoin);
  EXPECT_EQ(PrintSelect(*back.value()), text);
}

TEST(RoundTripTest, CaseWithoutWhenPrintsItsElse) {
  Expr c(ExprKind::kCase);
  c.case_else = MakeDoubleLit(1.0);
  EXPECT_EQ(PrintExpr(c), "1.0");
  c.case_else.reset();
  EXPECT_EQ(PrintExpr(c), "NULL");
}

TEST(RoundTripTest, DdlTableNamesPrintQuotedWhenTheyMustBe) {
  Statement drop;
  drop.kind = StatementKind::kDropTable;
  drop.if_exists = true;
  drop.table_name = "New Table";
  EXPECT_EQ(PrintStatement(drop), "drop table if exists `New Table`");
  EXPECT_EQ(Reprint(PrintStatement(drop)), PrintStatement(drop));
  Statement insert;
  insert.kind = StatementKind::kInsertSelect;
  insert.table_name = "select";
  insert.select = std::make_unique<SelectStmt>();
  insert.select->items.emplace_back(MakeIntLit(1), "");
  EXPECT_EQ(PrintStatement(insert), "insert into `select` select 1");
  EXPECT_EQ(Reprint(PrintStatement(insert)), PrintStatement(insert));
}

TEST(RoundTripTest, IfBeforeAParenIsTheConditionalFunction) {
  auto e = ParseExpression("if(a > 1, 'x', 'y')");
  ASSERT_TRUE(e.ok()) << e.status().ToString();
  EXPECT_EQ(e.value()->kind, ExprKind::kFunction);
  EXPECT_EQ(e.value()->name, "if");
  EXPECT_EQ(PrintExpr(*e.value()), "if((a > 1), 'x', 'y')");
  // Elsewhere `if` stays a keyword.
  EXPECT_FALSE(ParseExpression("if + 1").ok());
}

}  // namespace
}  // namespace vdb::sql
