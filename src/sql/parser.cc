#include "sql/parser.h"

#include <algorithm>
#include <cctype>
#include <limits>

#include "sql/lexer.h"

namespace vdb::sql {

namespace {

std::string Lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : toks_(std::move(tokens)) {}

  Result<std::unique_ptr<Statement>> ParseStatementTop() {
    auto st = ParseStatementInner();
    if (!st.ok()) return st.status();
    if (Accept(TokenKind::kSemicolon)) {
    }
    if (!At(TokenKind::kEnd)) {
      return Err("unexpected trailing tokens");
    }
    return st;
  }

  Result<Expr::Ptr> ParseExprTop() {
    auto e = ParseExpr();
    if (!e.ok()) return e.status();
    if (!At(TokenKind::kEnd)) return Err("unexpected trailing tokens");
    return e;
  }

 private:
  // ---- token helpers ----
  const Token& Peek(int ahead = 0) const {
    size_t i = std::min(pos_ + static_cast<size_t>(ahead), toks_.size() - 1);
    return toks_[i];
  }
  bool At(TokenKind k) const { return Peek().kind == k; }
  bool AtKeyword(const char* kw, int ahead = 0) const {
    const Token& t = Peek(ahead);
    return t.kind == TokenKind::kIdentifier && !t.quoted && Lower(t.text) == kw;
  }
  /// An identifier that can stand as an implicit alias: quoted, or a bare
  /// word that is not reserved.
  bool AtAliasName() const {
    return At(TokenKind::kIdentifier) &&
           (Peek().quoted || !IsReservedWord(Lower(Peek().text)));
  }
  bool Accept(TokenKind k) {
    if (At(k)) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool AcceptKeyword(const char* kw) {
    if (AtKeyword(kw)) {
      ++pos_;
      return true;
    }
    return false;
  }
  Status Expect(TokenKind k, const char* what) {
    if (Accept(k)) return Status::Ok();
    return Status::InvalidArgument(std::string("expected ") + what +
                                   " at offset " +
                                   std::to_string(Peek().offset));
  }
  Status ExpectKeyword(const char* kw) {
    if (AcceptKeyword(kw)) return Status::Ok();
    return Status::InvalidArgument(std::string("expected keyword '") + kw +
                                   "' at offset " +
                                   std::to_string(Peek().offset));
  }
  Status Err(const std::string& m) const {
    return Status::InvalidArgument(m + " at offset " +
                                   std::to_string(Peek().offset));
  }

  // ---- statements ----
  Result<std::unique_ptr<Statement>> ParseStatementInner() {
    auto stmt = std::make_unique<Statement>();
    if (AcceptKeyword("create")) {
      VDB_RETURN_IF_ERROR(ExpectKeyword("table"));
      if (!At(TokenKind::kIdentifier)) return Err("expected table name");
      stmt->kind = StatementKind::kCreateTableAs;
      stmt->table_name = Peek().text;
      ++pos_;
      VDB_RETURN_IF_ERROR(ExpectKeyword("as"));
      auto sel = ParseSelectStmt();
      if (!sel.ok()) return sel.status();
      stmt->select = std::move(sel).ValueOrDie();
      return stmt;
    }
    if (AcceptKeyword("drop")) {
      VDB_RETURN_IF_ERROR(ExpectKeyword("table"));
      stmt->kind = StatementKind::kDropTable;
      if (AcceptKeyword("if")) {
        VDB_RETURN_IF_ERROR(ExpectKeyword("exists"));
        stmt->if_exists = true;
      }
      if (!At(TokenKind::kIdentifier)) return Err("expected table name");
      stmt->table_name = Peek().text;
      ++pos_;
      return stmt;
    }
    if (AcceptKeyword("insert")) {
      VDB_RETURN_IF_ERROR(ExpectKeyword("into"));
      if (!At(TokenKind::kIdentifier)) return Err("expected table name");
      stmt->kind = StatementKind::kInsertSelect;
      stmt->table_name = Peek().text;
      ++pos_;
      auto sel = ParseSelectStmt();
      if (!sel.ok()) return sel.status();
      stmt->select = std::move(sel).ValueOrDie();
      return stmt;
    }
    stmt->kind = StatementKind::kSelect;
    auto sel = ParseSelectStmt();
    if (!sel.ok()) return sel.status();
    stmt->select = std::move(sel).ValueOrDie();
    return stmt;
  }

 public:
  Result<std::unique_ptr<SelectStmt>> ParseSelectStmt() {
    VDB_RETURN_IF_ERROR(ExpectKeyword("select"));
    auto sel = std::make_unique<SelectStmt>();
    if (AcceptKeyword("distinct")) sel->distinct = true;

    // Select list.
    do {
      SelectItem item;
      auto e = ParseExpr();
      if (!e.ok()) return e.status();
      item.expr = std::move(e).ValueOrDie();
      if (AcceptKeyword("as")) {
        if (!At(TokenKind::kIdentifier)) return Err("expected alias");
        item.alias = Peek().text;
        ++pos_;
      } else if (AtAliasName()) {
        item.alias = Peek().text;
        ++pos_;
      }
      sel->items.push_back(std::move(item));
    } while (Accept(TokenKind::kComma));

    if (AcceptKeyword("from")) {
      auto from = ParseTableRef();
      if (!from.ok()) return from.status();
      sel->from = std::move(from).ValueOrDie();
    }
    if (AcceptKeyword("where")) {
      auto w = ParseExpr();
      if (!w.ok()) return w.status();
      sel->where = std::move(w).ValueOrDie();
    }
    if (AcceptKeyword("group")) {
      VDB_RETURN_IF_ERROR(ExpectKeyword("by"));
      do {
        auto g = ParseExpr();
        if (!g.ok()) return g.status();
        sel->group_by.push_back(std::move(g).ValueOrDie());
      } while (Accept(TokenKind::kComma));
    }
    if (AcceptKeyword("having")) {
      auto h = ParseExpr();
      if (!h.ok()) return h.status();
      sel->having = std::move(h).ValueOrDie();
    }
    if (AcceptKeyword("order")) {
      VDB_RETURN_IF_ERROR(ExpectKeyword("by"));
      do {
        OrderItem item;
        auto e = ParseExpr();
        if (!e.ok()) return e.status();
        item.expr = std::move(e).ValueOrDie();
        if (AcceptKeyword("desc")) {
          item.ascending = false;
        } else {
          AcceptKeyword("asc");
        }
        sel->order_by.push_back(std::move(item));
      } while (Accept(TokenKind::kComma));
    }
    if (AcceptKeyword("limit")) {
      if (!At(TokenKind::kIntLiteral) || Peek().int_value < 0) {
        return Err("expected LIMIT count");
      }
      sel->limit = Peek().int_value;
      ++pos_;
    }
    if (AcceptKeyword("union")) {
      VDB_RETURN_IF_ERROR(ExpectKeyword("all"));
      auto next = ParseSelectStmt();
      if (!next.ok()) return next.status();
      sel->union_next = std::move(next).ValueOrDie();
    }
    return sel;
  }

 private:
  // ---- table references ----
  Result<TableRef::Ptr> ParseTableRef() {
    auto left = ParseTablePrimary();
    if (!left.ok()) return left.status();
    TableRef::Ptr acc = std::move(left).ValueOrDie();
    for (;;) {
      JoinType jt;
      bool has_on = true;
      if (Accept(TokenKind::kComma)) {
        jt = JoinType::kCross;
        has_on = false;
      } else if (AcceptKeyword("inner")) {
        VDB_RETURN_IF_ERROR(ExpectKeyword("join"));
        jt = JoinType::kInner;
      } else if (AcceptKeyword("join")) {
        jt = JoinType::kInner;
      } else if (AcceptKeyword("left")) {
        AcceptKeyword("outer");
        VDB_RETURN_IF_ERROR(ExpectKeyword("join"));
        jt = JoinType::kLeft;
      } else if (AcceptKeyword("cross")) {
        VDB_RETURN_IF_ERROR(ExpectKeyword("join"));
        jt = JoinType::kCross;
        has_on = false;
      } else {
        break;
      }
      auto right = ParseTablePrimary();
      if (!right.ok()) return right.status();
      Expr::Ptr on;
      if (has_on) {
        VDB_RETURN_IF_ERROR(ExpectKeyword("on"));
        auto e = ParseExpr();
        if (!e.ok()) return e.status();
        on = std::move(e).ValueOrDie();
      }
      acc = MakeJoin(jt, std::move(acc), std::move(right).ValueOrDie(),
                     std::move(on));
    }
    return acc;
  }

  Result<TableRef::Ptr> ParseTablePrimary() {
    if (Accept(TokenKind::kLParen)) {
      if (AtKeyword("select")) {
        auto sel = ParseSelectStmt();
        if (!sel.ok()) return sel.status();
        VDB_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));
        AcceptKeyword("as");
        if (!At(TokenKind::kIdentifier)) {
          return Err("derived table requires an alias");
        }
        std::string alias = Peek().text;
        ++pos_;
        return MakeDerivedTable(std::move(sel).ValueOrDie(), std::move(alias));
      }
      auto inner = ParseTableRef();
      if (!inner.ok()) return inner.status();
      VDB_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));
      return inner;
    }
    if (!At(TokenKind::kIdentifier)) return Err("expected table name");
    std::string name = Peek().text;
    ++pos_;
    std::string alias;
    if (AcceptKeyword("as")) {
      if (!At(TokenKind::kIdentifier)) return Err("expected alias");
      alias = Peek().text;
      ++pos_;
    } else if (AtAliasName()) {
      alias = Peek().text;
      ++pos_;
    }
    return MakeBaseTable(std::move(name), std::move(alias));
  }

  // ---- expressions (precedence climbing) ----
  Result<Expr::Ptr> ParseExpr() { return ParseOr(); }

  Result<Expr::Ptr> ParseOr() {
    auto lhs = ParseAnd();
    if (!lhs.ok()) return lhs.status();
    Expr::Ptr acc = std::move(lhs).ValueOrDie();
    while (AcceptKeyword("or")) {
      auto rhs = ParseAnd();
      if (!rhs.ok()) return rhs.status();
      acc = MakeBinary(BinaryOp::kOr, std::move(acc),
                       std::move(rhs).ValueOrDie());
    }
    return acc;
  }

  Result<Expr::Ptr> ParseAnd() {
    auto lhs = ParseNot();
    if (!lhs.ok()) return lhs.status();
    Expr::Ptr acc = std::move(lhs).ValueOrDie();
    while (AtKeyword("and")) {
      // `BETWEEN x AND y` consumes its own AND; only top-level ANDs here.
      ++pos_;
      auto rhs = ParseNot();
      if (!rhs.ok()) return rhs.status();
      acc = MakeBinary(BinaryOp::kAnd, std::move(acc),
                       std::move(rhs).ValueOrDie());
    }
    return acc;
  }

  Result<Expr::Ptr> ParseNot() {
    if (AcceptKeyword("not")) {
      auto inner = ParseNot();
      if (!inner.ok()) return inner.status();
      return MakeUnary(UnaryOp::kNot, std::move(inner).ValueOrDie());
    }
    return ParseComparison();
  }

  Result<Expr::Ptr> ParseComparison() {
    auto lhs = ParseAdditive();
    if (!lhs.ok()) return lhs.status();
    Expr::Ptr acc = std::move(lhs).ValueOrDie();

    // IS [NOT] NULL
    if (AtKeyword("is")) {
      ++pos_;
      bool neg = AcceptKeyword("not");
      VDB_RETURN_IF_ERROR(ExpectKeyword("null"));
      auto e = std::make_unique<Expr>(ExprKind::kIsNull);
      e->negated = neg;
      e->args.push_back(std::move(acc));
      return e;
    }
    // [NOT] IN (...) / [NOT] BETWEEN / [NOT] LIKE
    bool neg = false;
    if (AtKeyword("not") && (AtKeyword("in", 1) || AtKeyword("between", 1) ||
                             AtKeyword("like", 1))) {
      neg = true;
      ++pos_;
    }
    if (AcceptKeyword("in")) {
      VDB_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "'('"));
      auto e = std::make_unique<Expr>(ExprKind::kInList);
      e->negated = neg;
      e->args.push_back(std::move(acc));
      do {
        auto item = ParseExpr();
        if (!item.ok()) return item.status();
        e->args.push_back(std::move(item).ValueOrDie());
      } while (Accept(TokenKind::kComma));
      VDB_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));
      return e;
    }
    if (AcceptKeyword("between")) {
      auto lo = ParseAdditive();
      if (!lo.ok()) return lo.status();
      VDB_RETURN_IF_ERROR(ExpectKeyword("and"));
      auto hi = ParseAdditive();
      if (!hi.ok()) return hi.status();
      auto e = std::make_unique<Expr>(ExprKind::kBetween);
      e->negated = neg;
      e->args.push_back(std::move(acc));
      e->args.push_back(std::move(lo).ValueOrDie());
      e->args.push_back(std::move(hi).ValueOrDie());
      return e;
    }
    if (AcceptKeyword("like")) {
      auto rhs = ParseAdditive();
      if (!rhs.ok()) return rhs.status();
      Expr::Ptr like = MakeBinary(BinaryOp::kLike, std::move(acc),
                                  std::move(rhs).ValueOrDie());
      if (neg) like = MakeUnary(UnaryOp::kNot, std::move(like));
      return like;
    }
    if (neg) return Err("dangling NOT");

    BinaryOp op;
    if (Accept(TokenKind::kEq)) {
      op = BinaryOp::kEq;
    } else if (Accept(TokenKind::kNe)) {
      op = BinaryOp::kNe;
    } else if (Accept(TokenKind::kLe)) {
      op = BinaryOp::kLe;
    } else if (Accept(TokenKind::kLt)) {
      op = BinaryOp::kLt;
    } else if (Accept(TokenKind::kGe)) {
      op = BinaryOp::kGe;
    } else if (Accept(TokenKind::kGt)) {
      op = BinaryOp::kGt;
    } else {
      return acc;
    }
    auto rhs = ParseAdditive();
    if (!rhs.ok()) return rhs.status();
    return MakeBinary(op, std::move(acc), std::move(rhs).ValueOrDie());
  }

  Result<Expr::Ptr> ParseAdditive() {
    auto lhs = ParseMultiplicative();
    if (!lhs.ok()) return lhs.status();
    Expr::Ptr acc = std::move(lhs).ValueOrDie();
    for (;;) {
      BinaryOp op;
      if (Accept(TokenKind::kPlus)) {
        op = BinaryOp::kAdd;
      } else if (Accept(TokenKind::kMinus)) {
        op = BinaryOp::kSub;
      } else {
        return acc;
      }
      auto rhs = ParseMultiplicative();
      if (!rhs.ok()) return rhs.status();
      acc = MakeBinary(op, std::move(acc), std::move(rhs).ValueOrDie());
    }
  }

  Result<Expr::Ptr> ParseMultiplicative() {
    auto lhs = ParseUnary();
    if (!lhs.ok()) return lhs.status();
    Expr::Ptr acc = std::move(lhs).ValueOrDie();
    for (;;) {
      BinaryOp op;
      if (Accept(TokenKind::kStar)) {
        op = BinaryOp::kMul;
      } else if (Accept(TokenKind::kSlash)) {
        op = BinaryOp::kDiv;
      } else if (Accept(TokenKind::kPercent)) {
        op = BinaryOp::kMod;
      } else {
        return acc;
      }
      auto rhs = ParseUnary();
      if (!rhs.ok()) return rhs.status();
      acc = MakeBinary(op, std::move(acc), std::move(rhs).ValueOrDie());
    }
  }

  Result<Expr::Ptr> ParseUnary() {
    if (Accept(TokenKind::kMinus)) {
      // -9223372036854775808: the one integer literal whose magnitude has
      // no positive int64 (the lexer hands it over as INT64_MIN).
      if (At(TokenKind::kIntLiteral) &&
          Peek().int_value == std::numeric_limits<int64_t>::min()) {
        ++pos_;
        return MakeIntLit(std::numeric_limits<int64_t>::min());
      }
      auto inner = ParseUnary();
      if (!inner.ok()) return inner.status();
      return MakeUnary(UnaryOp::kNeg, std::move(inner).ValueOrDie());
    }
    if (Accept(TokenKind::kPlus)) return ParseUnary();
    return ParsePrimary();
  }

  Result<Expr::Ptr> ParsePrimary() {
    const Token& t = Peek();
    switch (t.kind) {
      case TokenKind::kIntLiteral: {
        if (t.int_value < 0) return Err("integer literal out of range");
        ++pos_;
        return MakeIntLit(t.int_value);
      }
      case TokenKind::kDoubleLiteral: {
        ++pos_;
        return MakeDoubleLit(t.double_value);
      }
      case TokenKind::kStringLiteral: {
        std::string s = t.text;
        ++pos_;
        return MakeStringLit(std::move(s));
      }
      case TokenKind::kStar: {
        ++pos_;
        return MakeStar();
      }
      case TokenKind::kLParen: {
        ++pos_;
        if (AtKeyword("select")) {
          auto sel = ParseSelectStmt();
          if (!sel.ok()) return sel.status();
          VDB_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));
          auto e = std::make_unique<Expr>(ExprKind::kSubquery);
          e->subquery = std::move(sel).ValueOrDie();
          return e;
        }
        auto inner = ParseExpr();
        if (!inner.ok()) return inner.status();
        VDB_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));
        return inner;
      }
      case TokenKind::kIdentifier:
        return ParseIdentifierExpr();
      default:
        return Err("unexpected token in expression");
    }
  }

  Result<Expr::Ptr> ParseIdentifierExpr() {
    std::string first = Peek().text;
    std::string lower = Lower(first);
    // A quoted identifier is a name whatever it spells.
    static const std::string kNoKeyword;
    const std::string& keyword = Peek().quoted ? kNoKeyword : lower;

    if (keyword == "null") {
      ++pos_;
      return MakeLiteral(Value::Null());
    }
    if (keyword == "true") {
      ++pos_;
      return MakeLiteral(Value::Bool(true));
    }
    if (keyword == "false") {
      ++pos_;
      return MakeLiteral(Value::Bool(false));
    }
    if (keyword == "case") return ParseCase();
    // `if` is reserved for DROP TABLE IF EXISTS and is also the
    // conditional function: before '(' it is the function.
    const bool if_call = keyword == "if" && Peek(1).kind == TokenKind::kLParen;
    if (keyword != "exists" && !if_call && IsReservedWord(keyword)) {
      return Err("unexpected keyword '" + keyword + "' in expression");
    }
    if (keyword == "exists") {
      ++pos_;
      VDB_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "'('"));
      auto sel = ParseSelectStmt();
      if (!sel.ok()) return sel.status();
      VDB_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));
      auto e = std::make_unique<Expr>(ExprKind::kExists);
      e->subquery = std::move(sel).ValueOrDie();
      return e;
    }

    ++pos_;
    // Function call?
    if (At(TokenKind::kLParen)) {
      ++pos_;
      auto fn = std::make_unique<Expr>(ExprKind::kFunction);
      fn->name = lower;
      if (AcceptKeyword("distinct")) fn->distinct = true;
      if (!At(TokenKind::kRParen)) {
        do {
          if (At(TokenKind::kStar)) {
            ++pos_;
            fn->args.push_back(MakeStar());
          } else {
            auto a = ParseExpr();
            if (!a.ok()) return a.status();
            fn->args.push_back(std::move(a).ValueOrDie());
          }
        } while (Accept(TokenKind::kComma));
      }
      VDB_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));
      // OVER ( [PARTITION BY e1, e2] )
      if (AtKeyword("over")) {
        ++pos_;
        VDB_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "'('"));
        fn->is_window = true;
        if (AcceptKeyword("partition")) {
          VDB_RETURN_IF_ERROR(ExpectKeyword("by"));
          do {
            auto p = ParseExpr();
            if (!p.ok()) return p.status();
            fn->partition_by.push_back(std::move(p).ValueOrDie());
          } while (Accept(TokenKind::kComma));
        }
        VDB_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));
      }
      return fn;
    }
    // Qualified reference: t.col or t.*
    if (At(TokenKind::kDot)) {
      ++pos_;
      if (At(TokenKind::kStar)) {
        ++pos_;
        auto e = MakeStar();
        e->qualifier = first;
        return e;
      }
      if (!At(TokenKind::kIdentifier)) return Err("expected column name");
      std::string col = Peek().text;
      ++pos_;
      return MakeColumnRef(std::move(first), std::move(col));
    }
    return MakeColumnRef("", std::move(first));
  }

  Result<Expr::Ptr> ParseCase() {
    ++pos_;  // consume CASE
    auto e = std::make_unique<Expr>(ExprKind::kCase);
    while (AcceptKeyword("when")) {
      auto cond = ParseExpr();
      if (!cond.ok()) return cond.status();
      VDB_RETURN_IF_ERROR(ExpectKeyword("then"));
      auto then = ParseExpr();
      if (!then.ok()) return then.status();
      e->case_whens.push_back(std::move(cond).ValueOrDie());
      e->case_thens.push_back(std::move(then).ValueOrDie());
    }
    if (e->case_whens.empty()) return Err("CASE requires at least one WHEN");
    if (AcceptKeyword("else")) {
      auto els = ParseExpr();
      if (!els.ok()) return els.status();
      e->case_else = std::move(els).ValueOrDie();
    }
    VDB_RETURN_IF_ERROR(ExpectKeyword("end"));
    return e;
  }

  std::vector<Token> toks_;
  size_t pos_ = 0;
};

}  // namespace

Result<std::unique_ptr<Statement>> ParseStatement(const std::string& input) {
  auto toks = Tokenize(input);
  if (!toks.ok()) return toks.status();
  Parser p(std::move(toks).ValueOrDie());
  return p.ParseStatementTop();
}

Result<std::unique_ptr<SelectStmt>> ParseSelect(const std::string& input) {
  auto st = ParseStatement(input);
  if (!st.ok()) return st.status();
  auto stmt = std::move(st).ValueOrDie();
  if (stmt->kind != StatementKind::kSelect) {
    return Status::InvalidArgument("expected a SELECT statement");
  }
  return std::move(stmt->select);
}

Result<Expr::Ptr> ParseExpression(const std::string& input) {
  auto toks = Tokenize(input);
  if (!toks.ok()) return toks.status();
  Parser p(std::move(toks).ValueOrDie());
  return p.ParseExprTop();
}

}  // namespace vdb::sql
