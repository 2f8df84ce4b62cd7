#include "analyzer.h"

#include <algorithm>
#include <cctype>
#include <sstream>

namespace vdb::lint {

namespace {

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

// Parses the body of a comment for `vdb-lint: allow(rule-a, rule-b)` and
// records one Allow entry per named rule against `line`.
void ParseAllowComment(const std::string& comment, size_t line, Analysis* out) {
  const std::string kTag = "vdb-lint:";
  size_t at = comment.find(kTag);
  if (at == std::string::npos) return;
  at += kTag.size();
  while (at < comment.size() &&
         std::isspace(static_cast<unsigned char>(comment[at]))) {
    ++at;
  }
  if (comment.compare(at, 5, "allow") != 0) return;
  const size_t open = comment.find('(', at);
  if (open == std::string::npos) return;
  const size_t close = comment.find(')', open);
  if (close == std::string::npos) return;
  std::string inside = comment.substr(open + 1, close - open - 1);
  std::string name;
  std::stringstream ss(inside);
  while (std::getline(ss, name, ',')) {
    const size_t b = name.find_first_not_of(" \t");
    const size_t e = name.find_last_not_of(" \t");
    if (b == std::string::npos) continue;
    out->allows.push_back({line, name.substr(b, e - b + 1), 0});
  }
}

// ---------------------------------------------------------------------------
// Tokenizer — identifiers, punctuation and #include targets, with comments /
// string literals / char literals / raw strings skipped so "rand" inside a
// diagnostic message never fires a rule, and with whole preprocessor lines
// (continuations included) dropped so a macro body spanning braces cannot
// skew the scope tree.
// ---------------------------------------------------------------------------

void Tokenize(const std::string& src, Analysis* out) {
  size_t i = 0;
  size_t line = 1;
  const size_t n = src.size();
  bool at_line_start = true;  // only whitespace seen since the last newline

  auto advance = [&](size_t count) {
    for (size_t k = 0; k < count && i < n; ++k) {
      if (src[i] == '\n') {
        ++line;
        at_line_start = true;
      }
      ++i;
    }
  };

  while (i < n) {
    const char c = src[i];

    if (c == '\n' || std::isspace(static_cast<unsigned char>(c))) {
      advance(1);
      continue;
    }

    // Line comment — capture it for allow() parsing, then skip to newline.
    if (c == '/' && i + 1 < n && src[i + 1] == '/') {
      const size_t start = i;
      while (i < n && src[i] != '\n') ++i;
      ParseAllowComment(src.substr(start, i - start), line, out);
      at_line_start = false;
      continue;
    }

    // Block comment. An allow() applies to the line the comment starts on.
    if (c == '/' && i + 1 < n && src[i + 1] == '*') {
      const size_t start = i;
      const size_t start_line = line;
      advance(2);
      while (i < n && !(src[i] == '*' && i + 1 < n && src[i + 1] == '/')) {
        advance(1);
      }
      ParseAllowComment(src.substr(start, i - start), start_line, out);
      advance(2);
      continue;
    }

    // Raw string literal: R"delim( ... )delim"
    if (c == 'R' && i + 1 < n && src[i + 1] == '"') {
      size_t j = i + 2;
      std::string delim;
      while (j < n && src[j] != '(' && src[j] != '\n') delim += src[j++];
      if (j < n && src[j] == '(') {
        const std::string closer = ")" + delim + "\"";
        const size_t end = src.find(closer, j + 1);
        advance((end == std::string::npos ? n : end + closer.size()) - i);
        continue;
      }
      // Not actually a raw string ("R" followed by something odd): fall
      // through and lex R as an identifier.
    }

    // String / char literal.
    if (c == '"' || c == '\'') {
      const char quote = c;
      advance(1);
      while (i < n && src[i] != quote) {
        if (src[i] == '\\' && i + 1 < n) advance(1);
        advance(1);
      }
      advance(1);
      continue;
    }

    // Preprocessor line; record #include targets, skip the rest (with
    // continuation handling so multi-line macro bodies don't leak tokens or
    // braces into the scope tree).
    if (c == '#' && at_line_start) {
      size_t j = i + 1;
      while (j < n && (src[j] == ' ' || src[j] == '\t')) ++j;
      if (src.compare(j, 7, "include") == 0) {
        j += 7;
        while (j < n && (src[j] == ' ' || src[j] == '\t')) ++j;
        if (j < n && (src[j] == '<' || src[j] == '"')) {
          const char close = src[j] == '<' ? '>' : '"';
          const size_t end = src.find(close, j + 1);
          if (end != std::string::npos) {
            out->includes.push_back({src.substr(j + 1, end - j - 1), line});
          }
        }
      }
      while (i < n && src[i] != '\n') {
        if (src[i] == '\\' && i + 1 < n && src[i + 1] == '\n') advance(1);
        advance(1);
      }
      continue;
    }
    at_line_start = false;

    if (IsIdentStart(c)) {
      const size_t start = i;
      while (i < n && IsIdentChar(src[i])) ++i;
      out->tokens.push_back(
          {TokKind::kIdent, src.substr(start, i - start), line});
      continue;
    }

    if (std::isdigit(static_cast<unsigned char>(c))) {
      const size_t start = i;
      while (i < n && (IsIdentChar(src[i]) || src[i] == '.')) ++i;
      out->tokens.push_back(
          {TokKind::kNumber, src.substr(start, i - start), line});
      continue;
    }

    // Punctuation. Only `+=` needs to be fused for the rules; everything
    // else (including < > : ( ) . , ;) is emitted one char at a time.
    if (c == '+' && i + 1 < n && src[i + 1] == '=') {
      out->tokens.push_back({TokKind::kPunct, "+=", line});
      i += 2;
      continue;
    }
    out->tokens.push_back({TokKind::kPunct, std::string(1, c), line});
    ++i;
  }
}

// ---------------------------------------------------------------------------
// Scope tree construction
// ---------------------------------------------------------------------------

bool IsPunct(const Token& t, const char* text) {
  return t.kind == TokKind::kPunct && t.text == text;
}
bool IsIdent(const Token& t, const char* text) {
  return t.kind == TokKind::kIdent && t.text == text;
}

// Index of the `(` matching the `)` at `close`, or npos.
size_t MatchingOpenParen(const std::vector<Token>& toks, size_t close) {
  int depth = 0;
  for (size_t j = close + 1; j-- > 0;) {
    if (IsPunct(toks[j], ")")) ++depth;
    else if (IsPunct(toks[j], "(")) {
      if (--depth == 0) return j;
    }
  }
  return std::string::npos;
}

// Index of the `)` matching the `(` at `open`, or npos.
size_t MatchingCloseParen(const std::vector<Token>& toks, size_t open) {
  int depth = 0;
  for (size_t j = open; j < toks.size(); ++j) {
    if (IsPunct(toks[j], "(")) ++depth;
    else if (IsPunct(toks[j], ")")) {
      if (--depth == 0) return j;
    }
  }
  return std::string::npos;
}

// A lone `:` (not half of `::`) — the range-for separator shape.
bool IsLoneColon(const std::vector<Token>& toks, size_t j) {
  if (!IsPunct(toks[j], ":")) return false;
  if (j > 0 && IsPunct(toks[j - 1], ":")) return false;
  if (j + 1 < toks.size() && IsPunct(toks[j + 1], ":")) return false;
  return true;
}

struct BraceClass {
  ScopeKind kind = ScopeKind::kBlock;
  std::string name;
  std::string class_qualifier;  // for `A::B(...) {` functions
  size_t paren_open = std::string::npos;  // header parens, when present
};

// Decides what kind of scope the `{` at token index k opens, by looking
// backwards at the statement it terminates.
BraceClass ClassifyBrace(const std::vector<Token>& toks, size_t k,
                         ScopeKind enclosing_kind) {
  BraceClass out;
  if (k == 0) return out;
  const Token& prev = toks[k - 1];

  // Keyword-introduced bodies.
  if (IsIdent(prev, "do")) { out.kind = ScopeKind::kLoop; return out; }
  if (IsIdent(prev, "else") || IsIdent(prev, "try")) return out;  // kBlock
  if (IsIdent(prev, "namespace") || IsIdent(prev, "extern")) {
    out.kind = ScopeKind::kNamespace;
    return out;
  }
  // `namespace a::b::c {` — an unbroken identifier/`::` chain introduced by
  // the `namespace` keyword (the chain walk is what makes nested-namespace
  // definitions classify correctly).
  {
    size_t j = k;
    std::string last_ident;
    for (size_t steps = 0; j > 0 && steps < 16; ++steps) {
      const Token& t = toks[j - 1];
      if (IsIdent(t, "namespace")) {
        out.kind = ScopeKind::kNamespace;
        out.name = last_ident;
        return out;
      }
      if (t.kind == TokKind::kIdent) {
        if (last_ident.empty()) last_ident = t.text;
        --j;
        continue;
      }
      if (IsPunct(t, ":")) { --j; continue; }
      break;
    }
  }

  // `[...] {` — a capture-only lambda body.
  if (IsPunct(prev, "]")) { out.kind = ScopeKind::kLambda; return out; }

  // `...) <specifiers> {` — scan back over return-type arrows / cv
  // qualifiers / override-style specifiers looking for the header `)`.
  size_t j = k;  // one past the candidate
  for (size_t steps = 0; j > 0 && steps < 24; ++steps) {
    const Token& t = toks[j - 1];
    if (IsPunct(t, ")")) break;
    const bool skippable =
        t.kind == TokKind::kIdent ||
        (t.kind == TokKind::kPunct &&
         (t.text == ">" || t.text == "<" || t.text == ":" || t.text == "*" ||
          t.text == "&" || t.text == "-" || t.text == ","));
    if (!skippable) { j = 0; break; }
    --j;
  }
  if (j > 0 && IsPunct(toks[j - 1], ")")) {
    const size_t close = j - 1;
    const size_t open = MatchingOpenParen(toks, close);
    if (open != std::string::npos && open > 0) {
      const Token& head = toks[open - 1];
      out.paren_open = open;
      if (IsIdent(head, "for") || IsIdent(head, "while")) {
        out.kind = ScopeKind::kLoop;
        return out;
      }
      if (IsIdent(head, "if") || IsIdent(head, "switch") ||
          IsIdent(head, "catch")) {
        return out;  // kBlock
      }
      if (IsPunct(head, "]")) { out.kind = ScopeKind::kLambda; return out; }
      if (head.kind == TokKind::kIdent &&
          (enclosing_kind == ScopeKind::kFile ||
           enclosing_kind == ScopeKind::kNamespace ||
           enclosing_kind == ScopeKind::kClass)) {
        out.kind = ScopeKind::kFunction;
        out.name = head.text;
        // `A::B(...)` — record the qualifier as the class name.
        if (open >= 4 && IsPunct(toks[open - 2], ":") &&
            IsPunct(toks[open - 3], ":") &&
            toks[open - 4].kind == TokKind::kIdent) {
          out.class_qualifier = toks[open - 4].text;
        }
        return out;
      }
      return out;  // kBlock: `)` headers inside function bodies
    }
    return out;  // unmatched paren — play it safe
  }

  // class / struct / union / enum definition: scan the statement backwards
  // for the introducing keyword (base clauses and template arguments may
  // intervene; a `;` / `{` / `}` / `)` ends the statement).
  for (size_t b = k, steps = 0; b > 0 && steps < 64; ++steps) {
    const Token& t = toks[b - 1];
    if (t.kind == TokKind::kPunct &&
        (t.text == ";" || t.text == "{" || t.text == "}" || t.text == ")")) {
      break;
    }
    if (t.kind == TokKind::kIdent &&
        (t.text == "class" || t.text == "struct" || t.text == "union" ||
         t.text == "enum")) {
      out.kind = t.text == "enum" ? ScopeKind::kEnum : ScopeKind::kClass;
      // `enum class Name` / `struct Name final : Base` — the name is the
      // first plain identifier after the keyword chain.
      for (size_t m = b; m < k; ++m) {
        if (toks[m].kind == TokKind::kIdent && toks[m].text != "class" &&
            toks[m].text != "final") {
          out.name = toks[m].text;
          break;
        }
        if (toks[m].kind == TokKind::kPunct && toks[m].text == ":") break;
      }
      return out;
    }
    --b;
  }

  return out;  // kBlock: init-lists, compound statements, everything else
}

// ---------------------------------------------------------------------------
// Post-tree passes
// ---------------------------------------------------------------------------

const std::unordered_set<std::string>& Keywords() {
  static const std::unordered_set<std::string> kw = {
      "if",       "for",      "while",        "switch",  "return",
      "sizeof",   "alignof",  "static_cast",  "const_cast",
      "dynamic_cast", "reinterpret_cast", "new", "delete", "throw",
      "catch",    "do",       "else",         "case",    "default",
      "decltype", "noexcept", "static_assert", "alignas", "typeid",
      "co_return", "co_await", "co_yield",
  };
  return kw;
}

void CollectFunctionFacts(Analysis* a) {
  for (FunctionInfo& fn : a->functions) {
    const Scope& s = a->scopes[static_cast<size_t>(fn.scope)];
    for (size_t k = s.first_token; k < s.last_token; ++k) {
      const Token& t = a->tokens[k];
      if (t.kind != TokKind::kIdent) continue;
      const bool called = k + 1 < a->tokens.size() &&
                          IsPunct(a->tokens[k + 1], "(") &&
                          !Keywords().count(t.text);
      const bool member =
          k > 0 && (IsPunct(a->tokens[k - 1], ".") ||
                    (IsPunct(a->tokens[k - 1], ">") && k > 1 &&
                     IsPunct(a->tokens[k - 2], "-")));
      if (called) fn.calls.insert(t.text);
      if (member) fn.members_touched.insert(t.text);
    }
  }
}

void CollectUnorderedVars(Analysis* a) {
  static const std::unordered_set<std::string> kUnordered = {
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset"};
  const std::vector<Token>& toks = a->tokens;
  for (size_t k = 0; k + 1 < toks.size(); ++k) {
    if (toks[k].kind != TokKind::kIdent || !kUnordered.count(toks[k].text) ||
        !IsPunct(toks[k + 1], "<")) {
      continue;
    }
    // Match the template argument list (bailing on statement terminators so
    // a stray comparison `a < b` can't send us off the rails).
    int depth = 1;
    size_t j = k + 2;
    for (size_t steps = 0; j < toks.size() && depth > 0 && steps < 256;
         ++j, ++steps) {
      const Token& u = toks[j];
      if (u.kind != TokKind::kPunct) continue;
      if (u.text == "<") ++depth;
      else if (u.text == ">") --depth;
      else if (u.text == ";" || u.text == "{" || u.text == "}") break;
    }
    if (depth != 0) continue;
    // Skip ref/pointer/cv decoration between the type and the declared name.
    while (j < toks.size() &&
           ((toks[j].kind == TokKind::kPunct &&
             (toks[j].text == "&" || toks[j].text == "*")) ||
            IsIdent(toks[j], "const"))) {
      ++j;
    }
    if (j < toks.size() && toks[j].kind == TokKind::kIdent &&
        !Keywords().count(toks[j].text)) {
      a->unordered_vars.insert(toks[j].text);
    }
  }
}

void CollectSyncSafeClasses(Analysis* a) {
  static const std::unordered_set<std::string> kSafeMarkers = {
      "atomic", "Mutex", "MutexLock", "CondVar", "const", "constexpr",
      "static", "mutex_", "GUARDED_BY"};
  for (size_t si = 0; si < a->scopes.size(); ++si) {
    const Scope& s = a->scopes[si];
    if (s.kind != ScopeKind::kClass || s.name.empty()) continue;
    bool all_safe = true;
    // Walk the class's own tokens (nested method bodies belong to child
    // scopes and are skipped). Statements split on `;`, and also on gaps
    // left by a nested scope so a method body never glues two declarations
    // together.
    std::vector<const Token*> stmt;
    size_t prev_index = s.first_token;  // detects gaps (nested scopes)
    bool stmt_safe = false, stmt_has_paren = false, stmt_has_ident = false;
    auto flush = [&]() {
      if (stmt_has_ident && !stmt_has_paren && !stmt_safe) all_safe = false;
      stmt.clear();
      stmt_safe = stmt_has_paren = stmt_has_ident = false;
    };
    for (size_t k = s.first_token; k < s.last_token && all_safe; ++k) {
      if (a->token_scope[k] != static_cast<int>(si)) continue;
      if (k > prev_index + 1) flush();  // a nested scope intervened
      prev_index = k;
      const Token& t = a->tokens[k];
      if (IsPunct(t, ";")) { flush(); continue; }
      // Access labels restart the statement.
      if (t.kind == TokKind::kIdent &&
          (t.text == "public" || t.text == "private" ||
           t.text == "protected") &&
          k + 1 < s.last_token && IsPunct(a->tokens[k + 1], ":")) {
        flush();
        ++k;
        prev_index = k;
        continue;
      }
      if (t.kind == TokKind::kIdent &&
          (t.text == "using" || t.text == "typedef" || t.text == "friend" ||
           t.text == "static_assert" || t.text == "enum")) {
        stmt_safe = true;
      }
      if (t.kind == TokKind::kIdent && kSafeMarkers.count(t.text)) {
        stmt_safe = true;
      }
      if (IsPunct(t, "(")) stmt_has_paren = true;
      if (t.kind == TokKind::kIdent) stmt_has_ident = true;
      stmt.push_back(&t);
    }
    flush();
    if (all_safe) a->sync_safe_classes.insert(s.name);
  }
}

}  // namespace

bool Analysis::CallsTransitively(
    const std::string& name,
    const std::unordered_set<std::string>& facts) const {
  if (facts.count(name)) return true;
  std::unordered_set<int> visited;
  std::vector<int> work;
  auto push_name = [&](const std::string& n) {
    auto it = functions_by_name.find(n);
    if (it == functions_by_name.end()) return;
    for (int fi : it->second) {
      if (visited.insert(fi).second) work.push_back(fi);
    }
  };
  push_name(name);
  while (!work.empty()) {
    const FunctionInfo& fn = functions[static_cast<size_t>(work.back())];
    work.pop_back();
    for (const std::string& callee : fn.calls) {
      if (facts.count(callee)) return true;
      push_name(callee);
    }
  }
  return false;
}

int Analysis::EnclosingFunctionScope(int scope_index) const {
  for (int s = scope_index; s >= 0; s = scopes[static_cast<size_t>(s)].parent) {
    if (scopes[static_cast<size_t>(s)].function_index >= 0) return s;
  }
  return -1;
}

Analysis Analyze(const std::string& src) {
  Analysis a;
  Tokenize(src, &a);

  const std::vector<Token>& toks = a.tokens;
  a.token_scope.assign(toks.size(), 0);

  Scope file;
  file.kind = ScopeKind::kFile;
  file.first_token = 0;
  file.last_token = toks.size();
  a.scopes.push_back(file);

  std::vector<int> stack = {0};
  int pending_range_for = -1;  // RangeFor awaiting its `{`, if any

  for (size_t k = 0; k < toks.size(); ++k) {
    const Token& t = toks[k];
    a.token_scope[k] = stack.back();

    // Record every range-based for (braced or not) as we pass its header.
    if (IsIdent(t, "for") && k + 1 < toks.size() && IsPunct(toks[k + 1], "(")) {
      const size_t close = MatchingCloseParen(toks, k + 1);
      if (close != std::string::npos) {
        size_t colon = std::string::npos;
        int depth = 0;
        bool has_semi = false;
        for (size_t j = k + 1; j < close; ++j) {
          if (IsPunct(toks[j], "(")) ++depth;
          else if (IsPunct(toks[j], ")")) --depth;
          else if (depth == 1 && IsPunct(toks[j], ";")) has_semi = true;
          else if (depth == 1 && colon == std::string::npos &&
                   IsLoneColon(toks, j)) {
            colon = j;
          }
        }
        if (!has_semi && colon != std::string::npos) {
          RangeFor rf;
          rf.line = t.line;
          rf.enclosing_scope = stack.back();
          rf.range_begin = colon + 1;
          rf.range_end = close;
          pending_range_for = static_cast<int>(a.range_fors.size());
          a.range_fors.push_back(rf);
        } else {
          pending_range_for = -1;
        }
      }
    }

    if (IsPunct(t, "{")) {
      const BraceClass bc = ClassifyBrace(
          toks, k, a.scopes[static_cast<size_t>(stack.back())].kind);
      Scope s;
      s.kind = bc.kind;
      s.name = bc.name;
      s.parent = stack.back();
      s.open_line = t.line;
      s.first_token = k + 1;
      s.last_token = toks.size();  // patched when the brace closes
      const int index = static_cast<int>(a.scopes.size());

      if (bc.kind == ScopeKind::kLoop && pending_range_for >= 0 &&
          bc.paren_open != std::string::npos) {
        s.loop_is_range_for = true;
        s.range_for_index = pending_range_for;
        a.range_fors[static_cast<size_t>(pending_range_for)].scope = index;
        pending_range_for = -1;
      }
      if (bc.kind == ScopeKind::kFunction) {
        FunctionInfo fn;
        fn.scope = index;
        fn.name = bc.name;
        fn.class_name = bc.class_qualifier;  // may be refined below
        a.functions.push_back(fn);
        s.function_index = static_cast<int>(a.functions.size()) - 1;
      }
      if (bc.kind == ScopeKind::kLambda &&
          a.EnclosingFunctionScope(stack.back()) < 0) {
        // File-scope lambda (e.g. a global's immediately-invoked
        // initializer): give it facts of its own so reachability still works.
        FunctionInfo fn;
        fn.scope = index;
        a.functions.push_back(fn);
        s.function_index = static_cast<int>(a.functions.size()) - 1;
      }

      a.scopes[static_cast<size_t>(stack.back())].children.push_back(index);
      a.scopes.push_back(s);
      stack.push_back(index);
      continue;
    }

    if (IsPunct(t, "}")) {
      if (stack.size() > 1) {
        a.scopes[static_cast<size_t>(stack.back())].last_token = k;
        a.token_scope[k] =
            a.scopes[static_cast<size_t>(stack.back())].parent;
        stack.pop_back();
      }
      continue;
    }
  }
  // Unclosed scopes (truncated input): leave last_token at end-of-stream.

  // Finish function metadata now that names/classes are known.
  for (FunctionInfo& fn : a.functions) {
    const Scope& s = a.scopes[static_cast<size_t>(fn.scope)];
    for (int p = s.parent; p >= 0;
         p = a.scopes[static_cast<size_t>(p)].parent) {
      if (a.scopes[static_cast<size_t>(p)].kind == ScopeKind::kClass) {
        fn.class_name = a.scopes[static_cast<size_t>(p)].name;
        break;
      }
    }
    if (!fn.name.empty()) {
      a.functions_by_name[fn.name].push_back(
          static_cast<int>(&fn - a.functions.data()));
    }
  }

  CollectFunctionFacts(&a);
  CollectUnorderedVars(&a);
  CollectSyncSafeClasses(&a);
  return a;
}

}  // namespace vdb::lint
