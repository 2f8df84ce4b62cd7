#include "lint.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "analyzer.h"

namespace vdb::lint {

namespace {

bool IsPunct(const Token& t, const char* text) {
  return t.kind == TokKind::kPunct && t.text == text;
}
bool IsIdent(const Token& t, const char* text) {
  return t.kind == TokKind::kIdent && t.text == text;
}

// ---------------------------------------------------------------------------
// Rule plumbing
// ---------------------------------------------------------------------------

struct Ctx {
  const std::string& path;  // slash-normalized
  Analysis& src;            // allow() hit counts mutate during Emit
  Report* report;
  RuleStat* stat = nullptr;  // the rule currently running

  bool PathEndsWith(const std::string& suffix) const {
    return path.size() >= suffix.size() &&
           path.compare(path.size() - suffix.size(), suffix.size(), suffix) ==
               0;
  }
  bool PathContains(const std::string& piece) const {
    return path.find(piece) != std::string::npos;
  }

  void Emit(const std::string& rule, size_t line, const std::string& message) {
    for (Allow& a : src.allows) {
      if (a.line == line && a.rule == rule) {
        ++a.hits;
        ++report->suppressions_used;
        if (stat != nullptr) ++stat->suppressions;
        return;
      }
    }
    report->violations.push_back({path, line, rule, message});
    if (stat != nullptr) ++stat->violations;
  }
};

// --- rng-outside-random -----------------------------------------------------
//
// Draws must route through the row-addressed substrate in common/random.*;
// a stray rand() or thread-local mt19937 reintroduces draw-order dependence
// and breaks run-to-run reproducibility of the parallel executor.
void RuleRngOutsideRandom(Ctx& ctx) {
  static const char* kRule = "rng-outside-random";
  if (ctx.PathEndsWith("common/random.h") ||
      ctx.PathEndsWith("common/random.cc")) {
    return;
  }
  static const std::unordered_set<std::string> kBanned = {
      "rand",          "srand",        "rand_r",
      "drand48",       "lrand48",      "srand48",
      "mt19937",       "mt19937_64",   "random_device",
      "minstd_rand",   "minstd_rand0", "default_random_engine",
      "ranlux24",      "ranlux48",     "knuth_b",
  };
  for (const Token& t : ctx.src.tokens) {
    if (t.kind == TokKind::kIdent && kBanned.count(t.text)) {
      ctx.Emit(kRule, t.line,
               "'" + t.text +
                   "' bypasses the row-addressed RNG; use vdb::Rng / RandAt "
                   "from common/random.h");
    }
  }
  for (const Include& inc : ctx.src.includes) {
    // <cstdlib> is fine by itself (exit, getenv, strtol live there); only
    // <random> implies an engine is about to be constructed.
    if (inc.header == "random") {
      ctx.Emit(kRule, inc.line,
               "#include <random> outside common/random.*; engines live "
               "behind vdb::Rng");
    }
  }
}

// --- simd-outside-kernel-tu -------------------------------------------------
//
// kernels_avx2.cc is the only TU compiled with -mavx2; an intrinsic anywhere
// else either SIGILLs on baseline CPUs or forces the flag onto the whole
// build.
void RuleSimdOutsideKernelTu(Ctx& ctx) {
  static const char* kRule = "simd-outside-kernel-tu";
  if (ctx.PathEndsWith("engine/kernels/kernels_avx2.cc")) return;
  static const std::unordered_set<std::string> kHeaders = {
      "immintrin.h", "x86intrin.h", "emmintrin.h", "xmmintrin.h",
      "avxintrin.h", "avx2intrin.h", "smmintrin.h", "tmmintrin.h",
      "nmmintrin.h", "pmmintrin.h",
  };
  for (const Include& inc : ctx.src.includes) {
    if (kHeaders.count(inc.header)) {
      ctx.Emit(kRule, inc.line,
               "#include <" + inc.header +
                   "> outside engine/kernels/kernels_avx2.cc (the only TU "
                   "built with -mavx2)");
    }
  }
  auto is_intrinsic = [](const std::string& s) {
    auto starts = [&s](const char* p) { return s.rfind(p, 0) == 0; };
    return starts("_mm_") || starts("_mm256_") || starts("_mm512_") ||
           starts("__m128") || starts("__m256") || starts("__m512");
  };
  for (const Token& t : ctx.src.tokens) {
    if (t.kind == TokKind::kIdent && is_intrinsic(t.text)) {
      ctx.Emit(kRule, t.line,
               "intrinsic '" + t.text +
                   "' outside engine/kernels/kernels_avx2.cc");
    }
  }
}

// --- string-keyed-map -------------------------------------------------------
//
// Under src/engine/ a std::map / std::unordered_map keyed by std::string is
// the per-row hash-map shape PRs 4/7 replaced with flat hashed tables; new
// ones are either a hot-path regression or plan-time metadata that should
// say so with an allow() comment.
void RuleStringKeyedMap(Ctx& ctx) {
  static const char* kRule = "string-keyed-map";
  if (!ctx.PathContains("src/engine/")) return;
  const std::vector<Token>& toks = ctx.src.tokens;
  for (size_t k = 0; k + 1 < toks.size(); ++k) {
    const Token& t = toks[k];
    if (t.kind != TokKind::kIdent ||
        (t.text != "map" && t.text != "unordered_map")) {
      continue;
    }
    if (!IsPunct(toks[k + 1], "<")) continue;
    // Scan the first template argument (depth-1 tokens up to the first ','
    // or the closing '>').
    int depth = 1;
    bool string_key = false;
    for (size_t j = k + 2; j < toks.size() && depth > 0; ++j) {
      const Token& u = toks[j];
      if (u.kind == TokKind::kPunct) {
        if (u.text == "<") ++depth;
        else if (u.text == ">") --depth;
        else if (u.text == "," && depth == 1) break;
        else if (u.text == ";" || u.text == "{") break;  // not a template
      } else if (u.kind == TokKind::kIdent && depth == 1 &&
                 u.text == "string") {
        string_key = true;
      }
    }
    if (string_key) {
      ctx.Emit(kRule, t.line,
               "std::" + t.text +
                   " keyed by std::string in src/engine/; hot paths use the "
                   "flat hashed tables (agg_table.h / join_table.h)");
    }
  }
}

// --- raw-double-accumulate --------------------------------------------------
//
// In the aggregate kernels, `+=` straight onto a sum/comp accumulator member
// skips Neumaier compensation, so 1-thread and N-thread results stop being
// bit-identical. All float accumulation goes through NeumaierAdd.
void RuleRawDoubleAccumulate(Ctx& ctx) {
  static const char* kRule = "raw-double-accumulate";
  if (!ctx.PathEndsWith("engine/aggregates.cc") &&
      !ctx.PathEndsWith("engine/agg_table.cc")) {
    return;
  }
  static const std::unordered_set<std::string> kAccumulators = {
      "sum", "sum_", "sums", "sums_", "comp", "comp_", "comps", "comps_",
  };
  const std::vector<Token>& toks = ctx.src.tokens;
  for (size_t k = 0; k < toks.size(); ++k) {
    if (!IsPunct(toks[k], "+=")) continue;
    // Walk left over a possible [index] to the target identifier.
    size_t j = k;
    if (j > 0 && IsPunct(toks[j - 1], "]")) {
      int depth = 1;
      --j;
      while (j > 0 && depth > 0) {
        --j;
        if (toks[j].kind == TokKind::kPunct) {
          if (toks[j].text == "]") ++depth;
          if (toks[j].text == "[") --depth;
        }
      }
    }
    if (j == 0) continue;
    const Token& target = toks[j - 1];
    if (target.kind == TokKind::kIdent && kAccumulators.count(target.text)) {
      ctx.Emit(kRule, toks[k].line,
               "raw '+=' on accumulator '" + target.text +
                   "'; route through NeumaierAdd to keep serial/parallel "
                   "results bit-identical");
    }
  }
}

// --- naked-size-narrowing ---------------------------------------------------
//
// Row ids narrow to uint32_t only behind the explicit 2^32 Status guards; a
// static_cast<uint32_t>(x.size()) with no allow() comment is a silent
// truncation waiting for a big table.
void RuleNakedSizeNarrowing(Ctx& ctx) {
  static const char* kRule = "naked-size-narrowing";
  if (!ctx.PathContains("src/engine/") && !ctx.PathContains("src/common/")) {
    return;
  }
  const std::vector<Token>& toks = ctx.src.tokens;
  for (size_t k = 0; k + 4 < toks.size(); ++k) {
    // static_cast < uint32_t > ( ... .size() ... )
    if (!IsIdent(toks[k], "static_cast")) continue;
    if (toks[k + 1].text != "<" || toks[k + 2].text != "uint32_t" ||
        toks[k + 3].text != ">" || toks[k + 4].text != "(") {
      continue;
    }
    int depth = 1;
    for (size_t j = k + 5; j < toks.size() && depth > 0; ++j) {
      const Token& u = toks[j];
      if (u.kind == TokKind::kPunct) {
        if (u.text == "(") ++depth;
        if (u.text == ")") --depth;
      } else if (u.kind == TokKind::kIdent && u.text == "size" && j >= 1 &&
                 (toks[j - 1].text == "." ||
                  (j >= 2 && toks[j - 1].text == ">" &&
                   toks[j - 2].text == "-")) &&
                 j + 1 < toks.size() && toks[j + 1].text == "(") {
        ctx.Emit(kRule, toks[k].line,
                 "static_cast<uint32_t>(...size()) without a 2^32 guard "
                 "acknowledgment; check the row count first (see "
                 "docs/INVARIANTS.md)");
        break;
      }
    }
  }
}

// The governed hot TUs: engine structures whose footprint and iteration
// counts are row-proportional, where PR 9 planted the budget charges and
// cancellation poll points. naked-reserve and ungoverned-loop share this
// scope.
bool InGovernedTu(const Ctx& ctx) {
  return ctx.PathEndsWith("engine/join_table.cc") ||
         ctx.PathEndsWith("engine/join_table.h") ||
         ctx.PathEndsWith("engine/agg_table.cc") ||
         ctx.PathEndsWith("engine/agg_table.h") ||
         ctx.PathEndsWith("engine/operators.cc");
}

// --- naked-reserve ----------------------------------------------------------
//
// In the governed hot TUs every reserve/resize must be budget-charged
// through ExecGuard::TryReserve (via Charge(), GuardTryReserve, or
// ScopedReservation) or carry an allow() naming the exemption: fixed-size
// chunk, column-count bounded, or charged by the caller. An unannotated
// reserve is how an over-budget query turns into an std::bad_alloc abort
// instead of a clean kResourceExhausted.
void RuleNakedReserve(Ctx& ctx) {
  static const char* kRule = "naked-reserve";
  if (!InGovernedTu(ctx)) return;
  const std::vector<Token>& toks = ctx.src.tokens;
  for (size_t k = 1; k + 1 < toks.size(); ++k) {
    const Token& t = toks[k];
    if (t.kind != TokKind::kIdent ||
        (t.text != "reserve" && t.text != "resize")) {
      continue;
    }
    if (!IsPunct(toks[k + 1], "(")) continue;
    // Member call only: `x.reserve(` or `x->reserve(` (the tokenizer emits
    // '-' and '>' as separate punctuation).
    const Token& prev = toks[k - 1];
    const bool member =
        prev.kind == TokKind::kPunct &&
        (prev.text == "." ||
         (prev.text == ">" && k >= 2 && IsPunct(toks[k - 2], "-")));
    if (!member) continue;
    ctx.Emit(kRule, t.line,
             "'" + t.text +
                 "' without a budget charge in a governed TU; route through "
                 "ExecGuard::TryReserve (Charge / GuardTryReserve / "
                 "ScopedReservation) or add an allow() with the exemption "
                 "rationale");
  }
}

// --- unordered-iteration-in-result-path -------------------------------------
//
// Iterating a hash table is the one bit-identity breaker no differential
// fuzz suite reliably catches: libstdc++'s iteration order is stable for a
// fixed build, so serial-vs-parallel comparisons pass locally and the
// nondeterminism only surfaces under a different standard library, hash
// seed, or allocation history. In the result-producing layers (src/engine,
// src/estimator, src/integrated, src/core) a range-for over an
// unordered_map/unordered_set inside a function that emits output rows must
// iterate sorted keys or index-addressed storage instead.
void RuleUnorderedIterationInResultPath(Ctx& ctx) {
  static const char* kRule = "unordered-iteration-in-result-path";
  if (!ctx.PathContains("src/engine/") && !ctx.PathContains("src/estimator/") &&
      !ctx.PathContains("src/integrated/") && !ctx.PathContains("src/core/")) {
    return;
  }
  static const std::unordered_set<std::string> kUnorderedTypes = {
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset"};
  // The facts that make a function "result-producing": it appends rows or
  // values to an output container, directly or through a same-file callee.
  static const std::unordered_set<std::string> kSinks = {
      "AppendRow",   "AppendValue",  "AppendRange", "AppendSelected",
      "Append",      "push_back",    "emplace_back", "AddRow",
  };
  const Analysis& src = ctx.src;
  for (const RangeFor& rf : src.range_fors) {
    bool unordered = false;
    for (size_t k = rf.range_begin; k < rf.range_end && !unordered; ++k) {
      const Token& t = src.tokens[k];
      if (t.kind != TokKind::kIdent) continue;
      if (kUnorderedTypes.count(t.text) || src.unordered_vars.count(t.text)) {
        unordered = true;
      }
    }
    if (!unordered) continue;
    const int fscope = src.EnclosingFunctionScope(rf.enclosing_scope);
    if (fscope < 0) continue;
    const FunctionInfo& fn = src.functions[static_cast<size_t>(
        src.scopes[static_cast<size_t>(fscope)].function_index)];
    bool result_producing = false;
    for (const std::string& call : fn.calls) {
      if (src.CallsTransitively(call, kSinks)) {
        result_producing = true;
        break;
      }
    }
    if (!result_producing) continue;
    ctx.Emit(kRule, rf.line,
             "range-for over an unordered container in result-producing "
             "function '" +
                 (fn.name.empty() ? std::string("<lambda>") : fn.name) +
                 "'; hash iteration order is nondeterministic — sort the "
                 "keys or address by index before emitting output");
  }
}

// --- ungoverned-loop --------------------------------------------------------
//
// PR 9's cancellation contract: every row-proportional site in a governed TU
// polls the ExecGuard (GuardCheck at batch boundaries, TryReserve before
// growth) so a cancel/deadline/budget trip unwinds promptly. A loop whose
// body emits per-row output but has no poll fact reachable — in its own
// body, through a same-file callee, through an enclosing loop, or anywhere
// in its enclosing function — is a new operator regressing that contract.
void RuleUngovernedLoop(Ctx& ctx) {
  static const char* kRule = "ungoverned-loop";
  if (!InGovernedTu(ctx)) return;
  static const std::unordered_set<std::string> kPolls = {
      "GuardCheck",        "GuardTryReserve",
      "TryReserve",        "Check",
      "ScopedReservation", "guard_status",
      "guard_status_",     "GatherGuarded",
      "ParallelForStatus", "ParallelMorselMapStatus"};
  static const std::unordered_set<std::string> kEmits = {
      "push_back", "emplace_back", "insert",        "Append",
      "AppendRow", "AppendRange",  "AppendSelected"};
  const Analysis& src = ctx.src;

  // A token span "reaches a poll" if it names one directly or calls a
  // same-file function whose transitive call facts include one.
  auto span_reaches_poll = [&](size_t first, size_t last) {
    for (size_t k = first; k < last; ++k) {
      const Token& t = src.tokens[k];
      if (t.kind != TokKind::kIdent) continue;
      if (kPolls.count(t.text)) return true;
      if (k + 1 < src.tokens.size() && IsPunct(src.tokens[k + 1], "(") &&
          src.CallsTransitively(t.text, kPolls)) {
        return true;
      }
    }
    return false;
  };

  for (size_t si = 0; si < src.scopes.size(); ++si) {
    const Scope& s = src.scopes[si];
    if (s.kind != ScopeKind::kLoop) continue;
    // Per-row work: the body appends to some container.
    bool emits = false;
    for (size_t k = s.first_token; k + 1 < s.last_token && !emits; ++k) {
      const Token& t = src.tokens[k];
      if (t.kind == TokKind::kIdent && kEmits.count(t.text) &&
          IsPunct(src.tokens[k + 1], "(") && k > 0 &&
          (IsPunct(src.tokens[k - 1], ".") ||
           (IsPunct(src.tokens[k - 1], ">") && k > 1 &&
            IsPunct(src.tokens[k - 2], "-")))) {
        emits = true;
      }
    }
    if (!emits) continue;
    // Governed if a poll fact is reachable from the loop body or anywhere in
    // the enclosing function (the poll typically sits at the enclosing
    // chunk-claim boundary rather than inside the innermost loop).
    if (span_reaches_poll(s.first_token, s.last_token)) continue;
    const int fscope = src.EnclosingFunctionScope(s.parent);
    if (fscope >= 0) {
      const Scope& f = src.scopes[static_cast<size_t>(fscope)];
      if (span_reaches_poll(f.first_token, f.last_token)) continue;
    }
    ctx.Emit(kRule, s.open_line,
             "loop emits per-row output but no GuardCheck/TryReserve poll "
             "fact is reachable from its body or enclosing function; add a "
             "poll point (see docs/INVARIANTS.md, cancellation contract)");
  }
}

// --- raw-mutex --------------------------------------------------------------
//
// Raw std:: synchronization primitives are invisible to clang's
// -Wthread-safety analysis; only the CAPABILITY-annotated wrappers in
// common/thread_annotations.h (Mutex, MutexLock, CondVar) participate in
// GUARDED_BY/REQUIRES checking. A raw std::mutex compiles fine and silently
// excludes its critical sections from the analysis the lint CI leg exists
// to run.
void RuleRawMutex(Ctx& ctx) {
  static const char* kRule = "raw-mutex";
  if (ctx.PathEndsWith("common/thread_annotations.h")) return;
  static const std::unordered_set<std::string> kBanned = {
      "mutex",          "recursive_mutex",
      "timed_mutex",    "recursive_timed_mutex",
      "shared_mutex",   "shared_timed_mutex",
      "lock_guard",     "unique_lock",
      "scoped_lock",    "shared_lock",
      "condition_variable", "condition_variable_any"};
  static const std::unordered_set<std::string> kHeaders = {
      "mutex", "shared_mutex", "condition_variable"};
  for (const Include& inc : ctx.src.includes) {
    if (kHeaders.count(inc.header)) {
      ctx.Emit(kRule, inc.line,
               "#include <" + inc.header +
                   "> outside common/thread_annotations.h; use the annotated "
                   "Mutex/MutexLock/CondVar wrappers");
    }
  }
  for (const Token& t : ctx.src.tokens) {
    if (t.kind == TokKind::kIdent && kBanned.count(t.text)) {
      ctx.Emit(kRule, t.line,
               "raw 'std::" + t.text +
                   "' escapes thread-safety analysis; use the annotated "
                   "wrappers in common/thread_annotations.h");
    }
  }
}

// --- mutable-shared-static --------------------------------------------------
//
// Shared mutable state that isn't atomic, Mutex-guarded, or const is exactly
// how the PR 8 shared-Database races happened, and it is invisible to the
// annotation layer unless someone remembers to write GUARDED_BY. Under
// src/engine/ a non-const function-local static or namespace-scope variable
// must be atomic, Mutex-protected, const/constexpr, or an instance of a
// same-file class whose every data member is already synchronized.
void RuleMutableSharedStatic(Ctx& ctx) {
  static const char* kRule = "mutable-shared-static";
  if (!ctx.PathContains("src/engine/")) return;
  static const std::unordered_set<std::string> kSafeMarkers = {
      "const", "constexpr", "atomic", "Mutex", "MutexLock", "CondVar",
      "thread_local"};
  const Analysis& src = ctx.src;
  const std::vector<Token>& toks = src.tokens;

  // (a) Function-local statics.
  for (size_t k = 0; k < toks.size(); ++k) {
    if (!IsIdent(toks[k], "static")) continue;
    const int sk = src.token_scope[k];
    if (src.EnclosingFunctionScope(sk) < 0) continue;  // not in a function
    // Collect the declaration statement: this scope's own tokens up to `;`.
    bool safe = false;
    std::string first_type_ident;
    const Scope& scope = src.scopes[static_cast<size_t>(sk)];
    for (size_t j = k + 1; j < scope.last_token; ++j) {
      if (src.token_scope[j] != sk) continue;  // skip init-brace innards
      const Token& t = toks[j];
      if (IsPunct(t, ";")) break;
      if (t.kind == TokKind::kIdent) {
        if (kSafeMarkers.count(t.text)) safe = true;
        if (first_type_ident.empty() && t.text != "std" &&
            t.text != "struct" && t.text != "class") {
          first_type_ident = t.text;
        }
      }
    }
    if (!safe && src.sync_safe_classes.count(first_type_ident)) safe = true;
    if (!safe) {
      ctx.Emit(kRule, toks[k].line,
               "non-const function-local static without atomic/Mutex "
               "protection; shared mutable state must be synchronized (or "
               "const) — see docs/INVARIANTS.md");
    }
  }

  // (b) Namespace-scope variables.
  for (size_t si = 0; si < src.scopes.size(); ++si) {
    const Scope& s = src.scopes[si];
    if (s.kind != ScopeKind::kFile && s.kind != ScopeKind::kNamespace) {
      continue;
    }
    // Statements over the scope's own tokens; a gap (nested scope) or brace
    // token also terminates a statement, so function bodies and init-lists
    // never glue declarations together.
    size_t stmt_line = 0;
    size_t prev_index = s.first_token;
    bool safe = false, has_paren = false, skip = false, any_ident = false;
    std::string first_ident, first_type_ident;
    auto flush = [&]() {
      if (any_ident && !has_paren && !skip && !safe &&
          !src.sync_safe_classes.count(first_type_ident)) {
        ctx.Emit(kRule, stmt_line,
                 "mutable namespace-scope state '" + first_type_ident +
                     " ...' without atomic/Mutex protection; wrap it in "
                     "std::atomic / Mutex (GUARDED_BY) or make it "
                     "const/constexpr");
      }
      stmt_line = 0;
      safe = has_paren = skip = any_ident = false;
      first_ident.clear();
      first_type_ident.clear();
    };
    for (size_t k = s.first_token; k < s.last_token; ++k) {
      if (src.token_scope[k] != static_cast<int>(si)) continue;
      if (k > prev_index + 1 && prev_index != s.first_token) flush();
      prev_index = k;
      const Token& t = toks[k];
      if (t.kind == TokKind::kPunct &&
          (t.text == ";" || t.text == "{" || t.text == "}")) {
        flush();
        continue;
      }
      if (stmt_line == 0) stmt_line = t.line;
      if (t.kind == TokKind::kIdent) {
        if (first_ident.empty()) {
          first_ident = t.text;
          static const std::unordered_set<std::string> kSkipStarters = {
              "using",  "typedef", "extern",   "template", "friend",
              "static_assert",     "namespace", "struct",  "class",
              "union",  "enum",    "public",   "private",  "protected"};
          if (kSkipStarters.count(t.text)) skip = true;
        }
        if (kSafeMarkers.count(t.text)) safe = true;
        if (first_type_ident.empty() && t.text != "std" &&
            t.text != "static" && t.text != "inline") {
          first_type_ident = t.text;
        }
        any_ident = true;
      }
      if (IsPunct(t, "(")) has_paren = true;
    }
    flush();
  }
}

// --- row-interpreter-call ---------------------------------------------------
//
// Operators evaluate expressions column-at-a-time (EvalExprBatch /
// EvalPredicateBatch) and aggregate through the FlatAggregator lanes. The
// row interpreter is a test oracle (tests/oracle/); a call to it under src/
// is how a per-row evaluation loop — a second, slower implementation beside
// the batch one — creeps back into the library. No file under src/ is
// exempt.
void RuleRowInterpreterCall(Ctx& ctx) {
  static const char* kRule = "row-interpreter-call";
  if (!ctx.PathContains("src/")) return;
  const std::vector<Token>& toks = ctx.src.tokens;
  for (size_t k = 0; k + 1 < toks.size(); ++k) {
    if ((IsIdent(toks[k], "EvalExpr") || IsIdent(toks[k], "EvalPredicate")) &&
        IsPunct(toks[k + 1], "(")) {
      ctx.Emit(kRule, toks[k].line,
               "'" + toks[k].text +
                   "' evaluates one row at a time; operators evaluate "
                   "column-at-a-time through EvalExprBatch / "
                   "EvalPredicateBatch (engine/vector_eval.h)");
    }
  }
}

// --- serial-fork ------------------------------------------------------------
//
// The thread pool runs one thread, or one morsel, inline in morsel order, so
// the thread count decides only how many threads run the same morsels. A
// comparison of a thread count against 1 outside common/thread_pool.* is a
// caller-side serial branch: a second copy of the operator's loop that can
// drift from the morsel path (the serial join probe once skipped its budget
// charge this way).
void RuleSerialFork(Ctx& ctx) {
  static const char* kRule = "serial-fork";
  if (!ctx.PathContains("src/") || ctx.PathEndsWith("common/thread_pool.h") ||
      ctx.PathEndsWith("common/thread_pool.cc")) {
    return;
  }
  static const std::unordered_set<std::string> kCounts = {
      "num_threads", "num_threads_", "max_threads", "max_threads_"};
  const std::vector<Token>& toks = ctx.src.tokens;
  // Tokens of a comparison operator starting at k (the tokenizer emits
  // punctuation one char at a time), or 0 when k starts none. `<<`, `>>`
  // and `=` alone are not comparisons.
  auto comparison_at = [&](size_t k) -> size_t {
    if (k >= toks.size() || toks[k].kind != TokKind::kPunct) return 0;
    const bool eq_next = k + 1 < toks.size() && IsPunct(toks[k + 1], "=");
    const std::string& t = toks[k].text;
    if (t == "<" || t == ">") {
      if (k + 1 < toks.size() && IsPunct(toks[k + 1], t.c_str())) return 0;
      return eq_next ? 2 : 1;
    }
    if ((t == "=" || t == "!") && eq_next) return 2;
    return 0;
  };
  auto is_one = [&](size_t k) {
    return k < toks.size() && toks[k].kind == TokKind::kNumber &&
           toks[k].text == "1";
  };
  for (size_t k = 0; k < toks.size(); ++k) {
    if (toks[k].kind != TokKind::kIdent || !kCounts.count(toks[k].text)) {
      continue;
    }
    // `count op 1`, with `count()` accessors included.
    size_t after = k + 1;
    if (after + 1 < toks.size() && IsPunct(toks[after], "(") &&
        IsPunct(toks[after + 1], ")")) {
      after += 2;
    }
    const size_t op = comparison_at(after);
    bool fork = op > 0 && is_one(after + op);
    // `1 op count`, with `x.count` / `x->count` receivers included.
    size_t first = k;
    while (first >= 2 && IsPunct(toks[first - 1], ".")) first -= 2;
    while (first >= 3 && IsPunct(toks[first - 1], ">") &&
           IsPunct(toks[first - 2], "-")) {
      first -= 3;
    }
    for (size_t width = 1; !fork && width < first && width <= 2; ++width) {
      fork = comparison_at(first - width) == width &&
             is_one(first - width - 1);
    }
    if (fork) {
      ctx.Emit(kRule, toks[k].line,
               "'" + toks[k].text +
                   "' compared against 1: a caller-side serial branch; send "
                   "the rows through the morsel helpers (common/thread_pool.h), "
                   "which run one thread inline");
    }
  }
}

// --- text-reparse -----------------------------------------------------------
//
// The driver hands the engine the middleware's AST in process
// (driver::Connection::ExecuteAst) and keeps the printed text only as the
// log's record of what was sent. Printing an AST and sending the text back
// through a parser is the round trip that hand-off removed: it costs a parse
// per statement and runs a second copy of the statement beside the AST. A
// call under src/ whose name starts with Execute or Parse may not take the
// result of sql::PrintExpr / PrintSelect / PrintStatement, either inline or
// through a variable the same function assigned it to. PrintDouble writes a
// value into SQL being composed, not a parsed tree, and is not flagged.
void RuleTextReparse(Ctx& ctx) {
  static const char* kRule = "text-reparse";
  if (!ctx.PathContains("src/")) return;
  static const std::unordered_set<std::string> kPrinters = {
      "PrintExpr", "PrintSelect", "PrintStatement"};
  const std::vector<Token>& toks = ctx.src.tokens;
  const Analysis& an = ctx.src;
  auto is_print_call = [&](size_t k) {
    return toks[k].kind == TokKind::kIdent && kPrinters.count(toks[k].text) &&
           k + 1 < toks.size() && IsPunct(toks[k + 1], "(");
  };
  // The outermost function enclosing token k (lambdas share their
  // function's variables), or -1 at file scope.
  auto owner = [&](size_t k) {
    int fn = -1;
    for (int s = an.token_scope[k]; s > 0;
         s = an.scopes[static_cast<size_t>(s)].parent) {
      if (an.scopes[static_cast<size_t>(s)].kind == ScopeKind::kFunction) {
        fn = s;
      }
    }
    return fn;
  };
  // Variables assigned (`x = ...;` or `x += ...;`) an expression holding a
  // printer call.
  std::set<std::pair<int, std::string>> printed;
  for (size_t k = 0; k + 2 < toks.size(); ++k) {
    if (toks[k].kind != TokKind::kIdent) continue;
    size_t rhs = 0;
    if (IsPunct(toks[k + 1], "=") && !IsPunct(toks[k + 2], "=")) {
      rhs = k + 2;
    } else if (IsPunct(toks[k + 1], "+=")) {
      rhs = k + 2;
    } else {
      continue;
    }
    for (size_t j = rhs; j < toks.size() && !IsPunct(toks[j], ";"); ++j) {
      if (is_print_call(j)) {
        printed.insert({owner(k), toks[k].text});
        break;
      }
    }
  }
  for (size_t k = 0; k + 1 < toks.size(); ++k) {
    const std::string& name = toks[k].text;
    if (toks[k].kind != TokKind::kIdent || !IsPunct(toks[k + 1], "(") ||
        (name.rfind("Execute", 0) != 0 && name.rfind("Parse", 0) != 0)) {
      continue;
    }
    int depth = 0;
    for (size_t j = k + 1; j < toks.size(); ++j) {
      if (IsPunct(toks[j], "(")) ++depth;
      if (IsPunct(toks[j], ")") && --depth == 0) break;
      const bool names_printed =
          toks[j].kind == TokKind::kIdent && j + 1 < toks.size() &&
          !IsPunct(toks[j + 1], "(") &&
          printed.count({owner(k), toks[j].text}) > 0;
      if (is_print_call(j) || names_printed) {
        ctx.Emit(kRule, toks[k].line,
                 "'" + name + "' takes printed SQL text ('" + toks[j].text +
                     "'); hand the AST over in process "
                     "(driver::Connection::ExecuteAst) and keep the text "
                     "for the log");
        break;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Registry, meta checks, entry points
// ---------------------------------------------------------------------------

using RuleFn = void (*)(Ctx&);

struct RuleEntry {
  const char* name;
  const char* description;
  RuleFn fn;
};

const std::vector<RuleEntry>& Registry() {
  static const std::vector<RuleEntry> kRules = {
      {"rng-outside-random",
       "RNG draws must route through the row-addressed CounterRandom "
       "substrate in common/random.*",
       RuleRngOutsideRandom},
      {"simd-outside-kernel-tu",
       "SIMD intrinsics are confined to engine/kernels/kernels_avx2.cc, the "
       "only TU built with -mavx2",
       RuleSimdOutsideKernelTu},
      {"string-keyed-map",
       "No std::map/std::unordered_map keyed by std::string under "
       "src/engine/; hot paths use the flat hashed tables",
       RuleStringKeyedMap},
      {"raw-double-accumulate",
       "Float accumulation in the aggregate kernels goes through NeumaierAdd, "
       "never a raw '+='",
       RuleRawDoubleAccumulate},
      {"naked-size-narrowing",
       "Row counts narrow to uint32_t only behind an explicit 2^32 Status "
       "guard",
       RuleNakedSizeNarrowing},
      {"naked-reserve",
       "reserve/resize in the governed hot TUs must be budget-charged through "
       "ExecGuard::TryReserve",
       RuleNakedReserve},
      {"unordered-iteration-in-result-path",
       "No range-for over unordered containers in result-producing functions; "
       "hash iteration order is nondeterministic",
       RuleUnorderedIterationInResultPath},
      {"ungoverned-loop",
       "Loops emitting per-row output in governed TUs must have a reachable "
       "GuardCheck/TryReserve poll fact",
       RuleUngovernedLoop},
      {"raw-mutex",
       "Raw std:: synchronization primitives escape thread-safety analysis; "
       "use the annotated wrappers in common/thread_annotations.h",
       RuleRawMutex},
      {"mutable-shared-static",
       "Non-const statics and globals under src/engine/ must be atomic, "
       "Mutex-guarded, or const",
       RuleMutableSharedStatic},
      {"row-interpreter-call",
       "No per-row EvalExpr/EvalPredicate calls under src/; the row "
       "interpreter is a test oracle and operators evaluate column-at-a-time",
       RuleRowInterpreterCall},
      {"serial-fork",
       "No comparison of num_threads/max_threads against 1 under src/ "
       "outside common/thread_pool.*; one thread runs the same morsel path",
       RuleSerialFork},
      {"text-reparse",
       "No printed AST (PrintExpr/PrintSelect/PrintStatement) handed to an "
       "Execute*/Parse* call under src/; the driver runs the AST in process",
       RuleTextReparse},
  };
  return kRules;
}

std::string NormalizePath(const std::string& path) {
  std::string out = path;
  std::replace(out.begin(), out.end(), '\\', '/');
  return out;
}

void EnsureStats(Report* report) {
  if (!report->rule_stats.empty()) return;
  for (const RuleEntry& r : Registry()) {
    report->rule_stats.push_back({r.name, 0, 0, 0});
  }
}

}  // namespace

const std::vector<std::string>& RuleNames() {
  static const std::vector<std::string> kNames = [] {
    std::vector<std::string> names;
    for (const RuleEntry& r : Registry()) names.push_back(r.name);
    return names;
  }();
  return kNames;
}

std::string RuleDescription(const std::string& rule) {
  for (const RuleEntry& r : Registry()) {
    if (rule == r.name) return r.description;
  }
  if (rule == "unknown-rule") {
    return "An allow() comment names a rule that does not exist in the "
           "registry";
  }
  if (rule == "stale-suppression") {
    return "An allow() comment matches no diagnostic on its line and should "
           "be deleted";
  }
  if (rule == "io") return "The path could not be read";
  return "";
}

void LintSource(const std::string& path, const std::string& content,
                Report* report) {
  const auto t_begin = std::chrono::steady_clock::now();
  const std::string norm = NormalizePath(path);
  Analysis src = Analyze(content);
  EnsureStats(report);
  Ctx ctx{norm, src, report};
  const auto& rules = Registry();
  for (size_t i = 0; i < rules.size(); ++i) {
    ctx.stat = &report->rule_stats[i];
    const auto t0 = std::chrono::steady_clock::now();
    rules[i].fn(ctx);
    const auto t1 = std::chrono::steady_clock::now();
    ctx.stat->nanos += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count());
  }
  ctx.stat = nullptr;

  // Suppression-table hygiene: an allow() must name a real rule and must
  // have silenced at least one diagnostic. Neither failure is suppressible.
  static const std::unordered_set<std::string> kValid = [] {
    std::unordered_set<std::string> v;
    for (const std::string& n : RuleNames()) v.insert(n);
    return v;
  }();
  for (const Allow& a : src.allows) {
    if (!kValid.count(a.rule)) {
      report->violations.push_back(
          {norm, a.line, "unknown-rule",
           "allow() names unknown rule '" + a.rule +
               "'; run vdb_lint --list-rules for the registry"});
    } else if (a.hits == 0) {
      report->violations.push_back(
          {norm, a.line, "stale-suppression",
           "allow(" + a.rule +
               ") matches no diagnostic on this line; delete the stale "
               "suppression"});
    }
  }

  ++report->files_scanned;
  const auto t_end = std::chrono::steady_clock::now();
  report->total_nanos += static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t_end - t_begin)
          .count());
}

Report LintPaths(const std::vector<std::string>& roots) {
  namespace fs = std::filesystem;
  Report report;
  EnsureStats(&report);

  auto wants = [](const fs::path& p) {
    const std::string ext = p.extension().string();
    return ext == ".cc" || ext == ".h" || ext == ".cpp" || ext == ".hpp";
  };
  auto skip_dir = [](const fs::path& p) {
    const std::string name = p.filename().string();
    return name.rfind("build", 0) == 0 ||
           (!name.empty() && name[0] == '.' && name != ".");
  };

  std::vector<std::string> files;
  for (const std::string& root : roots) {
    std::error_code ec;
    if (fs::is_directory(root, ec)) {
      fs::recursive_directory_iterator it(root, ec), end;
      for (; it != end; it.increment(ec)) {
        if (ec) break;
        if (it->is_directory(ec) && skip_dir(it->path())) {
          it.disable_recursion_pending();
          continue;
        }
        if (it->is_regular_file(ec) && wants(it->path())) {
          files.push_back(it->path().generic_string());
        }
      }
    } else if (fs::exists(root, ec)) {
      files.push_back(fs::path(root).generic_string());
    } else {
      report.violations.push_back(
          {root, 0, "io", "no such file or directory"});
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  for (const std::string& file : files) {
    std::ifstream in(file, std::ios::binary);
    if (!in) {
      report.violations.push_back({file, 0, "io", "unable to read file"});
      continue;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    LintSource(file, buf.str(), &report);
  }

  std::sort(report.violations.begin(), report.violations.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  return report;
}

std::string FormatDiagnostic(const Diagnostic& d) {
  std::ostringstream os;
  os << d.file << ":" << d.line << ": [" << d.rule << "] " << d.message;
  return os.str();
}

std::string FormatStats(const Report& report) {
  std::ostringstream os;
  os << "| rule | time (ms) | violations | suppressions |\n"
     << "|---|---:|---:|---:|\n";
  auto ms = [](uint64_t nanos) {
    std::ostringstream v;
    v.setf(std::ios::fixed);
    v.precision(3);
    v << static_cast<double>(nanos) / 1e6;
    return v.str();
  };
  uint64_t rule_nanos = 0;
  size_t violations = 0, suppressions = 0;
  for (const RuleStat& s : report.rule_stats) {
    os << "| " << s.rule << " | " << ms(s.nanos) << " | " << s.violations
       << " | " << s.suppressions << " |\n";
    rule_nanos += s.nanos;
    violations += s.violations;
    suppressions += s.suppressions;
  }
  os << "| **total (rules)** | " << ms(rule_nanos) << " | " << violations
     << " | " << suppressions << " |\n";
  os << "\n"
     << report.files_scanned << " file(s) scanned in " << ms(report.total_nanos)
     << " ms (tokenize + scope tree + rules), " << report.violations.size()
     << " violation(s), " << report.suppressions_used
     << " suppression(s) honored\n";
  return os.str();
}

}  // namespace vdb::lint
