// Self-test for the vdb-lint contract checker (tools/vdb_lint/).
//
// Three layers: scope-tree unit cases over Analyze() that pin the structural
// analyzer's behavior on hard C++ shapes (nested namespaces, lambdas, macros
// spanning braces, template angle brackets); in-memory LintSource cases that
// pin rule and suppression semantics; and checked-in fixture files under
// tools/vdb_lint/fixtures/ that pin each rule's pass and fail behavior
// through the same LintPaths entry point CI uses — including a SARIF golden
// file compared byte-for-byte.
//
// Rule-triggering code lives in string literals or in the fixture tree, both
// of which the production scan ignores (strings are skipped by the
// tokenizer; CI lints src/ tests/ bench/ only), so this file itself stays
// lint-clean.

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analyzer.h"
#include "lint.h"

namespace vdb::lint {
namespace {

#ifndef VDB_LINT_FIXTURE_DIR
#error "test_vdb_lint requires VDB_LINT_FIXTURE_DIR (set by CMakeLists.txt)"
#endif

std::string Fixture(const std::string& rel) {
  return std::string(VDB_LINT_FIXTURE_DIR) + "/" + rel;
}

size_t CountRule(const Report& r, const std::string& rule) {
  return static_cast<size_t>(
      std::count_if(r.violations.begin(), r.violations.end(),
                    [&](const Diagnostic& d) { return d.rule == rule; }));
}

Report LintOne(const std::string& path, const std::string& content) {
  Report r;
  LintSource(path, content, &r);
  return r;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "unable to read " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// ---- scope-tree layer: Analyze() over hard C++ shapes ----------------------

bool HasFunctionNamed(const Analysis& an, const std::string& name) {
  return an.functions_by_name.count(name) > 0;
}

TEST(VdbLintScopeTree, NestedNamespaceSpecifierClassifiesFunctions) {
  // `namespace a::b {` must open a kNamespace scope (not a generic block),
  // or every function inside it loses its kFunction classification — the
  // exact failure mode that once hid src/integrated/ from the flow rules.
  const Analysis an = Analyze(
      "namespace vdb::integrated {\n"
      "void Emit() { int x = 0; (void)x; }\n"
      "}\n");
  ASSERT_EQ(an.scopes.size(), 3u);  // file, namespace, function body
  EXPECT_EQ(an.scopes[1].kind, ScopeKind::kNamespace);
  EXPECT_EQ(an.scopes[2].kind, ScopeKind::kFunction);
  EXPECT_TRUE(HasFunctionNamed(an, "Emit"));
}

TEST(VdbLintScopeTree, NestedLambdasAttributeFactsToEnclosingFunction) {
  // A callback's body is still the enclosing function's work: its calls and
  // member touches land in the outer FunctionInfo, and the lambda opens its
  // own kLambda scope.
  const Analysis an = Analyze(
      "void Outer(std::vector<int>& sink) {\n"
      "  auto cb = [&](int r) { sink.push_back(r); };\n"
      "  cb(7);\n"
      "}\n");
  ASSERT_TRUE(HasFunctionNamed(an, "Outer"));
  const FunctionInfo& fn =
      an.functions[static_cast<size_t>(an.functions_by_name.at("Outer")[0])];
  EXPECT_TRUE(fn.calls.count("push_back"));
  EXPECT_TRUE(fn.members_touched.count("push_back"));
  bool saw_lambda = false;
  for (const Scope& s : an.scopes) {
    saw_lambda = saw_lambda || s.kind == ScopeKind::kLambda;
  }
  EXPECT_TRUE(saw_lambda);
}

TEST(VdbLintScopeTree, MacroSpanningBracesDoesNotSkewScopeTree) {
  // Preprocessor lines (continuations included) contribute no tokens, so a
  // macro body that opens or closes braces cannot unbalance the tree.
  const Analysis an = Analyze(
      "#define OPEN {\n"
      "#define WEIRD(x) \\\n"
      "  case x: {      \\\n"
      "  }\n"
      "void f() { int y = 0; (void)y; }\n");
  ASSERT_EQ(an.scopes.size(), 2u);  // file + f's body, nothing from macros
  EXPECT_EQ(an.scopes[1].kind, ScopeKind::kFunction);
  EXPECT_TRUE(HasFunctionNamed(an, "f"));
  // Every token is inside a scope and the file scope spans them all.
  EXPECT_EQ(an.scopes[0].last_token, an.tokens.size());
}

TEST(VdbLintScopeTree, TemplateAngleBracketsDoNotBreakFunctionDetection) {
  // Nested template argument lists (and ordinary less-than expressions)
  // must not derail return-type skipping or brace classification.
  const Analysis an = Analyze(
      "std::vector<std::pair<int, int>> MakePairs() {\n"
      "  std::vector<std::pair<int, int>> v;\n"
      "  return v;\n"
      "}\n"
      "bool Less(int a, int b) { return a < b; }\n");
  EXPECT_TRUE(HasFunctionNamed(an, "MakePairs"));
  EXPECT_TRUE(HasFunctionNamed(an, "Less"));
}

TEST(VdbLintScopeTree, UnorderedVariableNamesAreCollected) {
  const Analysis an = Analyze(
      "std::unordered_map<int, int> counts;\n"
      "void f(const std::unordered_set<int>& seen) { (void)seen; }\n"
      "std::map<int, int> ordered;\n");
  EXPECT_TRUE(an.unordered_vars.count("counts"));
  EXPECT_TRUE(an.unordered_vars.count("seen"));
  EXPECT_FALSE(an.unordered_vars.count("ordered"));
}

TEST(VdbLintScopeTree, SyncSafeClassRequiresEveryMemberSynchronized) {
  const Analysis an = Analyze(
      "struct AllAtomic {\n"
      "  std::atomic<int> hits{0};\n"
      "  std::atomic<int> misses{0};\n"
      "};\n"
      "struct HalfAtomic {\n"
      "  std::atomic<int> hits{0};\n"
      "  int misses = 0;\n"
      "};\n");
  EXPECT_TRUE(an.sync_safe_classes.count("AllAtomic"));
  EXPECT_FALSE(an.sync_safe_classes.count("HalfAtomic"));
}

// ---- unit layer: LintSource over in-memory sources -------------------------

TEST(VdbLintUnit, RuleRegistryListsAllThirteenContracts) {
  const std::vector<std::string>& names = RuleNames();
  ASSERT_EQ(names.size(), 13u);
  for (const char* expected :
       {"rng-outside-random", "simd-outside-kernel-tu", "string-keyed-map",
        "raw-double-accumulate", "naked-size-narrowing", "naked-reserve",
        "unordered-iteration-in-result-path", "ungoverned-loop", "raw-mutex",
        "mutable-shared-static", "row-interpreter-call", "serial-fork",
        "text-reparse"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << "missing rule " << expected;
  }
}

TEST(VdbLintUnit, RngBannedOutsideRandomTuButAllowedInside) {
  const std::string src = "int f() { return rand(); }\n";
  EXPECT_EQ(LintOne("src/engine/foo.cc", src).violations.size(), 1u);
  EXPECT_EQ(LintOne("src/common/random.cc", src).violations.size(), 0u);
  EXPECT_EQ(LintOne("src/common/random.h", src).violations.size(), 0u);
}

TEST(VdbLintUnit, BannedNamesInCommentsAndStringsAreIgnored) {
  const std::string src =
      "// rand() mt19937 _mm256_add_epi64\n"
      "/* srand(1); std::random_device rd; */\n"
      "const char* s = \"rand() and _mm_loadu_si128\";\n"
      "const char* r = R\"x(mt19937 inside raw string)x\";\n";
  EXPECT_TRUE(LintOne("src/engine/foo.cc", src).ok());
}

TEST(VdbLintUnit, IdentifiersMerelyContainingBannedNamesAreIgnored) {
  // rand_addr, operand, brand: none of these is the token `rand`.
  const std::string src =
      "void f(const RandAddr& rand_addr, int operand, int brand);\n";
  EXPECT_TRUE(LintOne("src/engine/foo.cc", src).ok());
}

TEST(VdbLintUnit, SimdIncludeAndIntrinsicFlaggedOutsideKernelTu) {
  const std::string src =
      "#include <immintrin.h>\n"
      "void f() { __m256i z = _mm256_setzero_si256(); (void)z; }\n";
  const Report r = LintOne("src/engine/vector_eval.cc", src);
  EXPECT_EQ(CountRule(r, "simd-outside-kernel-tu"), 3u);  // include + 2 idents
  EXPECT_TRUE(LintOne("src/engine/kernels/kernels_avx2.cc", src).ok());
}

TEST(VdbLintUnit, StringKeyedMapScopedToEngineDir) {
  // Locals so that mutable-shared-static (which also patrols src/engine/
  // file scope) stays out of the picture.
  const std::string src = "void f() { std::map<std::string, int> m; }\n";
  EXPECT_EQ(CountRule(LintOne("src/engine/planner.cc", src),
                      "string-keyed-map"),
            1u);
  // Same container outside src/engine/ is not this rule's business.
  EXPECT_TRUE(LintOne("src/sql/parser.cc", src).ok());
  // Nested string on the VALUE side only must not fire.
  const std::string value_side =
      "void f() { std::map<int, std::string> m; }\n";
  EXPECT_TRUE(LintOne("src/engine/planner.cc", value_side).ok());
}

TEST(VdbLintUnit, RawAccumulateMatchesMembersAndIndexedForms) {
  const std::string src =
      "void f(double x) { sum_ += x; comps_[2] += x; local += x; }\n";
  const Report r = LintOne("src/engine/agg_table.cc", src);
  EXPECT_EQ(CountRule(r, "raw-double-accumulate"), 2u);
  // Outside the two aggregate TUs the rule stays quiet.
  EXPECT_TRUE(LintOne("src/engine/vector_eval.cc", src).ok());
}

TEST(VdbLintUnit, SizeNarrowingMatchesDotAndArrowForms) {
  const std::string src =
      "uint32_t a = static_cast<uint32_t>(v.size());\n"
      "uint32_t b = static_cast<uint32_t>(p->size());\n"
      "uint64_t c = static_cast<uint64_t>(v.size());\n"
      "uint32_t d = static_cast<uint32_t>(n);\n";
  const Report r = LintOne("src/engine/foo.cc", src);
  EXPECT_EQ(CountRule(r, "naked-size-narrowing"), 2u);
}

TEST(VdbLintUnit, NakedReserveScopedToGovernedTusAndMemberCallsOnly) {
  const std::string src =
      "void f(std::vector<int>* p, std::vector<int>& v, size_t n) {\n"
      "  v.reserve(n);\n"
      "  p->resize(n);\n"
      "  reserve(n);\n"
      "}\n";
  // Both member forms fire in a governed TU; the free call does not.
  EXPECT_EQ(CountRule(LintOne("src/engine/operators.cc", src),
                      "naked-reserve"),
            2u);
  EXPECT_EQ(CountRule(LintOne("src/engine/agg_table.h", src),
                      "naked-reserve"),
            2u);
  // Outside the governed TUs the rule stays quiet.
  EXPECT_EQ(CountRule(LintOne("src/engine/planner.cc", src), "naked-reserve"),
            0u);
}

TEST(VdbLintUnit, AllowCommentSuppressesOnlyTheNamedRuleOnThatLine) {
  const std::string suppressed =
      "int f() { return rand(); }  // vdb-lint: allow(rng-outside-random)\n";
  Report r = LintOne("src/engine/foo.cc", suppressed);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.suppressions_used, 1u);

  // Wrong rule name in the allow(): the violation survives AND the allow()
  // itself — a registered rule that silenced nothing — is reported stale.
  const std::string wrong =
      "int f() { return rand(); }  // vdb-lint: allow(string-keyed-map)\n";
  r = LintOne("src/engine/foo.cc", wrong);
  EXPECT_EQ(r.violations.size(), 2u);
  EXPECT_EQ(CountRule(r, "rng-outside-random"), 1u);
  EXPECT_EQ(CountRule(r, "stale-suppression"), 1u);
  EXPECT_EQ(r.suppressions_used, 0u);

  // Next line is not covered by the previous line's allow(): the violation
  // survives and the allow() on its own line is stale.
  const std::string next_line =
      "// vdb-lint: allow(rng-outside-random)\n"
      "int f() { return rand(); }\n";
  r = LintOne("src/engine/foo.cc", next_line);
  EXPECT_EQ(CountRule(r, "rng-outside-random"), 1u);
  EXPECT_EQ(CountRule(r, "stale-suppression"), 1u);
}

TEST(VdbLintUnit, UnknownRuleNameInAllowIsItselfAnError) {
  const Report r =
      LintOne("src/engine/foo.cc",
              "int x = 1;  // vdb-lint: allow(no-such-rule) oops\n");
  EXPECT_FALSE(r.ok());
  ASSERT_EQ(CountRule(r, "unknown-rule"), 1u);
}

TEST(VdbLintUnit, StaleSuppressionIsItselfAnError) {
  const Report r = LintOne(
      "src/sql/parser.cc",
      "int f() { return 1; }  // vdb-lint: allow(rng-outside-random)\n");
  EXPECT_FALSE(r.ok());
  ASSERT_EQ(r.violations.size(), 1u);
  EXPECT_EQ(r.violations[0].rule, "stale-suppression");
}

TEST(VdbLintUnit, AllowCommentMaySuppressMultipleRules) {
  const std::string src =
      "std::map<std::string, int> m = f(rand());"
      "  // vdb-lint: allow(rng-outside-random, string-keyed-map)\n";
  const Report r = LintOne("src/engine/foo.cc", src);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.suppressions_used, 2u);
}

TEST(VdbLintUnit, UnorderedIterationNeedsAResultPathToFire) {
  // The same loop, with and without a result sink reachable from the
  // enclosing function: only the result-producing one is a violation.
  const std::string emitting =
      "void Emit(const std::unordered_map<int, int>& groups,\n"
      "          std::vector<int>* out) {\n"
      "  for (const auto& kv : groups) out->push_back(kv.second);\n"
      "}\n";
  const std::string counting =
      "int CountAll(const std::unordered_map<int, int>& groups) {\n"
      "  int n = 0;\n"
      "  for (const auto& kv : groups) n += kv.second;\n"
      "  return n;\n"
      "}\n";
  EXPECT_EQ(CountRule(LintOne("src/estimator/foo.cc", emitting),
                      "unordered-iteration-in-result-path"),
            1u);
  EXPECT_EQ(CountRule(LintOne("src/estimator/foo.cc", counting),
                      "unordered-iteration-in-result-path"),
            0u);
  // Outside the result-producing layers the rule stays quiet entirely.
  EXPECT_EQ(CountRule(LintOne("src/sql/printer.cc", emitting),
                      "unordered-iteration-in-result-path"),
            0u);
}

TEST(VdbLintUnit, UngovernedLoopSatisfiedByPollInEnclosingFunction) {
  const std::string ungoverned =
      "void Fill(std::vector<int>* out, int n) {\n"
      "  for (int i = 0; i < n; ++i) {\n"
      "    out->push_back(i);\n"
      "  }\n"
      "}\n";
  const std::string governed =
      "void Fill(std::vector<int>* out, int n) {\n"
      "  if (!GuardCheck().ok()) return;\n"
      "  for (int i = 0; i < n; ++i) {\n"
      "    out->push_back(i);\n"
      "  }\n"
      "}\n";
  EXPECT_EQ(CountRule(LintOne("src/engine/operators.cc", ungoverned),
                      "ungoverned-loop"),
            1u);
  EXPECT_EQ(CountRule(LintOne("src/engine/operators.cc", governed),
                      "ungoverned-loop"),
            0u);
  // Outside the governed TUs the rule does not apply.
  EXPECT_EQ(CountRule(LintOne("src/engine/planner.cc", ungoverned),
                      "ungoverned-loop"),
            0u);
}

TEST(VdbLintUnit, RawMutexBannedEverywhereButTheWrapperHeader) {
  const std::string src =
      "#include <mutex>\n"
      "void f() { static std::mutex mu; mu.lock(); }\n";
  // include + the `mutex` identifier in the declaration.
  EXPECT_EQ(CountRule(LintOne("src/common/thread_pool.cc", src), "raw-mutex"),
            2u);
  EXPECT_EQ(CountRule(LintOne("src/common/thread_annotations.h", src),
                      "raw-mutex"),
            0u);
}

TEST(VdbLintUnit, MutableSharedStaticAcceptsSynchronizedShapes) {
  EXPECT_EQ(CountRule(LintOne("src/engine/foo.cc",
                              "int Next() { static int n = 0; return ++n; }\n"),
                      "mutable-shared-static"),
            1u);
  EXPECT_EQ(
      CountRule(LintOne(
                    "src/engine/foo.cc",
                    "int Next() { static std::atomic<int> n{0}; return ++n; }\n"),
                "mutable-shared-static"),
      0u);
  // A static instance of a same-file all-atomic struct is accepted without
  // an allow() — the sync-safe class analysis vouches for it.
  const std::string sync_safe =
      "struct Counters { std::atomic<int> a{0}; std::atomic<int> b{0}; };\n"
      "Counters& Get() { static Counters c; return c; }\n";
  EXPECT_EQ(CountRule(LintOne("src/engine/foo.cc", sync_safe),
                      "mutable-shared-static"),
            0u);
  // Outside src/engine/ the rule does not apply.
  EXPECT_EQ(CountRule(LintOne("src/sql/parser.cc",
                              "int Next() { static int n = 0; return ++n; }\n"),
                      "mutable-shared-static"),
            0u);
}

TEST(VdbLintUnit, RowInterpreterCallFiresAnywhereUnderSrc) {
  const std::string src =
      "Status Fill(const Expr& e, const Table& t) {\n"
      "  for (size_t r = 0; r < t.num_rows(); ++r) {\n"
      "    auto v = EvalExpr(e, RowCtx{&t, r});\n"
      "    if (!EvalPredicate(e, RowCtx{&t, r}).ok()) return v.status();\n"
      "  }\n"
      "  return EvalExprBatch(e, Batch{&t}).status();\n"
      "}\n";
  // Both row-interpreter calls fire in an operator; the batch call does not.
  EXPECT_EQ(CountRule(LintOne("src/engine/window.cc", src),
                      "row-interpreter-call"),
            2u);
  EXPECT_EQ(CountRule(LintOne("src/core/verdict_context.cc", src),
                      "row-interpreter-call"),
            2u);
  // No TU under src/ is exempt, the batch evaluator's and one named for an
  // interpreter included.
  EXPECT_EQ(CountRule(LintOne("src/engine/vector_eval.cc", src),
                      "row-interpreter-call"),
            2u);
  EXPECT_EQ(CountRule(LintOne("src/engine/expr_eval.cc", src),
                      "row-interpreter-call"),
            2u);
  // The oracle under tests/ and the differential suites may call it.
  EXPECT_TRUE(LintOne("tests/oracle/row_interpreter.cc", src).ok());
  EXPECT_TRUE(LintOne("tests/test_vector_eval.cc", src).ok());
}

TEST(VdbLintUnit, SerialForkFiresOnThreadCountComparedAgainstOne) {
  const std::string src =
      "Status Scan(const RowView& v, int num_threads, const Db* db) {\n"
      "  if (num_threads <= 1) return Whole(v);\n"
      "  if (1 == db->num_threads()) return Whole(v);\n"
      "  if (max_threads_ > 1) return Split(v);\n"
      "  int t = v.size() >= 4096 ? num_threads : 1;\n"
      "  num_threads = 1;\n"
      "  return Morsels(v, num_threads << 1, t, num_threads > 10);\n"
      "}\n";
  // The three comparisons against 1 fire; a fan-out count, an assignment, a
  // shift and a comparison against another bound do not.
  const Report r = LintOne("src/engine/vector_eval.cc", src);
  EXPECT_EQ(CountRule(r, "serial-fork"), 3u);
  EXPECT_EQ(r.violations.size(), 3u);
  // The pool's own inline path is where the one-thread shape lives, and
  // code outside src/ is out of scope.
  EXPECT_TRUE(LintOne("src/common/thread_pool.cc", src).ok());
  EXPECT_TRUE(LintOne("src/common/thread_pool.h", src).ok());
  EXPECT_TRUE(LintOne("tests/test_parallel.cc", src).ok());
  EXPECT_TRUE(LintOne("bench/bench_join.cc", src).ok());
}

TEST(VdbLintUnit, TextReparseFiresOnPrintedAstSentToAParser) {
  const std::string src =
      "Status Run(Connection* c, const sql::Statement& s, const Expr& e) {\n"
      "  auto rs = c->Execute(sql::PrintStatement(s, opts));\n"
      "  std::string text = sql::PrintSelect(*s.select);\n"
      "  auto again = sql::ParseStatement(text);\n"
      "  std::string where = \"x < \" + sql::PrintDouble(0.5);\n"
      "  auto built = c->Execute(where);\n"
      "  log.push_back(sql::PrintStatement(s, opts));\n"
      "  const std::string name = sql::PrintExpr(e);\n"
      "  return c->ExecuteAst(s).status();\n"
      "}\n"
      "Status Other(Connection* c) { return c->Execute(text).status(); }\n";
  // The inline print and the printed local fire; a printed double, a
  // logged print, a name, and a same-named variable of another function
  // do not.
  const Report r = LintOne("src/core/verdict_context.cc", src);
  EXPECT_EQ(CountRule(r, "text-reparse"), 2u);
  EXPECT_EQ(r.violations.size(), 2u);
  // Tests and benches may compare text against its parse.
  EXPECT_TRUE(LintOne("tests/test_roundtrip.cc", src).ok());
  EXPECT_TRUE(LintOne("bench/bench_util.cc", src).ok());
}

TEST(VdbLintUnit, StatsTableCoversEveryRule) {
  const Report r = LintOne("src/engine/foo.cc", "int f() { return rand(); }\n");
  ASSERT_EQ(r.rule_stats.size(), RuleNames().size());
  const std::string table = FormatStats(r);
  for (const std::string& rule : RuleNames()) {
    EXPECT_NE(table.find("| " + rule + " |"), std::string::npos)
        << "stats table missing row for " << rule;
  }
  EXPECT_NE(table.find("**total (rules)**"), std::string::npos);
  EXPECT_NE(table.find("1 file(s) scanned"), std::string::npos);
}

TEST(VdbLintUnit, DiagnosticFormatIsCompilerStyle) {
  const Diagnostic d{"src/engine/foo.cc", 12, "rng-outside-random", "boom"};
  EXPECT_EQ(FormatDiagnostic(d),
            "src/engine/foo.cc:12: [rng-outside-random] boom");
}

// ---- fixture layer: LintPaths over checked-in files ------------------------

TEST(VdbLintFixtures, PassTreeIsCleanAndCountsSuppressions) {
  const Report r = LintPaths({Fixture("pass")});
  EXPECT_TRUE(r.ok()) << (r.violations.empty()
                              ? ""
                              : FormatDiagnostic(r.violations.front()));
  EXPECT_EQ(r.files_scanned, 11u);
  // suppressed.cc acknowledges three findings; engine/agg_table.cc two;
  // src/engine/ordered_result.cc, src/engine/morsel_path.cc and
  // engine/operators.cc one each.
  EXPECT_EQ(r.suppressions_used, 8u);
}

TEST(VdbLintFixtures, FailTreeTriggersEveryRule) {
  const Report r = LintPaths({Fixture("fail")});
  EXPECT_EQ(r.files_scanned, 13u);
  EXPECT_EQ(CountRule(r, "rng-outside-random"), 5u);
  EXPECT_EQ(CountRule(r, "simd-outside-kernel-tu"), 3u);
  EXPECT_EQ(CountRule(r, "string-keyed-map"), 2u);
  EXPECT_EQ(CountRule(r, "raw-double-accumulate"), 3u);
  EXPECT_EQ(CountRule(r, "naked-size-narrowing"), 2u);
  EXPECT_EQ(CountRule(r, "naked-reserve"), 3u);
  EXPECT_EQ(CountRule(r, "unordered-iteration-in-result-path"), 1u);
  EXPECT_EQ(CountRule(r, "ungoverned-loop"), 1u);
  EXPECT_EQ(CountRule(r, "raw-mutex"), 4u);
  EXPECT_EQ(CountRule(r, "mutable-shared-static"), 2u);
  EXPECT_EQ(CountRule(r, "row-interpreter-call"), 2u);
  EXPECT_EQ(CountRule(r, "serial-fork"), 3u);
  EXPECT_EQ(CountRule(r, "text-reparse"), 3u);
  EXPECT_EQ(r.violations.size(), 34u);
  EXPECT_EQ(r.suppressions_used, 0u);
}

TEST(VdbLintFixtures, MultiFileScanSortsDiagnosticsByFileThenLine) {
  const Report r = LintPaths({Fixture("fail")});
  ASSERT_GT(r.violations.size(), 1u);
  for (size_t i = 1; i < r.violations.size(); ++i) {
    const Diagnostic& a = r.violations[i - 1];
    const Diagnostic& b = r.violations[i];
    EXPECT_TRUE(a.file < b.file || (a.file == b.file && a.line <= b.line))
        << FormatDiagnostic(a) << " vs " << FormatDiagnostic(b);
  }
}

TEST(VdbLintFixtures, MixedRootsAggregateAcrossDirectories) {
  const Report r = LintPaths({Fixture("pass"), Fixture("fail")});
  EXPECT_EQ(r.files_scanned, 24u);
  EXPECT_EQ(r.violations.size(), 34u);
  EXPECT_EQ(r.suppressions_used, 8u);
}

TEST(VdbLintFixtures, SingleFileRootAndMissingRoot) {
  const Report one = LintPaths({Fixture("fail/simd_leak.cc")});
  EXPECT_EQ(one.files_scanned, 1u);
  EXPECT_EQ(CountRule(one, "simd-outside-kernel-tu"), 3u);

  const Report missing = LintPaths({Fixture("no_such_dir")});
  EXPECT_EQ(missing.files_scanned, 0u);
  ASSERT_EQ(missing.violations.size(), 1u);
  EXPECT_EQ(missing.violations[0].rule, "io");
}

TEST(VdbLintFixtures, SarifOutputMatchesGoldenFile) {
  // The input fixture is linted under a fixed pseudo-path so the SARIF body
  // (artifact URIs included) is byte-stable regardless of checkout location.
  Report r;
  LintSource("src/engine/sarif_input.cc", ReadFile(Fixture("sarif/input.cc")),
             &r);
  ASSERT_EQ(r.violations.size(), 3u);
  EXPECT_EQ(ToSarif(r), ReadFile(Fixture("sarif/golden.sarif")));
}

}  // namespace
}  // namespace vdb::lint
