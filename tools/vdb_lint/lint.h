// vdb-lint: the project-contract checker.
//
// A deliberately small structural analyzer — a preprocessor-aware tokenizer
// feeding a brace-matched scope tree (see analyzer.h), no libclang — that
// turns this repo's written-down invariants into pass/fail CI diagnostics.
// The twelve rules (see docs/INVARIANTS.md for the history behind each):
//
//   rng-outside-random      rand()/srand/std::mt19937/std::random_device &
//                           friends anywhere but common/random.* — every
//                           engine draw must go through the row-addressed
//                           CounterRandom substrate (PR 5), or parallel
//                           results silently depend on draw order again.
//   simd-outside-kernel-tu  <immintrin.h> / _mm*/__m256-family intrinsics
//                           outside engine/kernels/kernels_avx2.cc — the one
//                           TU built with -mavx2 (PR 6). An intrinsic in any
//                           other file executes illegal instructions on
//                           baseline CPUs, or silently pins the whole build
//                           to AVX2.
//   string-keyed-map        std::map/std::unordered_map keyed by std::string
//                           under src/engine/ — per-row string keys are the
//                           exact structure PRs 4/7 removed; new hot paths
//                           must use the flat hashed tables. Plan-time
//                           metadata maps carry explicit allow() comments.
//   raw-double-accumulate   a raw `+=` onto sum/comp accumulator members in
//                           engine/aggregates.cc / engine/agg_table.cc —
//                           float accumulation must go through NeumaierAdd
//                           or 1-thread vs N-thread results stop being
//                           bit-identical (PR 3).
//   naked-size-narrowing    static_cast<uint32_t>(....size()...) in
//                           src/engine/ / src/common/ — row counts narrow to
//                           uint32 only behind an explicit 2^32 Status
//                           guard; a naked cast truncates silently at scale.
//   naked-reserve           reserve/resize in the governed hot TUs
//                           (join_table / agg_table / operators) without a
//                           budget charge — an over-budget query must fail
//                           with kResourceExhausted, not std::bad_alloc
//                           (PR 9).
//   unordered-iteration-in-result-path
//                           range-for over an unordered_map/unordered_set in
//                           a result-producing function under src/engine/,
//                           src/estimator/, src/integrated/ or src/core/ —
//                           hash-table iteration order is the one
//                           bit-identity breaker no fuzz suite reliably
//                           catches; sort the keys or address by index.
//   ungoverned-loop         a loop in a governed TU whose body emits
//                           per-row output but has no GuardCheck / TryReserve
//                           poll fact reachable (directly, through a callee,
//                           or via an enclosing loop) — poll-point coverage
//                           for PR 9's cancellation contract.
//   raw-mutex               std::mutex / std::lock_guard /
//                           std::condition_variable & friends outside
//                           common/thread_annotations.h — raw primitives
//                           silently escape clang thread-safety analysis;
//                           use the CAPABILITY-annotated wrappers (PR 8).
//   mutable-shared-static   a non-const function-local static or
//                           namespace-scope global under src/engine/ without
//                           atomic/Mutex protection — shared mutable state
//                           invisible to the annotation layer is how the
//                           PR 8 Database races happened.
//   row-interpreter-call    EvalExpr( / EvalPredicate( anywhere under
//                           src/ — the row interpreter is a test oracle
//                           (tests/oracle/); operators evaluate
//                           column-at-a-time, and a per-row interpreter
//                           loop in the library is a second, slower path
//                           beside the batch evaluator.
//   serial-fork             num_threads / max_threads compared against 1
//                           under src/ outside common/thread_pool.* — the
//                           pool runs one thread inline over the same
//                           morsels, so a caller-side serial branch is a
//                           second copy of the operator's loop that drifts
//                           (the serial join probe skipped its budget
//                           charge).
//   text-reparse            an Execute*( / Parse*( call under src/ taking
//                           the result of sql::PrintExpr / PrintSelect /
//                           PrintStatement, inline or through a variable
//                           the same function assigned it to — the driver
//                           runs the middleware's AST in process, and a
//                           print-then-parse round trip is a second copy
//                           of the statement beside it.
//
// Any diagnostic can be acknowledged in place with a trailing comment:
//     ... code ...  // vdb-lint: allow(rule-name[, rule-name]) <rationale>
// Honored suppressions are counted and reported so drift stays visible, and
// the suppression table itself is checked: an allow() naming an unknown rule
// is an `unknown-rule` error, and an allow() that matches no diagnostic on
// its line is a `stale-suppression` error. Neither can be suppressed.

#ifndef VDB_TOOLS_VDB_LINT_LINT_H_
#define VDB_TOOLS_VDB_LINT_LINT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace vdb::lint {

struct Diagnostic {
  std::string file;
  size_t line = 0;
  std::string rule;
  std::string message;
};

/// Per-rule aggregate timing/outcome counters, for --stats.
struct RuleStat {
  std::string rule;
  uint64_t nanos = 0;
  size_t violations = 0;
  size_t suppressions = 0;
};

struct Report {
  std::vector<Diagnostic> violations;
  size_t files_scanned = 0;
  size_t suppressions_used = 0;  // diagnostics silenced by allow() comments
  std::vector<RuleStat> rule_stats;  // one entry per registry rule, in order
  uint64_t total_nanos = 0;          // tokenize + scope tree + rules

  bool ok() const { return violations.empty(); }
};

/// All rule names, for self-tests and --list-rules.
const std::vector<std::string>& RuleNames();

/// One-line description of a registry rule (also used for SARIF metadata).
/// Returns an empty string for unknown names.
std::string RuleDescription(const std::string& rule);

/// Lints one in-memory source. `path` (slash-normalized, matched by
/// suffix/substring) decides which rules apply. Appends to *report.
void LintSource(const std::string& path, const std::string& content,
                Report* report);

/// Expands roots (files or directories; directories are walked recursively
/// for .cc/.h/.cpp/.hpp, skipping build*/ and hidden dirs) and lints each
/// file. Diagnostics come back sorted by file then line.
Report LintPaths(const std::vector<std::string>& roots);

/// "file:line: [rule] message" — the compiler-style form editors jump on.
std::string FormatDiagnostic(const Diagnostic& d);

/// Renders the report as a SARIF 2.1.0 log (one run, one result per
/// violation, rule metadata included) for CI code-scanning upload. Output is
/// deterministic: violations keep their sorted order and paths are emitted
/// verbatim as artifact URIs.
std::string ToSarif(const Report& report);

/// Renders rule_stats as a GitHub-flavored markdown table (for --stats and
/// the CI job summary).
std::string FormatStats(const Report& report);

}  // namespace vdb::lint

#endif  // VDB_TOOLS_VDB_LINT_LINT_H_
