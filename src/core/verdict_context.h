// VerdictContext: the public facade of the library — the middleware box of
// Fig. 1a. Applications hand it SQL text; it intercepts supported analytical
// queries, substitutes samples, rewrites for variational subsampling,
// executes on the underlying database through the driver, and rewrites the
// answer. Everything else passes through unchanged.

#ifndef VDB_CORE_VERDICT_CONTEXT_H_
#define VDB_CORE_VERDICT_CONTEXT_H_

#include <memory>
#include <string>

#include "common/governor.h"
#include "common/status.h"
#include "core/answer_rewriter.h"
#include "core/options.h"
#include "core/query_classifier.h"
#include "driver/dialect.h"
#include "engine/database.h"
#include "sampling/sample_builder.h"
#include "sampling/sample_catalog.h"

namespace vdb::core {

class VerdictContext {
 public:
  VerdictContext(engine::Database* db,
                 driver::EngineKind engine_kind = driver::EngineKind::kGeneric,
                 VerdictOptions options = {});

  /// Per-query execution report.
  struct ExecInfo {
    bool approximated = false;   // a rewritten query was used
    bool exact_rerun = false;    // HAC violated -> exact fallback executed
    bool degraded = false;       // exact fallback tripped the governor;
                                 // the approximate answer was served instead
    std::string skip_reason;     // why a query passed through
    std::string rewritten_sql;   // the SQL actually sent, as the connection
                                 // logged it (when approximated)
    std::string degradation_note;  // what degraded and why (when degraded)
    double max_relative_error = 0.0;
    int subsamples = 0;          // b
    uint64_t peak_memory_bytes = 0;  // governor peak reservation this query
  };

  /// Executes one statement. Supported aggregate SELECTs are approximated;
  /// everything else goes straight to the underlying database.
  Result<engine::ResultSet> Execute(const std::string& sql,
                                    ExecInfo* info = nullptr);

  /// Like Execute but returns the full approximate answer (error summaries).
  Result<ApproxAnswer> ExecuteApprox(const std::string& sql,
                                     ExecInfo* info = nullptr);

  // ---- sample preparation (offline stage, Fig. 2) ----
  sampling::SampleBuilder& sample_builder() { return builder_; }
  sampling::SampleCatalog& sample_catalog() { return catalog_; }
  driver::Connection& connection() { return conn_; }
  VerdictOptions& options() { return options_; }

  /// The per-query execution guard. Re-armed at the start of every Execute /
  /// ExecuteApprox from options().timeout_ms / memory_budget_bytes; exposed
  /// so another thread can RequestCancel() a query in flight (the next
  /// cooperative poll unwinds it with kCancelled).
  ExecGuard& exec_guard() { return guard_; }

 private:
  /// Approximates a parsed, flattened SELECT; *handled is false when it
  /// must pass through instead.
  Result<ApproxAnswer> TryApproximate(const sql::Statement& stmt,
                                      ExecInfo* info, bool* handled);

  /// Splits a query mixing extreme (min/max) and mean-like statistics into
  /// an exact half and an approximated half, merging results by group key
  /// (paper §2.2).
  Result<ApproxAnswer> DecomposeAndExecute(const sql::SelectStmt& sel,
                                           const QueryClass& qc,
                                           ExecInfo* info, bool* handled);

  /// Estimates the number of output groups by probing a sample with
  /// count(distinct ...); 0 when no estimate is available.
  int64_t EstimateGroupCardinality(
      const sql::SelectStmt& sel, const QueryClass& qc,
      const std::vector<sampling::SampleInfo>& samples);

  VerdictOptions options_;
  /// One guard per context, re-armed per query; every statement the query
  /// issues (probes, rewritten query, exact fallback) shares it, so the
  /// deadline and budget cover the query end to end.
  ExecGuard guard_;
  driver::Connection conn_;
  sampling::SampleCatalog catalog_;
  sampling::SampleBuilder builder_;
};

}  // namespace vdb::core

#endif  // VDB_CORE_VERDICT_CONTEXT_H_
