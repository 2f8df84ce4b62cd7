// Sample planning (paper Appendix E): choose, per base relation of a query,
// the sample table (or the base table itself) that maximizes a score =
// sqrt(effective sampling ratio) * advantage factors, subject to a per-table
// I/O budget, with top-k heuristic pruning.

#ifndef VDB_CORE_SAMPLE_PLANNER_H_
#define VDB_CORE_SAMPLE_PLANNER_H_

#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/options.h"
#include "core/query_classifier.h"
#include "sampling/sample_types.h"

namespace vdb::core {

/// Assignment for a single relation (by alias).
struct RelationChoice {
  std::string alias;
  /// Empty sample_table => use the base table (ratio 1, prob column absent).
  sampling::SampleInfo sample;
  bool sampled = false;
};

struct SamplePlan {
  std::map<std::string, RelationChoice> choices;  // keyed by alias
  /// The subsample-id rule, decided here only (docs/INVARIANTS.md,
  /// "Subsample-id contract"). Empty: the one sampled relation draws
  /// sid = 1 + floor(rand()*b) (§4.1). Set: sids are hash blocks of
  /// universe_alias.universe_column (§5.1), for a lone sample hashed on the
  /// count-distinct column or for two hashed samples joined on their hash
  /// columns; universe_alias is then the first sampled alias of `choices`.
  std::string universe_alias;
  std::string universe_column;
  double score = 0.0;
  /// Total tuples the rewritten query will read.
  double io_cost = 0.0;
  int sampled_relations = 0;

  bool UsesSamples() const { return sampled_relations > 0; }
};

struct PlannerStats {
  int candidates_enumerated = 0;
};

class SamplePlanner {
 public:
  SamplePlanner(const VerdictOptions& options,
                std::vector<sampling::SampleInfo> available)
      : options_(options), available_(std::move(available)) {}

  /// Plans samples for a classified query. `group_cardinality_hint` (optional,
  /// <=0 to ignore) is the estimated number of output groups; plans whose
  /// expected tuples-per-group falls below options.min_tuples_per_group are
  /// rejected — in that case a non-sampled plan is returned (AQP infeasible,
  /// matching tq-3/8/15 behaviour in the paper).
  Result<SamplePlan> Plan(const QueryClass& qc,
                          const std::map<std::string, uint64_t>& base_rows,
                          int64_t group_cardinality_hint = 0);

  const PlannerStats& stats() const { return stats_; }

 private:
  const VerdictOptions& options_;
  std::vector<sampling::SampleInfo> available_;
  PlannerStats stats_;
};

}  // namespace vdb::core

#endif  // VDB_CORE_SAMPLE_PLANNER_H_
