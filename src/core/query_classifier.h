// Decides whether a query can be approximated (paper §2.2, Table 1) and
// extracts the structural facts the sample planner needs.

#ifndef VDB_CORE_QUERY_CLASSIFIER_H_
#define VDB_CORE_QUERY_CLASSIFIER_H_

#include <string>
#include <vector>

#include "sql/ast.h"

namespace vdb::engine {
class Catalog;
}  // namespace vdb::engine

namespace vdb::core {

/// One relation appearing in the FROM tree.
struct RelationInfo {
  std::string alias;       // effective name (alias or table name), lowercase
  std::string base_table;  // empty for derived tables
  bool is_derived = false;
  const sql::SelectStmt* derived = nullptr;
};

/// An equi-join edge between two relations.
struct JoinEdge {
  std::string left_alias, left_column;
  std::string right_alias, right_column;
};

struct QueryClass {
  bool supported = false;  // can VerdictDB speed it up?
  std::string reason;      // populated when unsupported

  bool has_mean_like = false;  // count/sum/avg/var/stddev/quantile/UDA
  bool has_extreme = false;    // min/max
  bool has_count_distinct = false;
  std::string count_distinct_column;  // unqualified column of count(distinct)

  /// True if the FROM clause is a single derived table that is itself a
  /// supported aggregate query (paper §5.2 nested pattern).
  bool nested_aggregate = false;

  std::vector<RelationInfo> relations;
  std::vector<JoinEdge> join_edges;

  /// Unqualified names of plain-column GROUP BY expressions (empty entry-
  /// free; expression group-bys are not listed). Used by the planner's
  /// stratified-sample advantage and feasibility checks.
  std::vector<std::string> group_columns;
};

/// Classifies a SELECT. Unsupported queries pass through to the underlying
/// database unchanged (they see no speedup but still succeed).
QueryClass ClassifyQuery(const sql::SelectStmt& stmt);

/// Join conditions often use unqualified columns (`on l_orderkey =
/// o_orderkey`); universe-join detection needs the owning relations, so
/// this fills empty edge qualifiers from the base-table schemas (left empty
/// when no or several relations own the column).
void QualifyJoinEdges(QueryClass* qc, const engine::Catalog& catalog);

}  // namespace vdb::core

#endif  // VDB_CORE_QUERY_CLASSIFIER_H_
