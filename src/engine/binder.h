// Name resolution: binds column references in expressions to column ordinals
// of an input table described by a Scope.

#ifndef VDB_ENGINE_BINDER_H_
#define VDB_ENGINE_BINDER_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "sql/ast.h"

namespace vdb::engine {

/// The case-folded (lowercase) spelling under which a Scope stores and
/// compares column names and qualifiers.
std::string FoldName(std::string name);

/// The columns visible to an expression: each has the qualifier of the
/// relation it came from (table alias / name) and its own name. Positions
/// correspond to the physical columns of the intermediate table.
class Scope {
 public:
  void Add(const std::string& qualifier, const std::string& name);

  size_t size() const { return cols_.size(); }
  const std::string& qualifier(size_t i) const { return cols_[i].qualifier; }
  const std::string& name(size_t i) const { return cols_[i].name; }

  /// Resolves a (possibly qualified) column name; kNotFound / ambiguity
  /// errors carry the offending name.
  Result<int> Resolve(const std::string& qualifier,
                      const std::string& name) const;

  /// All column ordinals matching a star expansion (`*` or `t.*`).
  std::vector<int> Expand(const std::string& qualifier) const;

 private:
  struct Col {
    std::string qualifier;
    std::string name;
  };
  std::vector<Col> cols_;
};

/// Which calls a bound expression may contain. Row context — WHERE, join
/// conditions, GROUP BY keys, HAVING and aggregate/window arguments — admits
/// scalar calls only. A select list may also hold window calls; their
/// arguments and partition keys are row context again. (Aggregate calls in
/// a grouped select list never reach the binder: the planner rebinds them
/// to columns of the aggregate table first.)
enum class BindContext { kRow, kSelectList };

/// Binds every column reference under `e` and resolves every scalar
/// function call to its id (ResolveScalarFunction), so evaluation never
/// looks a name up per row. An aggregate or window call where `context`
/// does not admit it is kInvalidArgument naming the function; an unknown
/// function is kUnsupported, even if no row would ever evaluate it.
/// Subqueries must have been resolved already (kSubquery nodes yield
/// kUnsupported).
Status BindExpr(sql::Expr* e, const Scope& scope,
                BindContext context = BindContext::kRow);

/// The same bind step for trees whose column references are already bound
/// (post-aggregation rebinding, programmatic predicates such as the sample
/// builder's `rand() < tau`): resolves every function call and checks the
/// context exactly as BindExpr does, leaving column references untouched.
Status ResolveFunctions(sql::Expr* e,
                        BindContext context = BindContext::kRow);

/// True if the tree contains a non-window aggregate function call.
bool ContainsAggregate(const sql::Expr& e);

/// True if the tree contains a window function call.
bool ContainsWindow(const sql::Expr& e);

}  // namespace vdb::engine

#endif  // VDB_ENGINE_BINDER_H_
