#include "core/query_classifier.h"

#include <algorithm>
#include <cctype>

#include "engine/catalog.h"
#include "engine/functions.h"

namespace vdb::core {

namespace {

using sql::Expr;
using sql::ExprKind;
using sql::SelectStmt;
using sql::TableRef;

std::string ToLower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

bool IsExtremeAgg(const std::string& name) {
  return name == "min" || name == "max";
}

/// Walks an expression tree recording aggregate kinds and rejecting
/// constructs VerdictDB does not approximate.
void ScanExpr(const Expr& e, QueryClass* qc) {
  if (e.kind == ExprKind::kExists) {
    qc->supported = false;
    qc->reason = "EXISTS subqueries are not supported";
    return;
  }
  if (e.kind == ExprKind::kFunction && !e.is_window &&
      vdb::engine::IsAggregateFunction(e.name)) {
    if (IsExtremeAgg(e.name)) {
      qc->has_extreme = true;
    } else if (e.name == "count" && e.distinct) {
      qc->has_count_distinct = true;
      if (!e.args.empty() && e.args[0]->kind == ExprKind::kColumnRef) {
        qc->count_distinct_column = ToLower(e.args[0]->name);
      }
      qc->has_mean_like = true;  // treated as a mean-like statistic
    } else {
      qc->has_mean_like = true;
    }
  }
  if (e.kind == ExprKind::kFunction && e.is_window) {
    qc->supported = false;
    qc->reason = "window functions in user queries are not approximated";
    return;
  }
  for (const auto& a : e.args) {
    if (a) ScanExpr(*a, qc);
  }
  for (const auto& w : e.case_whens) ScanExpr(*w, qc);
  for (const auto& t : e.case_thens) ScanExpr(*t, qc);
  if (e.case_else) ScanExpr(*e.case_else, qc);
}

/// Collects relations and join edges from the FROM tree.
void ScanFrom(const TableRef& ref, QueryClass* qc) {
  switch (ref.kind) {
    case TableRef::Kind::kBase: {
      RelationInfo ri;
      ri.alias = ToLower(ref.EffectiveName());
      ri.base_table = ToLower(ref.table_name);
      qc->relations.push_back(std::move(ri));
      return;
    }
    case TableRef::Kind::kDerived: {
      RelationInfo ri;
      ri.alias = ToLower(ref.alias);
      ri.is_derived = true;
      ri.derived = ref.derived.get();
      qc->relations.push_back(std::move(ri));
      return;
    }
    case TableRef::Kind::kJoin: {
      ScanFrom(*ref.left, qc);
      ScanFrom(*ref.right, qc);
      if (ref.join_type != sql::JoinType::kInner) {
        qc->supported = false;
        qc->reason = "only inner equi-joins are approximated";
        return;
      }
      // Extract equi edges from the ON conjuncts.
      std::vector<const Expr*> stack = {ref.on.get()};
      while (!stack.empty()) {
        const Expr* e = stack.back();
        stack.pop_back();
        if (e == nullptr) continue;
        if (e->kind == ExprKind::kBinary &&
            e->binary_op == sql::BinaryOp::kAnd) {
          stack.push_back(e->args[0].get());
          stack.push_back(e->args[1].get());
          continue;
        }
        if (e->kind == ExprKind::kBinary &&
            e->binary_op == sql::BinaryOp::kEq &&
            e->args[0]->kind == ExprKind::kColumnRef &&
            e->args[1]->kind == ExprKind::kColumnRef) {
          JoinEdge edge;
          edge.left_alias = ToLower(e->args[0]->qualifier);
          edge.left_column = ToLower(e->args[0]->name);
          edge.right_alias = ToLower(e->args[1]->qualifier);
          edge.right_column = ToLower(e->args[1]->name);
          qc->join_edges.push_back(std::move(edge));
        }
      }
      return;
    }
  }
}

/// A derived table in FROM qualifies as the paper's nested-aggregate pattern
/// if it is itself a supported flat aggregate query over base tables.
bool IsSupportedFlatAggregate(const SelectStmt& s) {
  QueryClass inner = ClassifyQuery(s);
  if (!inner.supported || inner.nested_aggregate) return false;
  for (const auto& r : inner.relations) {
    if (r.is_derived) return false;
  }
  return true;
}

}  // namespace

QueryClass ClassifyQuery(const SelectStmt& stmt) {
  QueryClass qc;
  qc.supported = true;

  if (stmt.union_next) {
    qc.supported = false;
    qc.reason = "UNION queries pass through";
    return qc;
  }
  if (stmt.distinct) {
    qc.supported = false;
    qc.reason = "SELECT DISTINCT passes through";
    return qc;
  }
  if (!stmt.from) {
    qc.supported = false;
    qc.reason = "constant SELECT";
    return qc;
  }

  for (const auto& item : stmt.items) {
    if (item.expr->kind == ExprKind::kStar) {
      qc.supported = false;
      qc.reason = "SELECT * has no aggregates to approximate";
      return qc;
    }
    ScanExpr(*item.expr, &qc);
    if (!qc.supported) return qc;
  }
  if (stmt.where) {
    ScanExpr(*stmt.where, &qc);
    if (!qc.supported) return qc;
  }
  if (stmt.having) {
    ScanExpr(*stmt.having, &qc);
    if (!qc.supported) return qc;
  }

  ScanFrom(*stmt.from, &qc);
  if (!qc.supported) return qc;

  for (const auto& g : stmt.group_by) {
    if (g->kind == ExprKind::kColumnRef) {
      qc.group_columns.push_back(ToLower(g->name));
    }
  }

  if (!qc.has_mean_like) {
    qc.supported = false;
    qc.reason = qc.has_extreme
                    ? "only extreme statistics (min/max); not approximated"
                    : "no aggregate functions";
    return qc;
  }

  // Derived tables are allowed only in the single-relation nested-aggregate
  // pattern (§5.2).
  size_t derived = 0;
  for (const auto& r : qc.relations) {
    if (r.is_derived) ++derived;
  }
  if (derived > 0) {
    if (qc.relations.size() == 1 && qc.relations[0].is_derived &&
        IsSupportedFlatAggregate(*qc.relations[0].derived)) {
      qc.nested_aggregate = true;
    } else if (derived < qc.relations.size()) {
      // Derived tables joined with base tables (e.g. produced by subquery
      // flattening) are fine: they are executed exactly, never sampled.
    } else {
      qc.supported = false;
      qc.reason = "unsupported derived-table shape";
      return qc;
    }
  }
  return qc;
}

void QualifyJoinEdges(QueryClass* qc, const engine::Catalog& catalog) {
  auto owner_of = [&](const std::string& column) -> std::string {
    std::string found;
    for (const auto& r : qc->relations) {
      if (r.is_derived) continue;
      auto t = catalog.GetTable(r.base_table);
      if (t && t->ColumnIndex(column) >= 0) {
        if (!found.empty()) return "";  // ambiguous
        found = r.alias;
      }
    }
    return found;
  };
  for (auto& e : qc->join_edges) {
    if (e.left_alias.empty()) e.left_alias = owner_of(e.left_column);
    if (e.right_alias.empty()) e.right_alias = owner_of(e.right_column);
  }
}

}  // namespace vdb::core
