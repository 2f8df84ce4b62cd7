#include "engine/planner.h"

#include <algorithm>
#include <atomic>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "common/thread_pool.h"
#include "engine/agg_table.h"
#include "engine/aggregates.h"
#include "engine/binder.h"
#include "engine/functions.h"
#include "engine/group_ids.h"
#include "engine/kernels/bitmap.h"
#include "engine/operators.h"
#include "engine/vector_eval.h"
#include "engine/window.h"
#include "sql/printer.h"

namespace vdb::engine {

namespace {

using sql::Expr;
using sql::ExprKind;
using sql::SelectStmt;
using sql::TableRef;

/// Test hook (SetJoinWherePushdownForTest): pair-view WHERE pushdown on/off.
// Test hook: atomic (relaxed) — tests write between queries while pool
// workers may still read; see docs/INVARIANTS.md (test-hook contract).
std::atomic<bool> g_join_where_pushdown{true};

/// Rank-select over a filter bitmap: the view position of the rank-th set
/// bit (0-based). `wprefix[w]` is the number of set bits before word w
/// (wprefix.size() == num_words + 1) — binary-search the owning word, then
/// walk its bits. Grouped aggregation uses this to turn a morsel's
/// survivor-rank range into the dense row span it must evaluate.
size_t BitmapSelect(const kernels::Bitmap& bits,
                    const std::vector<size_t>& wprefix, size_t rank) {
  size_t lo = 0, hi = bits.num_words();
  while (lo + 1 < hi) {
    const size_t mid = (lo + hi) / 2;
    if (wprefix[mid] <= rank) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  uint64_t word = bits.word(lo);
  for (size_t r = wprefix[lo]; r < rank; ++r) word &= word - 1;
  return lo * 64 + static_cast<size_t>(__builtin_ctzll(word));
}

// ---- rand call-site numbering ---------------------------------------------
// Every rand/random/rand_poisson node gets a 1-based call-site id, assigned
// once per statement in sql::ForEachRandCall's fixed traversal order
// (sql/ast.h). The id is part of the row-addressed draw
// (RandAddr.site), so distinct call sites draw independently while clones of
// the same site — pushdown copies, rebinds — keep identical draws. Numbering
// is two-pass: a scan pass finds the maximum id already present (statements
// may mix fresh nodes with pre-numbered cloned subtrees, in either traversal
// order), then fresh ids start above it — so a fresh node can never collide
// with a pre-numbered one and silently correlate two call sites. Re-entry on
// a fully numbered statement is a no-op.

/// Numbers the statement's rand call sites and returns the highest id, 0
/// when the statement calls no rand-family function.
int AssignRandSites(SelectStmt* stmt) {
  int next = 1;
  sql::ForEachRandCall(*stmt, [&next](Expr& e) {
    if (e.rand_site >= next) next = e.rand_site + 1;
  });
  sql::ForEachRandCall(*stmt, [&next](Expr& e) {
    if (e.rand_site == 0) e.rand_site = next++;
  });
  return next - 1;
}

/// A gathered FROM relation: the table the statement reads.
struct RelResult {
  TablePtr table;
  Scope scope;
};

/// A FROM-tree relation before the FROM root's gather: a leaf table or a
/// join's row set. Scope ordinals are the row set's combined columns.
struct RelRows {
  RowSet rows;
  Scope scope;
};

/// Splits an AND tree into conjuncts (non-owning).
void CollectConjuncts(Expr* e, std::vector<Expr*>* out) {
  if (e->kind == ExprKind::kBinary && e->binary_op == sql::BinaryOp::kAnd) {
    CollectConjuncts(e->args[0].get(), out);
    CollectConjuncts(e->args[1].get(), out);
    return;
  }
  out->push_back(e);
}

/// True if the statement draws rand anywhere outside its WHERE clause
/// (select items, GROUP BY, HAVING, ORDER BY). Such statements are barred
/// from the pair-view WHERE pushdown: see the eligibility comment in
/// RunSingle.
bool RandOutsideWhere(const SelectStmt& stmt) {
  for (const auto& it : stmt.items) {
    if (it.expr->kind != ExprKind::kStar &&
        sql::ContainsRandFunction(*it.expr)) {
      return true;
    }
  }
  for (const auto& g : stmt.group_by) {
    if (sql::ContainsRandFunction(*g)) return true;
  }
  if (stmt.having && sql::ContainsRandFunction(*stmt.having)) return true;
  for (const auto& o : stmt.order_by) {
    if (sql::ContainsRandFunction(*o.expr)) return true;
  }
  return false;
}

// ---- Projection pruning -----------------------------------------------------
// Column names a statement can reference from its FROM tree: every
// kColumnRef name in the statement's own expressions (select list, WHERE,
// GROUP BY, HAVING, ORDER BY, every join ON condition of the tree), folded
// the way Scope stores names. Derived-table outputs keep only these
// columns; the FROM root's gather keeps only those read after the joins
// (no ON condition, and no WHERE the joins already applied). Nested
// derived subqueries and scalar subqueries resolve against their own scopes
// (the engine has no correlated subqueries), so the walk does not descend
// into them — descending would also pick up their internal `*` items and
// defeat the prune. A `*` select item references everything; the star that
// is count(*)'s argument references nothing and is skipped.
void CollectColumnRefNames(const Expr& e, std::set<std::string>* names,
                           bool* star) {
  switch (e.kind) {
    case ExprKind::kColumnRef: names->insert(FoldName(e.name)); return;
    case ExprKind::kStar: *star = true; return;
    default: break;
  }
  for (const auto& a : e.args) {
    if (!a) continue;
    if (e.kind == ExprKind::kFunction && a->kind == ExprKind::kStar) continue;
    CollectColumnRefNames(*a, names, star);
  }
  for (const auto& w : e.case_whens) CollectColumnRefNames(*w, names, star);
  for (const auto& t : e.case_thens) CollectColumnRefNames(*t, names, star);
  if (e.case_else) CollectColumnRefNames(*e.case_else, names, star);
  for (const auto& p : e.partition_by) CollectColumnRefNames(*p, names, star);
}

void CollectColumnRefNamesFrom(const TableRef& ref,
                               std::set<std::string>* names, bool* star) {
  if (ref.on) CollectColumnRefNames(*ref.on, names, star);
  if (ref.left) CollectColumnRefNamesFrom(*ref.left, names, star);
  if (ref.right) CollectColumnRefNamesFrom(*ref.right, names, star);
}

/// The statement's referenced names, with or without its WHERE and the ON
/// conditions of its FROM tree; nullopt when a `*` select item references
/// every column.
std::optional<std::set<std::string>> CollectColumnRefNamesStmt(
    const SelectStmt& stmt, bool with_where, bool with_on) {
  std::set<std::string> names;
  bool star = false;
  for (const auto& it : stmt.items) {
    CollectColumnRefNames(*it.expr, &names, &star);
  }
  if (stmt.where && with_where) {
    CollectColumnRefNames(*stmt.where, &names, &star);
  }
  for (const auto& g : stmt.group_by) CollectColumnRefNames(*g, &names, &star);
  if (stmt.having) CollectColumnRefNames(*stmt.having, &names, &star);
  for (const auto& o : stmt.order_by) {
    CollectColumnRefNames(*o.expr, &names, &star);
  }
  if (stmt.from && with_on) {
    CollectColumnRefNamesFrom(*stmt.from, &names, &star);
  }
  if (star) return std::nullopt;
  return names;
}

/// True if the tree contains a window-function node. Window frames need
/// contiguous physical rows, so their presence forces the one early gather.
bool ContainsWindow(const Expr& e) {
  return sql::AnyExprNode(e, [](const Expr& n) {
    return n.kind == ExprKind::kFunction && n.is_window;
  });
}

class SelectExecutor {
 public:
  SelectExecutor(Database* db, uint64_t rand_seed,
                 const ExecGuard* guard = nullptr)
      : db_(db), rand_seed_(rand_seed), guard_(guard) {}

  Result<ResultSet> Run(SelectStmt* stmt) {
    auto head = RunSingle(stmt);
    if (!head.ok()) return head.status();
    ResultSet rs = std::move(head).ValueOrDie();
    SelectStmt* next = stmt->union_next.get();
    while (next != nullptr) {
      auto part = RunSingle(next);
      if (!part.ok()) return part.status();
      const ResultSet& p = part.value();
      if (p.NumCols() != rs.NumCols()) {
        return Status::InvalidArgument("UNION ALL arity mismatch");
      }
      rs.table->AppendRange(*p.table, 0, p.NumRows());
      next = next->union_next.get();
    }
    return rs;
  }

 private:
  // ---------------------------------------------------------------- FROM --
  /// Executes the FROM tree and performs its one gather. A leaf (base or
  /// derived table) is read as is; a join tree's row set gathers only the
  /// columns the statement reads after the joins — neither ON-only columns
  /// nor, once the root join applied it, WHERE-only ones. A `*` keeps them
  /// all. At least one column survives so the row count does, as for
  /// derived tables: a table's columns carry its row count.
  Result<RelResult> ExecuteFrom(const SelectStmt& stmt) {
    auto rel = ExecuteRel(stmt.from.get());
    if (!rel.ok()) return rel.status();
    RelRows& r = rel.value();
    RelResult out;
    if (r.rows.leaf_table() != nullptr) {
      out.table = r.rows.leaf_table();
      out.scope = std::move(r.scope);
      return out;
    }
    const auto read = CollectColumnRefNamesStmt(
        stmt, /*with_where=*/!pushdown_where_applied_, /*with_on=*/false);
    std::vector<size_t> keep;
    for (size_t i = 0; i < r.scope.size(); ++i) {
      if (!read || read->count(r.scope.name(i)) != 0) keep.push_back(i);
    }
    if (keep.empty() && r.scope.size() > 0) keep.push_back(0);
    auto gathered = r.rows.GatherGuarded(db_->num_threads(), guard_, keep);
    if (!gathered.ok()) return gathered.status();
    out.table = std::move(gathered).ValueOrDie();
    for (size_t i : keep) out.scope.Add(r.scope.qualifier(i), r.scope.name(i));
    return out;
  }

  Result<RelRows> ExecuteRel(TableRef* ref) {
    switch (ref->kind) {
      case TableRef::Kind::kBase: {
        TablePtr t = db_->catalog().GetTable(ref->table_name);
        if (!t) return Status::NotFound("no such table: " + ref->table_name);
        db_->AddRowsScanned(t->num_rows());
        RelRows r;
        for (size_t i = 0; i < t->num_columns(); ++i) {
          r.scope.Add(ref->EffectiveName(), t->column_name(i));
        }
        r.rows = RowSet::Of(std::move(t));
        return r;
      }
      case TableRef::Kind::kDerived: {
        SelectExecutor sub(db_, rand_seed_, guard_);
        SelectStmt* d = ref->derived.get();
        // Prune derived outputs this statement never references: a
        // `select *, ...` subquery otherwise materializes every input
        // column (the VerdictDB rewriter's sid-assigning derived table
        // copies the whole scan width). Pruning only skips evaluation —
        // rand draws are (row, site)-addressed, so the surviving items see
        // identical values — and is disabled whenever dropping a column
        // could change the derived result itself (DISTINCT row set, ORDER
        // BY positions, UNION arity) or a `*` in the outer wants it all.
        if (referenced_ && d->union_next == nullptr && !d->distinct &&
            d->order_by.empty()) {
          sub.output_keep_ = &*referenced_;
        }
        auto rs = sub.Run(d);
        if (!rs.ok()) return rs.status();
        RelRows r;
        for (const auto& n : rs.value().names) r.scope.Add(ref->alias, n);
        r.rows = RowSet::Of(rs.value().table);
        return r;
      }
      case TableRef::Kind::kJoin:
        return ExecuteJoin(ref);
    }
    return Status::Internal("unknown table ref kind");
  }

  /// Joins two row sets and hands the joined row set up the tree, without
  /// gathering: the join reads only its key columns and the columns its ON
  /// residual and a pushed-down WHERE reference.
  Result<RelRows> ExecuteJoin(TableRef* ref) {
    // The FROM-root join consumes the pushed-down WHERE (if any); nested
    // join children, executed below, must not see it.
    const Expr* pushdown = pushdown_where_;
    pushdown_where_ = nullptr;
    auto left = ExecuteRel(ref->left.get());
    if (!left.ok()) return left.status();
    auto right = ExecuteRel(ref->right.get());
    if (!right.ok()) return right.status();
    RelRows& lr = left.value();
    RelRows& rr = right.value();

    RelRows out;
    Scope& combined = out.scope;
    for (size_t i = 0; i < lr.scope.size(); ++i) {
      combined.Add(lr.scope.qualifier(i), lr.scope.name(i));
    }
    for (size_t i = 0; i < rr.scope.size(); ++i) {
      combined.Add(rr.scope.qualifier(i), rr.scope.name(i));
    }

    // Partition the ON condition into equi-key pairs and a residual.
    std::vector<Expr::Ptr> left_keys, right_keys;
    std::vector<Expr::Ptr> residual_parts;
    if (ref->on) {
      std::vector<Expr*> conjuncts;
      CollectConjuncts(ref->on.get(), &conjuncts);
      for (Expr* c : conjuncts) {
        bool is_key = false;
        if (c->kind == ExprKind::kBinary &&
            c->binary_op == sql::BinaryOp::kEq) {
          auto l0 = c->args[0]->Clone();
          auto r0 = c->args[1]->Clone();
          if (BindExpr(l0.get(), lr.scope).ok() &&
              BindExpr(r0.get(), rr.scope).ok()) {
            left_keys.push_back(std::move(l0));
            right_keys.push_back(std::move(r0));
            is_key = true;
          } else {
            auto l1 = c->args[1]->Clone();
            auto r1 = c->args[0]->Clone();
            if (BindExpr(l1.get(), lr.scope).ok() &&
                BindExpr(r1.get(), rr.scope).ok()) {
              left_keys.push_back(std::move(l1));
              right_keys.push_back(std::move(r1));
              is_key = true;
            }
          }
        }
        if (!is_key) residual_parts.push_back(c->Clone());
      }
    }
    Expr::Ptr residual = sql::AndAll(std::move(residual_parts));
    if (residual) {
      VDB_RETURN_IF_ERROR(BindExpr(residual.get(), combined));
    }

    Result<JoinPairs> joined = Status::Internal("join not executed");
    if (!left_keys.empty()) {
      joined = HashJoinPairsExprs(lr.rows, rr.rows, left_keys, right_keys,
                                  ref->join_type, residual.get());
    } else {
      if (ref->join_type == sql::JoinType::kLeft) {
        return Status::Unsupported("left join requires an equi condition");
      }
      joined = CrossJoinPairs(lr.rows, rr.rows, residual.get(), rand_seed_,
                              200'000'000, db_->num_threads(), guard_);
    }
    if (!joined.ok()) return joined.status();
    JoinPairs pairs = std::move(joined).ValueOrDie();

    // WHERE pushdown: the query's WHERE filters the pairs before they are
    // composed, so non-surviving pairs never reach the FROM root's gather.
    // Valid for inner joins (identical to a residual) AND left joins
    // (null-extended pairs evaluate with NULL right columns, exactly as the
    // materialized rows would) — including rand()-bearing predicates: their
    // draws address the global pair ordinal, which equals the materialized
    // row position the post-gather WHERE would see. If the clone fails to
    // bind against the combined scope, fall back to the post-gather WHERE
    // path.
    if (pushdown != nullptr) {
      auto w = pushdown->Clone();
      if (BindExpr(w.get(), combined).ok()) {
        VDB_RETURN_IF_ERROR(FilterJoinPairs(*w, lr.rows, rr.rows, &pairs,
                                            rand_seed_, db_->num_threads(),
                                            guard_));
        pushdown_where_applied_ = true;
      }
    }

    auto rows = RowSet::Join(std::move(lr.rows), std::move(rr.rows),
                             std::move(pairs), db_->num_threads(), guard_);
    if (!rows.ok()) return rows.status();
    out.rows = std::move(rows).ValueOrDie();
    return out;
  }

  /// Hash join on arbitrary bound key expressions. Plain column-ref keys
  /// borrow the key source's own columns; expression keys are evaluated
  /// into standalone columns passed by pointer — the join inputs are never
  /// padded or copied, the output schema never contains helper columns, and
  /// residual predicates (bound against the combined schema) compose with
  /// expression keys without any ordinal shifting.
  Result<JoinPairs> HashJoinPairsExprs(const RowSet& left,
                                       const RowSet& right,
                                       const std::vector<Expr::Ptr>& lkeys,
                                       const std::vector<Expr::Ptr>& rkeys,
                                       sql::JoinType type,
                                       const Expr* residual) {
    // A leaf side reads its own table; a joined side gathers only the
    // columns its keys read, charged at "gather_alloc" and released with
    // them when the join returns.
    auto key_mask = [](const RowSet& rows, const std::vector<Expr::Ptr>& keys) {
      std::vector<uint8_t> mask(rows.num_columns(), 0);
      for (const auto& k : keys) MarkBoundColumns(*k, &mask);
      return mask;
    };
    const std::vector<uint8_t> lmask = key_mask(left, lkeys);
    const std::vector<uint8_t> rmask = key_mask(right, rkeys);
    ScopedReservation key_charge(
        guard_, left.MaskedBytes(lmask) + right.MaskedBytes(rmask),
        "gather_alloc");
    VDB_RETURN_IF_ERROR(key_charge.status());
    const TablePtr lsrc = left.GatherMasked(lmask, db_->num_threads());
    const TablePtr rsrc = right.GatherMasked(rmask, db_->num_threads());

    // One pass per side decides borrow-vs-evaluate exactly once; the deque
    // gives evaluated columns stable addresses as it grows. The key columns
    // only need to live through HashJoinPairs — the returned pairs hold row
    // indices, not key references.
    std::deque<Column> owned;
    auto collect = [&](const Table& t, const std::vector<Expr::Ptr>& keys,
                       std::vector<const Column*>* cols) -> Status {
      Batch batch{&t, nullptr, rand_seed_};
      for (const auto& k : keys) {
        if (k->kind == ExprKind::kColumnRef && k->bound_column >= 0) {
          cols->push_back(&t.column(static_cast<size_t>(k->bound_column)));
          continue;
        }
        auto kc = EvalExprBatch(*k, batch);
        if (!kc.ok()) return kc.status();
        owned.push_back(std::move(kc).ValueOrDie());
        cols->push_back(&owned.back());
      }
      return Status::Ok();
    };
    std::vector<const Column*> lcols, rcols;
    VDB_RETURN_IF_ERROR(collect(*lsrc, lkeys, &lcols));
    VDB_RETURN_IF_ERROR(collect(*rsrc, rkeys, &rcols));
    return HashJoinPairs(left, right, lcols, rcols, type, residual,
                         rand_seed_, db_->num_threads(), guard_);
  }

  // ------------------------------------------------------ scalar subquery --
  Status ResolveSubqueries(Expr* e) {
    if (e->kind == ExprKind::kSubquery) {
      SelectExecutor sub(db_, rand_seed_, guard_);
      auto rs = sub.Run(e->subquery.get());
      if (!rs.ok()) return rs.status();
      const ResultSet& r = rs.value();
      if (r.NumCols() != 1) {
        return Status::InvalidArgument("scalar subquery must return 1 column");
      }
      if (r.NumRows() > 1) {
        return Status::InvalidArgument("scalar subquery returned >1 row");
      }
      e->kind = ExprKind::kLiteral;
      e->literal = r.NumRows() == 0 ? Value::Null() : r.Get(0, 0);
      e->subquery.reset();
      return Status::Ok();
    }
    if (e->kind == ExprKind::kExists) {
      SelectExecutor sub(db_, rand_seed_, guard_);
      auto rs = sub.Run(e->subquery.get());
      if (!rs.ok()) return rs.status();
      e->kind = ExprKind::kLiteral;
      e->literal = Value::Bool(rs.value().NumRows() > 0);
      e->subquery.reset();
      return Status::Ok();
    }
    for (auto& a : e->args) {
      if (a) VDB_RETURN_IF_ERROR(ResolveSubqueries(a.get()));
    }
    for (auto& w : e->case_whens) VDB_RETURN_IF_ERROR(ResolveSubqueries(w.get()));
    for (auto& t : e->case_thens) VDB_RETURN_IF_ERROR(ResolveSubqueries(t.get()));
    if (e->case_else) VDB_RETURN_IF_ERROR(ResolveSubqueries(e->case_else.get()));
    for (auto& p : e->partition_by) {
      VDB_RETURN_IF_ERROR(ResolveSubqueries(p.get()));
    }
    return Status::Ok();
  }

  // ------------------------------------------------------------ main body --
  Result<ResultSet> RunSingle(SelectStmt* stmt) {
    referenced_ = CollectColumnRefNamesStmt(*stmt, /*with_where=*/true,
                                            /*with_on=*/true);
    // WHERE pushdown eligibility: when the FROM root is a join, the WHERE
    // can filter candidate pairs before the join's one combined gather
    // (ExecuteJoin consumes pushdown_where_). rand()-bearing predicates are
    // eligible — row-addressed draws make pushdown and post-gather
    // evaluation of the WHERE bit-identical (global pair ordinal =
    // materialized row). Excluded: subquery-bearing predicates, whose
    // subqueries resolve only after FROM execution (the pushdown clone
    // would carry unresolved subquery nodes into the pair evaluator), and
    // statements drawing rand ANYWHERE OUTSIDE the WHERE — pushdown
    // compacts the gathered join to the WHERE survivors, so downstream
    // rand draws would address compacted positions instead of the pair
    // ordinals the post-gather plan sees, breaking plan-shape invariance.
    pushdown_where_ = nullptr;
    pushdown_where_applied_ = false;
    if (g_join_where_pushdown.load(std::memory_order_relaxed) && stmt->where &&
        !RandOutsideWhere(*stmt) &&
        !sql::AnyExprNode(*stmt->where, [](const Expr& n) {
          return n.subquery != nullptr;
        })) {
      pushdown_where_ = stmt->where.get();
    }

    // FROM
    RelResult input;
    if (stmt->from) {
      auto r = ExecuteFrom(*stmt);
      if (!r.ok()) return r.status();
      input = std::move(r).ValueOrDie();
      pushdown_where_ = nullptr;  // only the FROM-root join may consume it
    } else {
      auto dummy = std::make_shared<Table>();
      Column c(TypeId::kInt64);
      c.AppendInt(0);
      dummy->AddColumn("__dummy", std::move(c));
      input.table = dummy;
      input.scope.Add("", "__dummy");
    }

    // Pre-execute scalar subqueries everywhere they may appear.
    for (auto& it : stmt->items) {
      VDB_RETURN_IF_ERROR(ResolveSubqueries(it.expr.get()));
    }
    if (stmt->where) VDB_RETURN_IF_ERROR(ResolveSubqueries(stmt->where.get()));
    if (stmt->having) VDB_RETURN_IF_ERROR(ResolveSubqueries(stmt->having.get()));
    for (auto& g : stmt->group_by) VDB_RETURN_IF_ERROR(ResolveSubqueries(g.get()));
    for (auto& o : stmt->order_by) {
      VDB_RETURN_IF_ERROR(ResolveSubqueries(o.expr.get()));
    }

    auto inview = RowView::All(input.table);
    if (!inview.ok()) return inview.status();
    RowView view = std::move(inview).ValueOrDie();

    bool grouped = !stmt->group_by.empty();
    if (!grouped) {
      for (const auto& it : stmt->items) {
        if (ContainsAggregate(*it.expr)) {
          grouped = true;
          break;
        }
      }
      if (stmt->having && ContainsAggregate(*stmt->having)) grouped = true;
    }

    // WHERE: morsel-parallel batch predicate over the input view. Grouped
    // queries keep the survivors as a row BITMAP that RunGrouped consumes
    // directly (selected-row group assignment and scatter), so selective
    // GROUP BYs never expand the mask into a selection vector or gather
    // survivors. Everything else keeps the (table, SelVector) view — no
    // gather; downstream operators evaluate through the view and the
    // projection (or the result boundary) performs the query's one
    // full-width gather.
    kernels::Bitmap where_bits;
    const kernels::Bitmap* group_filter = nullptr;
    if (stmt->where && !pushdown_where_applied_) {
      VDB_RETURN_IF_ERROR(BindExpr(stmt->where.get(), input.scope));
      if (grouped) {
        VDB_RETURN_IF_ERROR(EvalPredicateBitmap(*stmt->where, view, rand_seed_,
                                                db_->num_threads(),
                                                &where_bits, guard_));
        if (where_bits.CountSet() < view.num_rows()) {
          group_filter = &where_bits;
        }
      } else {
        SelVector sel;
        VDB_RETURN_IF_ERROR(EvalPredicateView(*stmt->where, view, rand_seed_,
                                              db_->num_threads(), &sel,
                                              guard_));
        if (sel.size() < view.num_rows()) {
          auto filtered = RowView::Select(input.table, std::move(sel));
          if (!filtered.ok()) return filtered.status();
          view = std::move(filtered).ValueOrDie();
        }
      }
    }

    ResultSet out;
    if (grouped) {
      auto rs = RunGrouped(stmt, view, input.scope, group_filter);
      if (!rs.ok()) return rs.status();
      out = std::move(rs).ValueOrDie();
    } else {
      auto rs = RunProjection(stmt, view, input.scope);
      if (!rs.ok()) return rs.status();
      out = std::move(rs).ValueOrDie();
    }

    // DISTINCT / ORDER BY / LIMIT compose views over the projected output
    // instead of gathering after each step; the chain materializes at most
    // once, at the result boundary below.
    auto outview = RowView::All(out.table);
    if (!outview.ok()) return outview.status();
    RowView oview = std::move(outview).ValueOrDie();
    if (stmt->distinct) VDB_RETURN_IF_ERROR(Dedupe(&oview));
    VDB_RETURN_IF_ERROR(ApplyOrderBy(stmt, out, &oview));
    if (stmt->limit >= 0) {
      oview = oview.Prefix(static_cast<size_t>(stmt->limit));
    }
    auto final_table = oview.GatherGuarded(db_->num_threads(), guard_);
    if (!final_table.ok()) return final_table.status();
    out.table = std::move(final_table).ValueOrDie();
    return out;
  }

  // --------------------------------------------------- non-grouped select --
  Result<ResultSet> RunProjection(SelectStmt* stmt, const RowView& input_view,
                                  const Scope& scope) {
    // Expand stars and build the output item list.
    struct OutItem {
      const Expr* expr = nullptr;  // non-owning (points into stmt or extras)
      std::string name;
      int direct_column = -1;  // fast path: copy the input column wholesale
    };
    std::vector<OutItem> outs;

    for (auto& item : stmt->items) {
      if (item.expr->kind == ExprKind::kStar) {
        for (int idx : scope.Expand(item.expr->qualifier)) {
          OutItem oi;
          oi.name = scope.name(static_cast<size_t>(idx));
          if (oi.name == "__dummy") continue;
          oi.direct_column = idx;
          outs.push_back(std::move(oi));
        }
        continue;
      }
      VDB_RETURN_IF_ERROR(
          BindExpr(item.expr.get(), scope, BindContext::kSelectList));
      OutItem oi;
      oi.expr = item.expr.get();
      oi.name = !item.alias.empty()
                    ? item.alias
                    : (item.expr->kind == ExprKind::kColumnRef
                           ? item.expr->name
                           : sql::PrintExpr(*item.expr));
      if (item.expr->kind == ExprKind::kColumnRef) {
        oi.direct_column = item.expr->bound_column;
      }
      outs.push_back(std::move(oi));
    }

    // Derived-table projection pruning (see ExecuteFrom): drop outputs the
    // outer statement never references, before any of them are evaluated
    // or copied. At least one column always survives so the result keeps
    // its row count (a bare outer count(*) references none).
    if (output_keep_ != nullptr && !outs.empty()) {
      std::vector<OutItem> kept;
      for (auto& oi : outs) {
        if (output_keep_->count(FoldName(oi.name)) != 0) {
          kept.push_back(std::move(oi));
        }
      }
      if (kept.empty()) kept.push_back(std::move(outs[0]));
      outs = std::move(kept);
    }

    // Window functions need contiguous physical frames: their presence
    // forces the one full-width gather up front, after which the view is
    // the identity again.
    RowView view = input_view;
    TablePtr work = view.table();
    bool has_window = false;
    for (const auto& item : stmt->items) {
      if (item.expr->kind != ExprKind::kStar && ContainsWindow(*item.expr)) {
        has_window = true;
        break;
      }
    }
    if (has_window) {
      auto gathered = view.GatherGuarded(db_->num_threads(), guard_);
      if (!gathered.ok()) return gathered.status();
      work = std::move(gathered).ValueOrDie();
      std::map<std::string, int> window_cols;  // vdb-lint: allow(string-keyed-map) plan-time metadata, bounded by SELECT-list length
      for (auto& item : stmt->items) {
        if (item.expr->kind == ExprKind::kStar) continue;
        VDB_RETURN_IF_ERROR(
            MaterializeWindows(item.expr.get(), &work, &window_cols));
      }
      auto wv = RowView::All(work);
      if (!wv.ok()) return wv.status();
      view = std::move(wv).ValueOrDie();
    }

    ResultSet rs;
    auto table = std::make_shared<Table>();
    for (const auto& oi : outs) {
      rs.names.push_back(oi.name);
    }
    // Materialize the output columns from the view: direct columns copy
    // (identity) or gather once; expressions evaluate morsel-parallel with
    // per-morsel chunks concatenated type-stably. This is the projection's
    // single full-width materialization.
    //
    // Expressions are evaluated BEFORE the wholesale direct-column copies
    // (results staged, appended in select order): expression pipelines
    // allocate and release large intermediate vectors, and running them
    // first lets the allocator hand that memory straight to the retained
    // copies instead of growing the heap past both at once. Expression
    // results are order-independent — rand() draws are addressed by row
    // ordinal, not evaluation sequence — so staging cannot change output.
    const int num_threads = db_->num_threads();
    std::vector<Column> computed(outs.size());
    for (size_t i = 0; i < outs.size(); ++i) {
      if (outs[i].direct_column >= 0) continue;
      auto col = EvalExprView(*outs[i].expr, view, rand_seed_, num_threads,
                              guard_);
      if (!col.ok()) return col.status();
      computed[i] = std::move(col).ValueOrDie();
    }
    if (!view.is_identity()) {
      // A filtered view materializes new columns; charge the projected
      // output before gathering, as RowView::GatherGuarded does. The charge
      // persists with the output (cleared by ResetForStatement).
      uint64_t per_row = 0;
      for (size_t i = 0; i < outs.size(); ++i) {
        per_row += ApproxCellBytes(
            outs[i].direct_column >= 0
                ? work->column(static_cast<size_t>(outs[i].direct_column))
                      .type()
                : computed[i].type());
      }
      VDB_RETURN_IF_ERROR(GuardTryReserve(
          guard_, per_row * static_cast<uint64_t>(view.num_rows()),
          "gather_alloc"));
    }
    for (size_t i = 0; i < outs.size(); ++i) {
      const auto& oi = outs[i];
      if (oi.direct_column >= 0) {
        const Column& src = work->column(static_cast<size_t>(oi.direct_column));
        if (view.is_identity()) {
          table->AddColumn(oi.name, src);
        } else {
          table->AddColumn(oi.name, view.GatherColumn(src, num_threads));
        }
      } else {
        table->AddColumn(oi.name, std::move(computed[i]));
      }
    }
    if (table->num_columns() == 0) {
      return Status::InvalidArgument("empty select list");
    }
    rs.table = table;
    return rs;
  }

  // ------------------------------------------------------- grouped select --
  // `filter` (optional) is the WHERE-survivor bitmap over view positions.
  Result<ResultSet> RunGrouped(SelectStmt* stmt, const RowView& view,
                               const Scope& scope,
                               const kernels::Bitmap* filter) {
    // Resolve group-by items that name select aliases.
    for (auto& g : stmt->group_by) {
      if (g->kind == ExprKind::kColumnRef && g->qualifier.empty() &&
          !scope.Resolve("", g->name).ok()) {
        for (auto& item : stmt->items) {
          if (!item.alias.empty() && item.alias == g->name) {
            g = item.expr->Clone();
            break;
          }
        }
      }
      VDB_RETURN_IF_ERROR(BindExpr(g.get(), scope));
    }

    // Collect aggregate calls (deduplicated by printed text).
    std::vector<Expr*> agg_exprs;
    std::map<std::string, int> agg_index;  // vdb-lint: allow(string-keyed-map) plan-time metadata, bounded by SELECT-list length
    for (auto& item : stmt->items) {
      CollectAggs(item.expr.get(), &agg_exprs, &agg_index);
    }
    if (stmt->having) CollectAggs(stmt->having.get(), &agg_exprs, &agg_index);

    std::vector<AggSpec> specs;
    for (Expr* a : agg_exprs) {
      for (auto& arg : a->args) {
        if (arg->kind != ExprKind::kStar) {
          VDB_RETURN_IF_ERROR(BindExpr(arg.get(), scope));
        }
      }
      auto s = AggSpecFromCall(*a);
      if (!s.ok()) return s.status();
      specs.push_back(std::move(s).ValueOrDie());
    }

    // One driver for every grouped query: each morsel evaluates the keys and
    // aggregate arguments over its rows, assigns dense group ids, and
    // scatters into its own partial lanes (SoA lanes or per-group
    // accumulator objects — see CreateFlatAggregator); the partials merge
    // strictly in morsel order through the hashed merge table into `flats`.
    // The decomposition depends only on the input, so every thread count runs
    // the identical computation and produces bit-identical results
    // (floating-point aggregates included). rand()-bearing expressions are
    // fine: row-addressed draws give every morsel the values a whole-input
    // batch would see.
    //
    // With a WHERE bitmap, morsels decompose over SURVIVOR RANKS: each
    // morsel dense-evaluates its survivors' physical span (arithmetic is
    // per-row pure and rand is row-addressed, so surviving rows get the
    // values compacted evaluation would give them) and groups/scatters only
    // the set-bit rows — the mask is never expanded to row indices, and the
    // gid sequence, first-occurrence order, and group hashes all match the
    // compacted rows'.
    const int num_threads = db_->num_threads();
    VDB_RETURN_IF_ERROR(CheckGroupableRows(view.num_rows()));
    std::vector<std::unique_ptr<FlatAggregator>> flats;  // merged state
    bool mergeable = true;
    for (const auto& s : specs) {
      auto f = CreateFlatAggregator(s);
      if (!f.ok()) return f.status();
      mergeable = mergeable && f.value()->Mergeable();
      flats.push_back(std::move(f).ValueOrDie());
    }

    struct MorselFlat {
      GroupAssignment ga;
      std::vector<Column> keys;  // per key column, one row per local group
      std::vector<std::unique_ptr<FlatAggregator>> parts;
    };

    // Word prefix popcounts for rank-select over the filter bitmap.
    std::vector<size_t> wprefix;
    size_t total = view.num_rows();
    if (filter != nullptr) {
      wprefix.resize(filter->num_words() + 1, 0);
      for (size_t w = 0; w < filter->num_words(); ++w) {
        wprefix[w + 1] =
            wprefix[w] +
            static_cast<size_t>(__builtin_popcountll(filter->word(w)));
      }
      total = wprefix.back();
    }

    auto body = [&](MorselFlat& res, size_t begin, size_t end) -> Status {
      // Resolve this morsel's dense row span and (with a filter) its
      // span-relative selected rows. The one empty morsel of an empty input
      // keeps the empty span.
      size_t row_lo = begin, row_hi = end;
      SelVector sel_local;
      if (filter != nullptr && begin < end) {
        row_lo = BitmapSelect(*filter, wprefix, begin);
        row_hi = BitmapSelect(*filter, wprefix, end - 1) + 1;
        sel_local.reserve(end - begin);
        for (size_t w = row_lo / 64; w <= (row_hi - 1) / 64; ++w) {
          uint64_t word = filter->word(w);
          while (word != 0) {
            const size_t p =
                w * 64 + static_cast<size_t>(__builtin_ctzll(word));
            word &= word - 1;
            if (p < row_lo) continue;
            if (p >= row_hi) break;
            sel_local.push_back(static_cast<uint32_t>(p - row_lo));
          }
        }
      }
      Batch batch = ViewBatch(view, rand_seed_, row_lo, row_hi);
      const size_t span = row_hi - row_lo;
      const size_t ln = end - begin;
      // Batch columns: a bound column ref over a dense (no-selection) batch
      // reads the table column IN PLACE at the morsel's base row — the
      // zero-copy direct-column path, no per-morsel slice materialization
      // (ColumnRefVec's borrowed-lane form, carried through grouping and
      // scatter). Everything else evaluates into an owned column with base 0.
      struct BatchCol {
        Column owned;
        const Column* col = nullptr;
        size_t base = 0;
      };
      auto eval_col = [&](const sql::Expr& e, BatchCol* out) -> Status {
        if (e.kind == ExprKind::kColumnRef && e.bound_column >= 0 &&
            batch.sel == nullptr) {
          out->col = &batch.table->column(static_cast<size_t>(e.bound_column));
          out->base = batch.range_begin;
          return Status::Ok();
        }
        auto c = EvalExprBatch(e, batch);
        if (!c.ok()) return c.status();
        out->owned = std::move(c).ValueOrDie();
        out->col = &out->owned;
        return Status::Ok();
      };
      std::vector<BatchCol> gcols(stmt->group_by.size());
      for (size_t i = 0; i < stmt->group_by.size(); ++i) {
        VDB_RETURN_IF_ERROR(eval_col(*stmt->group_by[i], &gcols[i]));
      }
      std::vector<BatchCol> acols(specs.size());
      for (size_t i = 0; i < specs.size(); ++i) {
        if (specs[i].arg == nullptr) continue;
        VDB_RETURN_IF_ERROR(eval_col(*specs[i].arg, &acols[i]));
      }
      std::vector<KeyCol> kcs;
      kcs.reserve(gcols.size());
      for (const auto& gc : gcols) kcs.push_back(KeyCol{gc.col, gc.base});
      if (filter != nullptr) {
        AssignGroupIdsSelectedBased(kcs, span, sel_local.data(), ln, &res.ga);
      } else {
        res.ga = AssignGroupIdsBased(kcs, ln);
      }
      const size_t ngroups = res.ga.num_groups();
      // Key columns gathered once from the representative rows, types kept.
      res.keys.resize(gcols.size());
      std::vector<uint32_t> reps;
      for (size_t i = 0; i < gcols.size(); ++i) {
        const uint32_t* rows = res.ga.rep_row.data();
        if (gcols[i].base != 0) {
          reps.resize(ngroups);
          for (size_t g = 0; g < ngroups; ++g) {
            reps[g] = static_cast<uint32_t>(gcols[i].base + rows[g]);
          }
          rows = reps.data();
        }
        res.keys[i].AppendSelected(*gcols[i].col, rows, ngroups);
      }
      res.parts.reserve(specs.size());
      for (size_t i = 0; i < specs.size(); ++i) {
        auto made = CreateFlatAggregator(specs[i]);
        if (!made.ok()) return made.status();
        std::unique_ptr<FlatAggregator> f = std::move(made).ValueOrDie();
        f->ResizeGroups(ngroups);
        const Column* col = specs[i].arg != nullptr ? acols[i].col : nullptr;
        const size_t base = specs[i].arg != nullptr ? acols[i].base : 0;
        f->Scatter(col, base, filter != nullptr ? sel_local.data() : nullptr,
                   res.ga.gid_of_row.data(), ln);
        res.parts.push_back(std::move(f));
      }
      return Status::Ok();
    };
    // Accumulators that cannot merge (UDAs may opt out) see the whole input
    // as one morsel.
    auto parts_or = ParallelMorselMapStatus<MorselFlat>(
        total, num_threads, guard_, "agg_partial", body,
        mergeable ? MorselRows() : std::max<size_t>(total, 1));
    if (!parts_or.ok()) return parts_or.status();
    std::vector<MorselFlat> parts = std::move(parts_or).ValueOrDie();

    // Batched merge in two passes. First every morsel's groups probe the
    // merge table together, in morsel order, which fixes each local group's
    // merged id and whether it is a first occurrence. Then the lanes grow
    // once to the final group count and each aggregate folds every partial,
    // in morsel order, with one MergeFrom call per morsel. The largest
    // morsel's group count is a lower bound on the merged count; sizing the
    // table for it skips the growth steps every merge would otherwise repeat.
    size_t expected = 0;
    for (const MorselFlat& part : parts) {
      expected = std::max(expected, part.ga.num_groups());
    }
    GroupMergeTable merge;  // global key tuple -> dense gid
    merge.set_guard(guard_);
    merge.Reset(stmt->group_by.size(), expected);
    std::vector<std::vector<uint32_t>> dst_gid(parts.size());
    std::vector<std::vector<uint8_t>> fresh(parts.size());
    for (size_t p = 0; p < parts.size(); ++p) {
      const size_t n = parts[p].ga.num_groups();
      dst_gid[p].resize(n);
      fresh[p].resize(n);
      merge.MergeMorsel(std::move(parts[p].keys), parts[p].ga.group_hash.data(),
                        n, dst_gid[p].data(), fresh[p].data());
      // A budget trip during merge-table growth latches instead of
      // throwing mid-probe; discard the partially merged state here.
      VDB_RETURN_IF_ERROR(merge.guard_status());
    }
    // An aggregate without GROUP BY keys emits one row even over an empty
    // input (count(*) = 0, sum = NULL, ...).
    const size_t ngroups =
        stmt->group_by.empty() ? std::max<size_t>(merge.num_groups(), 1)
                               : merge.num_groups();
    for (auto& f : flats) f->ResizeGroups(ngroups);
    for (size_t p = 0; p < parts.size(); ++p) {
      for (size_t i = 0; i < specs.size(); ++i) {
        flats[i]->MergeFrom(*parts[p].parts[i], dst_gid[p].data(),
                            fresh[p].data(), dst_gid[p].size());
      }
    }

    // Materialize the aggregate table: group cols then agg cols.
    auto agg_table = std::make_shared<Table>();
    const size_t gk = stmt->group_by.size();
    {
      std::vector<Column> keys = merge.TakeKeyColumns();
      // Empty result columns still need registration.
      for (size_t i = 0; i < gk; ++i) {
        agg_table->AddColumn("__g" + std::to_string(i), std::move(keys[i]));
      }
      for (size_t i = 0; i < specs.size(); ++i) {
        agg_table->AddColumn("__a" + std::to_string(i),
                             flats[i]->FinalizeColumn(ngroups));
      }
    }

    // Maps from printed expression text to aggregate-table ordinal.
    std::map<std::string, int> text_to_col;  // vdb-lint: allow(string-keyed-map) plan-time metadata, bounded by SELECT-list length
    for (size_t i = 0; i < gk; ++i) {
      const Expr& g = *stmt->group_by[i];
      text_to_col[sql::PrintExpr(g)] = static_cast<int>(i);
      if (g.kind == ExprKind::kColumnRef) {
        text_to_col[g.name] = static_cast<int>(i);
        if (!g.qualifier.empty()) {
          text_to_col[g.qualifier + "." + g.name] = static_cast<int>(i);
        }
      }
    }
    std::map<std::string, int> agg_to_col;  // vdb-lint: allow(string-keyed-map) plan-time metadata, bounded by SELECT-list length
    for (const auto& [text, idx] : agg_index) {
      agg_to_col[text] = static_cast<int>(gk) + idx;
    }

    // HAVING: batch predicate over the aggregate table. The surviving
    // groups stay a view — the output projection below evaluates through it
    // rather than gathering the aggregate table again.
    auto aggview = RowView::All(agg_table);
    if (!aggview.ok()) return aggview.status();
    RowView aview = std::move(aggview).ValueOrDie();
    if (stmt->having) {
      auto bound = RebindPostAgg(*stmt->having, text_to_col, agg_to_col);
      if (!bound.ok()) return bound.status();
      VDB_RETURN_IF_ERROR(ResolveFunctions(bound.value().get()));
      SelVector hsel;
      VDB_RETURN_IF_ERROR(EvalPredicateView(*bound.value(), aview, rand_seed_,
                                            db_->num_threads(), &hsel,
                                            guard_));
      if (hsel.size() < aview.num_rows()) {
        auto filtered = RowView::Select(agg_table, std::move(hsel));
        if (!filtered.ok()) return filtered.status();
        aview = std::move(filtered).ValueOrDie();
      }
    }

    // Rebind select items; then materialize window columns over agg_table.
    std::vector<Expr::Ptr> bound_items;
    ResultSet rs;
    for (auto& item : stmt->items) {
      if (item.expr->kind == ExprKind::kStar) {
        return Status::InvalidArgument("'*' not allowed with GROUP BY");
      }
      auto bound = RebindPostAgg(*item.expr, text_to_col, agg_to_col);
      if (!bound.ok()) return bound.status();
      VDB_RETURN_IF_ERROR(
          ResolveFunctions(bound.value().get(), BindContext::kSelectList));
      bound_items.push_back(std::move(bound).ValueOrDie());
      rs.names.push_back(!item.alias.empty()
                             ? item.alias
                             : (item.expr->kind == ExprKind::kColumnRef
                                    ? item.expr->name
                                    : sql::PrintExpr(*item.expr)));
    }
    bool has_window = false;
    for (const auto& be : bound_items) {
      if (ContainsWindow(*be)) has_window = true;
    }
    if (has_window) {
      // Window frames over the (HAVING-filtered) groups need contiguous
      // rows: gather the view, extend with window columns, reset identity.
      auto gathered = aview.GatherGuarded(db_->num_threads(), guard_);
      if (!gathered.ok()) return gathered.status();
      agg_table = std::move(gathered).ValueOrDie();
      std::map<std::string, int> window_cols;  // vdb-lint: allow(string-keyed-map) plan-time metadata, bounded by SELECT-list length
      for (auto& be : bound_items) {
        VDB_RETURN_IF_ERROR(MaterializeWindows(be.get(), &agg_table,
                                               &window_cols));
      }
      auto wv = RowView::All(agg_table);
      if (!wv.ok()) return wv.status();
      aview = std::move(wv).ValueOrDie();
    }

    auto table = std::make_shared<Table>();
    for (size_t i = 0; i < bound_items.size(); ++i) {
      auto col = EvalExprView(*bound_items[i], aview, rand_seed_,
                              db_->num_threads(), guard_);
      if (!col.ok()) return col.status();
      table->AddColumn(rs.names[i], std::move(col).ValueOrDie());
    }
    rs.table = table;
    return rs;
  }

  /// Collects non-window aggregate calls, assigning bound_agg ordinals and
  /// deduplicating by printed text. Recurses into window arguments so that
  /// e.g. sum(count(*)) over (...) registers the inner count(*).
  void CollectAggs(Expr* e, std::vector<Expr*>* aggs,
                   std::map<std::string, int>* index) {  // vdb-lint: allow(string-keyed-map) plan-time metadata, bounded by SELECT-list length
    if (e->kind == ExprKind::kFunction && !e->is_window &&
        IsAggregateFunction(e->name)) {
      std::string text = sql::PrintExpr(*e);
      auto it = index->find(text);
      if (it == index->end()) {
        e->bound_agg = static_cast<int>(aggs->size());
        (*index)[text] = e->bound_agg;
        aggs->push_back(e);
      } else {
        e->bound_agg = it->second;
      }
      return;  // no nested aggregates
    }
    for (auto& a : e->args) {
      if (a) CollectAggs(a.get(), aggs, index);
    }
    for (auto& w : e->case_whens) CollectAggs(w.get(), aggs, index);
    for (auto& t : e->case_thens) CollectAggs(t.get(), aggs, index);
    if (e->case_else) CollectAggs(e->case_else.get(), aggs, index);
    for (auto& p : e->partition_by) CollectAggs(p.get(), aggs, index);
  }

  /// Rewrites an expression for evaluation against the aggregate table:
  /// group-by expressions and aggregate calls become bound column refs.
  Result<Expr::Ptr> RebindPostAgg(const Expr& e,
                                  const std::map<std::string, int>& group_map,  // vdb-lint: allow(string-keyed-map) plan-time metadata, bounded by SELECT-list length
                                  const std::map<std::string, int>& agg_map) {  // vdb-lint: allow(string-keyed-map) plan-time metadata, bounded by SELECT-list length
    std::string text = sql::PrintExpr(e);
    auto git = group_map.find(text);
    if (git == group_map.end() && e.kind == ExprKind::kColumnRef) {
      git = group_map.find(e.name);
    }
    if (git != group_map.end()) {
      auto ref = sql::MakeColumnRef("", "__g" + std::to_string(git->second));
      ref->bound_column = git->second;
      return ref;
    }
    if (e.kind == ExprKind::kFunction && !e.is_window &&
        IsAggregateFunction(e.name)) {
      auto ait = agg_map.find(text);
      if (ait == agg_map.end()) {
        return Status::Internal("aggregate was not collected: " + text);
      }
      auto ref = sql::MakeColumnRef("", "__a" + std::to_string(ait->second));
      ref->bound_column = ait->second;
      return ref;
    }
    if (e.kind == ExprKind::kColumnRef) {
      return Status::InvalidArgument(
          "column must appear in GROUP BY or inside an aggregate: " + e.name);
    }
    // Recurse.
    auto out = e.Clone();
    for (auto& a : out->args) {
      if (!a || a->kind == ExprKind::kStar) continue;
      auto r = RebindPostAgg(*a, group_map, agg_map);
      if (!r.ok()) return r.status();
      a = std::move(r).ValueOrDie();
    }
    for (auto& w : out->case_whens) {
      auto r = RebindPostAgg(*w, group_map, agg_map);
      if (!r.ok()) return r.status();
      w = std::move(r).ValueOrDie();
    }
    for (auto& t : out->case_thens) {
      auto r = RebindPostAgg(*t, group_map, agg_map);
      if (!r.ok()) return r.status();
      t = std::move(r).ValueOrDie();
    }
    if (out->case_else) {
      auto r = RebindPostAgg(*out->case_else, group_map, agg_map);
      if (!r.ok()) return r.status();
      out->case_else = std::move(r).ValueOrDie();
    }
    for (auto& p : out->partition_by) {
      auto r = RebindPostAgg(*p, group_map, agg_map);
      if (!r.ok()) return r.status();
      p = std::move(r).ValueOrDie();
    }
    return out;
  }

  /// Replaces window-function nodes under `e` with references to freshly
  /// computed columns appended to `*work`. Deduplicates by printed text.
  Status MaterializeWindows(Expr* e, TablePtr* work,
                            std::map<std::string, int>* window_cols) {  // vdb-lint: allow(string-keyed-map) plan-time metadata, bounded by SELECT-list length
    if (e->kind == ExprKind::kFunction && e->is_window) {
      std::string text = sql::PrintExpr(*e);
      auto it = window_cols->find(text);
      int col;
      if (it == window_cols->end()) {
        auto wcol = EvalWindowExpr(*e, **work, rand_seed_);
        if (!wcol.ok()) return wcol.status();
        // Copy-on-write: the work table may be shared (base table).
        auto extended = std::make_shared<Table>();
        for (size_t i = 0; i < (*work)->num_columns(); ++i) {
          extended->AddColumn((*work)->column_name(i), (*work)->column(i));
        }
        col = static_cast<int>(extended->num_columns());
        extended->AddColumn("__w" + std::to_string(window_cols->size()),
                            std::move(wcol).ValueOrDie());
        *work = extended;
        (*window_cols)[text] = col;
      } else {
        col = it->second;
      }
      e->kind = ExprKind::kColumnRef;
      e->qualifier.clear();
      e->name = "__w";
      e->bound_column = col;
      e->args.clear();
      e->partition_by.clear();
      e->is_window = false;
      return Status::Ok();
    }
    for (auto& a : e->args) {
      if (a) VDB_RETURN_IF_ERROR(MaterializeWindows(a.get(), work, window_cols));
    }
    for (auto& w : e->case_whens) {
      VDB_RETURN_IF_ERROR(MaterializeWindows(w.get(), work, window_cols));
    }
    for (auto& t : e->case_thens) {
      VDB_RETURN_IF_ERROR(MaterializeWindows(t.get(), work, window_cols));
    }
    if (e->case_else) {
      VDB_RETURN_IF_ERROR(
          MaterializeWindows(e->case_else.get(), work, window_cols));
    }
    return Status::Ok();
  }

  // ------------------------------------------------------- distinct/order --
  /// Vectorized DISTINCT over the viewed output rows: hashed group ids over
  /// the output columns; the representative positions (first occurrences,
  /// ascending) compose into the view — no full-width gather. Identity views
  /// (the common case: DISTINCT runs right after the projection) address the
  /// columns directly; other views gather the key columns only.
  Status Dedupe(RowView* view) {
    VDB_RETURN_IF_ERROR(CheckGroupableRows(view->num_rows()));
    const Table& table = *view->table();
    std::vector<Column> gathered;
    std::vector<const Column*> cols;
    cols.reserve(table.num_columns());
    if (view->is_identity()) {
      for (size_t c = 0; c < table.num_columns(); ++c) {
        cols.push_back(&table.column(c));
      }
    } else {
      gathered.reserve(table.num_columns());
      for (size_t c = 0; c < table.num_columns(); ++c) {
        gathered.push_back(
            view->GatherColumn(table.column(c), db_->num_threads()));
      }
      for (const Column& g : gathered) cols.push_back(&g);
    }
    // Either way the columns are in view order, so rep_row holds view
    // positions and composes directly.
    GroupAssignment ga = AssignGroupIds(cols, view->num_rows());
    if (ga.num_groups() == view->num_rows()) return Status::Ok();
    SelVector keep(ga.rep_row.begin(), ga.rep_row.end());
    auto composed = view->Compose(keep);
    if (!composed.ok()) return composed.status();
    *view = std::move(composed).ValueOrDie();
    return Status::Ok();
  }

  /// Sorts the view positions by the resolved output columns and composes
  /// the permutation into the view; the gather happens once, downstream.
  Status ApplyOrderBy(SelectStmt* stmt, const ResultSet& rs, RowView* view) {
    if (stmt->order_by.empty() || view->num_rows() == 0) return Status::Ok();
    // Resolve each order expression to an output column.
    std::vector<std::pair<int, bool>> keys;  // (column, ascending)
    for (auto& o : stmt->order_by) {
      int col = -1;
      // An ordinal is a non-negative integer literal; a negative one is
      // spelled as a negation in SQL text, an expression like any other.
      if (o.expr->kind == ExprKind::kLiteral &&
          o.expr->literal.type() == TypeId::kInt64 &&
          o.expr->literal.AsInt() >= 0) {
        int64_t ord = o.expr->literal.AsInt();
        if (ord < 1 || ord > static_cast<int64_t>(rs.NumCols())) {
          return Status::InvalidArgument("ORDER BY ordinal out of range");
        }
        col = static_cast<int>(ord - 1);
      } else if (o.expr->kind == ExprKind::kColumnRef) {
        col = rs.ColumnIndex(o.expr->name);
      }
      if (col < 0) {
        // Match by printed text against item expressions.
        std::string text = sql::PrintExpr(*o.expr);
        for (size_t i = 0; i < stmt->items.size(); ++i) {
          if (sql::PrintExpr(*stmt->items[i].expr) == text) {
            col = static_cast<int>(i);
            break;
          }
        }
      }
      if (col < 0) {
        return Status::Unsupported(
            "ORDER BY expression must reference an output column: " +
            sql::PrintExpr(*o.expr));
      }
      keys.emplace_back(col, o.ascending);
    }

    SelVector perm(view->num_rows());
    for (size_t i = 0; i < perm.size(); ++i) perm[i] = static_cast<uint32_t>(i);
    const Table& t = *rs.table;
    const RowView& v = *view;
    std::stable_sort(perm.begin(), perm.end(), [&](uint32_t a, uint32_t b) {
      for (const auto& [col, asc] : keys) {
        Value va = t.Get(v.RowAt(a), static_cast<size_t>(col));
        Value vb = t.Get(v.RowAt(b), static_cast<size_t>(col));
        // NULLs sort first ascending, last descending.
        if (va.is_null() != vb.is_null()) {
          return asc ? va.is_null() : vb.is_null();
        }
        int c = va.Compare(vb);
        if (c != 0) return asc ? c < 0 : c > 0;
      }
      return false;
    });

    auto composed = view->Compose(perm);
    if (!composed.ok()) return composed.status();
    *view = std::move(composed).ValueOrDie();
    return Status::Ok();
  }

  Database* db_;
  /// Per-statement query seed: every rand-family draw this statement (and
  /// its derived tables / subqueries) performs is addressed by it.
  uint64_t rand_seed_ = 0;
  /// Per-statement execution guard (nullptr = ungoverned), shared with
  /// derived-table / subquery sub-executors: one statement, one guard.
  const ExecGuard* guard_ = nullptr;
  /// The current statement's WHERE while eligible for pair-view pushdown;
  /// consumed (nulled) by the FROM-root ExecuteJoin, which sets the applied
  /// flag after filtering candidate pairs so RunSingle skips the normal
  /// post-materialization WHERE.
  const Expr* pushdown_where_ = nullptr;
  bool pushdown_where_applied_ = false;

  /// Case-folded names of the columns the statement executing in RunSingle
  /// references anywhere (CollectColumnRefNamesStmt); nullopt when a `*`
  /// select item wants every column. Derived tables in the FROM tree emit
  /// only these outputs.
  std::optional<std::set<std::string>> referenced_;
  /// Derived-table projection pruning (set by the PARENT executor to its
  /// referenced_ before Run): when set, RunProjection drops select outputs
  /// whose folded names are not in it. Never applied to DISTINCT / ORDER BY
  /// / UNION / grouped statements — those shapes are gated off at the call
  /// site or take the grouped path, which ignores the filter.
  const std::set<std::string>* output_keep_ = nullptr;
};

}  // namespace

void SetJoinWherePushdownForTest(bool enabled) {
  g_join_where_pushdown.store(enabled, std::memory_order_relaxed);
}

Result<ResultSet> RunSelect(Database* db, sql::SelectStmt* stmt,
                            const ExecGuard* guard) {
  // Number the statement's rand call sites, then draw its query seed — the
  // two inputs (with the row id) of every row-addressed rand draw below. A
  // statement without rand draws no seed, so a user statement's draws do
  // not depend on how many rand-free statements (catalog reads, probes,
  // DDL) ran before it.
  const bool draws_rand = AssignRandSites(stmt) > 0;
  SelectExecutor exec(db, draws_rand ? db->NewQuerySeed() : 0, guard);
  return exec.Run(stmt);
}

}  // namespace vdb::engine
