#include "core/rewriter.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <map>
#include <set>
#include <utility>

#include "engine/functions.h"
#include "sql/printer.h"

namespace vdb::core {

namespace {

using sql::BinaryOp;
using sql::Expr;
using sql::ExprKind;
using sql::SelectStmt;
using sql::TableRef;

Expr::Ptr Ref(const std::string& qualifier, const std::string& name) {
  return sql::MakeColumnRef(qualifier, name);
}

Expr::Ptr Fn(const std::string& name, std::vector<Expr::Ptr> args) {
  return sql::MakeFunction(name, std::move(args));
}

Expr::Ptr Bin(BinaryOp op, Expr::Ptr l, Expr::Ptr r) {
  return sql::MakeBinary(op, std::move(l), std::move(r));
}

/// sum(count(*)) over (partition by <groups>)  — the per-group total sample
/// tuple count (Appendix G, Query 9). Used by the diagnostics the rewriter
/// can attach; the default estimators below scale by b instead, which keeps
/// the estimator unbiased *and* non-degenerate for count() under constant
/// sampling probabilities (the pure ratio form of Query 9 has zero
/// cross-subsample variance when verdict_prob is constant).
Expr::Ptr WindowGroupTotal(const std::vector<Expr::Ptr>& group_protos) {
  auto count_star = Fn("count", {});
  count_star->args.push_back(sql::MakeStar());
  auto win = Fn("sum", {});
  win->args.push_back(std::move(count_star));
  win->is_window = true;
  for (const auto& g : group_protos) win->partition_by.push_back(g->Clone());
  return win;
}

/// How subsample ids are generated for one query: the rule the sample plan
/// records (docs/INVARIANTS.md, "Subsample-id contract").
struct SidPlan {
  /// The sampled relation owning the sid: its `__vdb_sid` column, or the
  /// hashed column of hash-block sids, and its `verdict_prob`.
  std::string alias;
  /// Empty: sid = 1 + floor(rand()*b) per sample row (§4.1). Set: sids are
  /// hash blocks of alias.hash_column (§5.1).
  std::string hash_column;
  /// Two hashed samples joined on their key: the same hash decides both
  /// sides, so the joint inclusion probability is the constant tau.
  bool universe_join = false;
  double tau = 1.0;          // effective universe ratio
  // Hash cut-off of the sampled rows: every row has verdict_hash < it, so
  // sids 1 + floor(hash * b / block_cutoff) stay within 1..b.
  double block_cutoff = 1.0;
  uint64_t sample_rows = 0;  // rows of the largest sample; b follows it
};

/// Per-query rewrite state shared by the helpers.
struct RewriteCtx {
  const SamplePlan* plan = nullptr;
  SidPlan sid;
  int b = 0;
  std::vector<Expr::Ptr> group_protos;  // original group-by expressions
  bool complete_replica = false;  // nested outer level: estimates need no
                                  // scaling (each sid is a full replica)
  /// The query's ON equi-join edges, aliases resolved. A grouped derived
  /// relation tied to a sampled relation by a chain of these may read that
  /// relation's universe sample (DerivedUniverseSample).
  const std::vector<JoinEdge>* join_edges = nullptr;

  /// Inclusion-probability expression for one tuple of the FROM.
  Expr::Ptr ProbExpr() const {
    if (complete_replica) return sql::MakeDoubleLit(1.0);
    if (sid.universe_join) return sql::MakeDoubleLit(sid.tau);
    return Ref(sid.alias, "verdict_prob");
  }

  /// The subsample-id expression used in GROUP BY and the select list.
  Expr::Ptr SidExpr() const {
    if (sid.hash_column.empty()) return Ref(sid.alias, "__vdb_sid");
    // 1 + floor(verdict_hash(col) * (b / cutoff)); hash < cutoff on the
    // sample, so the blocks are b equal slices of [0, cutoff).
    auto h = Fn("verdict_hash", {});
    h->args.push_back(Ref(sid.alias, sid.hash_column));
    auto scaled = Bin(BinaryOp::kMul, std::move(h),
                      sql::MakeDoubleLit(static_cast<double>(b) /
                                         std::max(sid.block_cutoff, 1e-12)));
    auto fl = Fn("floor", {});
    fl->args.push_back(std::move(scaled));
    return Bin(BinaryOp::kAdd, sql::MakeIntLit(1), std::move(fl));
  }
};

/// Builds the per-subsample unbiased-estimate expression for one aggregate
/// call (§4.2 and Appendix G).
///
/// count/sum have two forms:
///  * standalone (`in_compound == false`): b * sum(v/p) — a b-scaled HT
///    total whose outer combine sum(e)/b reproduces the full-sample HT
///    estimate exactly, even when (group, sid) cells are sparse;
///  * inside a compound expression (e.g. sum(a)/sum(b)):
///    (sum(v/p)/count(*)) * (sum(count(*)) over (partition by g)) — the
///    Query 9 window-ratio form, which is full-scale per cell so compound
///    statistics stay unbiased under the ssize-weighted combine.
Result<Expr::Ptr> EstimateExpr(const Expr& agg, const RewriteCtx& ctx,
                               bool in_compound) {
  const std::string& name = agg.name;
  bool star = agg.args.empty() || agg.args[0]->kind == ExprKind::kStar;

  if (ctx.complete_replica) {
    // Each subsample is a full replica of the (estimated) derived table:
    // apply the aggregate directly within (group, sid).
    return agg.Clone();
  }

  if (name == "count" && agg.distinct) {
    if (star) {
      return Status::Unsupported("count(distinct *) is not valid");
    }
    // Universe-block estimate: each hash block covers tau/b of the domain.
    auto cd = agg.Clone();
    return Bin(BinaryOp::kMul, std::move(cd),
               sql::MakeDoubleLit(static_cast<double>(ctx.b) /
                                  std::max(ctx.sid.tau, 1e-12)));
  }
  if (name == "count" || name == "sum") {
    // b * sum(v / p): the subsample (≈ n/b tuples with inclusion probability
    // p) is itself a Bernoulli sample with probability p/b, so its
    // Horvitz-Thompson total times b is an unbiased estimate of the
    // population total — and its cross-subsample variance reflects both the
    // membership noise and the value noise.
    Expr::Ptr v;
    if (name == "count" && star) {
      v = sql::MakeDoubleLit(1.0);
    } else if (name == "count") {
      // count(x): count non-nulls.
      auto c = std::make_unique<Expr>(ExprKind::kCase);
      auto isnull = std::make_unique<Expr>(ExprKind::kIsNull);
      isnull->args.push_back(agg.args[0]->Clone());
      c->case_whens.push_back(std::move(isnull));
      c->case_thens.push_back(sql::MakeDoubleLit(0.0));
      c->case_else = sql::MakeDoubleLit(1.0);
      v = std::move(c);
    } else {
      v = agg.args[0]->Clone();
    }
    auto scaled = Bin(BinaryOp::kDiv, std::move(v), ctx.ProbExpr());
    auto sum_scaled = Fn("sum", {});
    sum_scaled->args.push_back(std::move(scaled));
    if (!in_compound) {
      return Bin(BinaryOp::kMul, std::move(sum_scaled),
                 sql::MakeIntLit(ctx.b));
    }
    auto count_star = Fn("count", {});
    count_star->args.push_back(sql::MakeStar());
    auto mean = Bin(BinaryOp::kDiv, std::move(sum_scaled),
                    std::move(count_star));
    return Bin(BinaryOp::kMul, std::move(mean),
               WindowGroupTotal(ctx.group_protos));
  }
  if (name == "avg") {
    // sum(x / p) / sum(1 / p): Horvitz-Thompson ratio estimator.
    auto num = Fn("sum", {});
    num->args.push_back(
        Bin(BinaryOp::kDiv, agg.args[0]->Clone(), ctx.ProbExpr()));
    auto den = Fn("sum", {});
    den->args.push_back(
        Bin(BinaryOp::kDiv, sql::MakeDoubleLit(1.0), ctx.ProbExpr()));
    return Bin(BinaryOp::kDiv, std::move(num), std::move(den));
  }
  // Location-like statistics (quantile/median/var/stddev/UDAs): the
  // per-subsample value estimates the statistic directly (§2.2: any UDA
  // converging to a non-degenerate distribution).
  return agg.Clone();
}

/// One "statistic" of the query: a select item (or HAVING aggregate call)
/// containing at least one aggregate.
struct Statistic {
  const Expr* expr = nullptr;  // original expression
  std::string output_name;     // user-visible name
  bool round_to_int = false;   // bare count(*): round like Query 9
  /// Contains a total-type aggregate (count/sum/count-distinct) whose
  /// b-scaled per-subsample estimates average to the full-sample HT estimate
  /// exactly when combined UNWEIGHTED. Location statistics (avg, quantile,
  /// var, UDAs) combine with ssize weights instead (Appendix G).
  bool scaled_total = false;
};

/// True if the statistic expression is itself a bare total-type aggregate:
/// count(*), count(x), count(distinct x) or sum(x). These use b-scaled
/// per-subsample estimates and the sum(e)/b combine, which treats empty
/// (group, sid) cells as zero and reproduces the full-sample HT estimate
/// exactly (count-distinct: sum of per-hash-block counts divided by tau).
bool IsPureTotal(const Expr& e) {
  return e.kind == ExprKind::kFunction && !e.is_window &&
         (e.name == "count" || e.name == "sum");
}

/// Replaces every aggregate call under `e` with the per-subsample estimate.
/// `in_compound` is true when `e` is not itself a bare aggregate call.
Result<Expr::Ptr> ReplaceAggsWithEstimates(const Expr& e,
                                           const RewriteCtx& ctx,
                                           bool in_compound) {
  if (e.kind == ExprKind::kFunction && !e.is_window &&
      vdb::engine::IsAggregateFunction(e.name)) {
    return EstimateExpr(e, ctx, in_compound);
  }
  auto out = e.Clone();
  for (auto& a : out->args) {
    if (!a || a->kind == ExprKind::kStar) continue;
    auto r = ReplaceAggsWithEstimates(*a, ctx, /*in_compound=*/true);
    if (!r.ok()) return r.status();
    a = std::move(r).ValueOrDie();
  }
  for (auto& w : out->case_whens) {
    auto r = ReplaceAggsWithEstimates(*w, ctx, true);
    if (!r.ok()) return r.status();
    w = std::move(r).ValueOrDie();
  }
  for (auto& t : out->case_thens) {
    auto r = ReplaceAggsWithEstimates(*t, ctx, true);
    if (!r.ok()) return r.status();
    t = std::move(r).ValueOrDie();
  }
  if (out->case_else) {
    auto r = ReplaceAggsWithEstimates(*out->case_else, ctx, true);
    if (!r.ok()) return r.status();
    out->case_else = std::move(r).ValueOrDie();
  }
  return out;
}

/// Outer-query combination of per-subsample estimates (Appendix G):
/// ssize-weighted mean for location statistics; sum(e)/b for b-scaled
/// totals. The latter treats (group, sid) cells absent from the inner
/// result as zero, so it reproduces the full-sample Horvitz-Thompson
/// estimate EXACTLY even when groups are sparse across subsamples.
Expr::Ptr CombinePoint(int stat_index, bool round_to_int, bool weighted,
                       int b) {
  std::string e = "__vdb_e" + std::to_string(stat_index);
  Expr::Ptr point;
  if (weighted) {
    auto num = Fn("sum", {});
    num->args.push_back(
        Bin(BinaryOp::kMul, Ref("", e), Ref("", "__vdb_ssize")));
    auto den = Fn("sum", {});
    den->args.push_back(Ref("", "__vdb_ssize"));
    point = Bin(BinaryOp::kDiv, std::move(num), std::move(den));
  } else {
    auto total = Fn("sum", {});
    total->args.push_back(Ref("", e));
    point = Bin(BinaryOp::kDiv, std::move(total), sql::MakeIntLit(b));
  }
  if (round_to_int) {
    auto r = Fn("round", {});
    r->args.push_back(std::move(point));
    return r;
  }
  return point;
}

///   err = stddev(e) * sqrt(avg(ssize)) / sqrt(sum(ssize))
Expr::Ptr CombineError(int stat_index) {
  std::string e = "__vdb_e" + std::to_string(stat_index);
  auto sd = Fn("stddev", {});
  sd->args.push_back(Ref("", e));
  auto avg_ss = Fn("avg", {});
  avg_ss->args.push_back(Ref("", "__vdb_ssize"));
  auto sqrt_avg = Fn("sqrt", {});
  sqrt_avg->args.push_back(std::move(avg_ss));
  auto sum_ss = Fn("sum", {});
  sum_ss->args.push_back(Ref("", "__vdb_ssize"));
  auto sqrt_sum = Fn("sqrt", {});
  sqrt_sum->args.push_back(std::move(sum_ss));
  return Bin(BinaryOp::kDiv,
             Bin(BinaryOp::kMul, std::move(sd), std::move(sqrt_avg)),
             std::move(sqrt_sum));
}

std::string Lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

/// The universe sample a derived relation may read in place of its base
/// table T, or null. The derived query must read T alone and group by one
/// column c of T, and a chain of ON equalities must tie its c output to a
/// sampled relation whose chosen sample is T hashed on [c]. That sample
/// keeps every row of each key whose hash is below tau, so the derived
/// aggregate is exact on every key that can join, and no other key joins.
const sampling::SampleInfo* DerivedUniverseSample(const TableRef& ref,
                                                  const RewriteCtx& ctx) {
  const SelectStmt& q = *ref.derived;
  if (ctx.join_edges == nullptr || q.union_next || q.distinct ||
      q.limit >= 0 || !q.order_by.empty() || !q.from ||
      q.from->kind != TableRef::Kind::kBase || q.group_by.size() != 1 ||
      q.group_by[0]->kind != ExprKind::kColumnRef) {
    return nullptr;
  }
  const std::string table = Lower(q.from->table_name);
  const std::string table_alias = Lower(q.from->EffectiveName());
  auto is_column_of_table = [&](const Expr& e) {
    return e.kind == ExprKind::kColumnRef &&
           (e.qualifier.empty() || Lower(e.qualifier) == table_alias);
  };
  const Expr& group = *q.group_by[0];
  if (!is_column_of_table(group)) return nullptr;
  const std::string column = Lower(group.name);

  // Reads T alone, and each key's rows decide its output: no subquery, no
  // window, no row-addressed rand() (it would draw per sample row), and no
  // `*` item (it would expose the sample's verdict_prob).
  auto foreign = [](const Expr& e) {
    return e.kind == ExprKind::kSubquery || e.kind == ExprKind::kExists ||
           e.is_window || sql::IsRandFunctionExpr(e);
  };
  std::string exposed;  // the name c leaves the derived relation under
  for (const auto& item : q.items) {
    if (item.expr->kind == ExprKind::kStar ||
        sql::AnyExprNode(*item.expr, foreign)) {
      return nullptr;
    }
    if (exposed.empty() && is_column_of_table(*item.expr) &&
        Lower(item.expr->name) == column) {
      exposed = item.alias.empty() ? column : Lower(item.alias);
    }
  }
  if (exposed.empty() || (q.where && sql::AnyExprNode(*q.where, foreign)) ||
      (q.having && sql::AnyExprNode(*q.having, foreign))) {
    return nullptr;
  }

  // Walk the ON equalities from (derived alias, exposed) to a sampled
  // relation's column c.
  using Node = std::pair<std::string, std::string>;  // (alias, column)
  std::vector<Node> frontier = {{Lower(ref.alias), exposed}};
  std::set<Node> seen(frontier.begin(), frontier.end());
  while (!frontier.empty()) {
    const Node node = frontier.back();
    frontier.pop_back();
    for (const JoinEdge& e : *ctx.join_edges) {
      Node next;
      if (Node(e.left_alias, e.left_column) == node) {
        next = {e.right_alias, e.right_column};
      } else if (Node(e.right_alias, e.right_column) == node) {
        next = {e.left_alias, e.left_column};
      } else {
        continue;
      }
      if (next.first.empty() || !seen.insert(next).second) continue;
      auto it = ctx.plan->choices.find(next.first);
      if (it != ctx.plan->choices.end() && it->second.sampled &&
          next.second == column) {
        const sampling::SampleInfo& s = it->second.sample;
        if (s.type == sampling::SampleType::kHashed &&
            s.base_table == table && s.columns.size() == 1 &&
            s.columns[0] == column) {
          return &s;
        }
      }
      frontier.push_back(std::move(next));
    }
  }
  return nullptr;
}

/// Substitutes sampled base tables with variational derived tables:
///   T  ->  (select *, 1 + floor(rand()*b) as __vdb_sid from T_sample) as T
/// Relations using hash-block sids expose the sample directly (their sid is
/// computed from the hashed column at aggregation time).
///
/// rand() here is row-addressed (common/random.h): the sid a sample tuple
/// receives is a pure function of (query seed, its physical row in the
/// sample, the rand call site), so the sid projection — and every downstream
/// GROUP BY (g, __vdb_sid) — runs on the vectorized, morsel-parallel
/// substrate with bit-identical results at every thread count and plan
/// shape. The paper's requirement is only that each tuple draws its
/// subsample uniformly and independently (§4.1, Query 3); which uniform
/// value a given tuple draws was never specified, so addressing draws by row
/// rather than by draw order preserves the estimator exactly.
Status SubstituteSamples(TableRef* ref, const RewriteCtx& ctx) {
  switch (ref->kind) {
    case TableRef::Kind::kBase: {
      const std::string alias = Lower(ref->EffectiveName());
      auto it = ctx.plan->choices.find(alias);
      if (it == ctx.plan->choices.end() || !it->second.sampled) {
        return Status::Ok();
      }
      const auto& sample = it->second.sample;
      if (ctx.sid.hash_column.empty()) {
        auto inner = std::make_unique<SelectStmt>();
        inner->items.emplace_back(sql::MakeStar(), "");
        // 1 + floor(rand() * b): Query 3 with every tuple kept (default
        // b*ns = n). The engine evaluates this with the row-addressed rand
        // batch kernel — no serial pin, no draw-order dependence.
        auto fl = Fn("floor", {});
        fl->args.push_back(Bin(BinaryOp::kMul, Fn("rand", {}),
                               sql::MakeIntLit(ctx.b)));
        inner->items.emplace_back(
            Bin(BinaryOp::kAdd, sql::MakeIntLit(1), std::move(fl)),
            "__vdb_sid");
        inner->from = sql::MakeBaseTable(sample.sample_table);
        ref->kind = TableRef::Kind::kDerived;
        ref->derived = std::move(inner);
        ref->alias = alias;
        ref->table_name.clear();
      } else {
        // Hash-block sid: just point at the sample table.
        ref->table_name = sample.sample_table;
        if (ref->alias.empty()) ref->alias = alias;
      }
      return Status::Ok();
    }
    case TableRef::Kind::kDerived: {
      // A grouped derived relation is never scaled or given a sid; it only
      // reads the universe sample of its table when that is exact on every
      // key that can join (docs/INVARIANTS.md).
      const sampling::SampleInfo* sample = DerivedUniverseSample(*ref, ctx);
      if (sample != nullptr) {
        TableRef& from = *ref->derived->from;
        if (from.alias.empty()) from.alias = from.table_name;
        from.table_name = sample->sample_table;
      }
      return Status::Ok();
    }
    case TableRef::Kind::kJoin: {
      VDB_RETURN_IF_ERROR(SubstituteSamples(ref->left.get(), ctx));
      return SubstituteSamples(ref->right.get(), ctx);
    }
  }
  return Status::Ok();
}

/// The build's hash cut-off of a hashed sample; the realized ratio when
/// none is recorded.
double BlockCutoff(const sampling::SampleInfo& s) {
  return s.hash_cutoff > 0.0 ? s.hash_cutoff : s.ratio;
}

/// Reads the sid rule the planner recorded in `plan`; b follows the
/// largest sample of every sampled relation.
Result<SidPlan> MakeSidPlan(const SamplePlan& plan) {
  SidPlan sp;
  int sampled = 0;
  for (const auto& [alias, choice] : plan.choices) {
    if (!choice.sampled) continue;
    const double cutoff = BlockCutoff(choice.sample);
    if (sampled++ == 0) {
      sp.alias = alias;
      sp.tau = choice.sample.ratio;
      sp.block_cutoff = cutoff;
    } else {
      sp.tau = std::min(sp.tau, choice.sample.ratio);
      sp.block_cutoff = std::min(sp.block_cutoff, cutoff);
    }
    sp.sample_rows = std::max(sp.sample_rows, choice.sample.sample_rows);
  }
  if (sampled == 0) {
    return Status::Internal("rewriter invoked without samples");
  }
  // Random sids serve one sample; two samples must be universe-joined.
  if (sampled > (plan.universe_alias.empty() ? 1 : 2)) {
    return Status::Internal(
        "sample plan reads more samples than its sid rule allows");
  }
  if (!plan.universe_alias.empty()) {
    sp.alias = plan.universe_alias;
    sp.hash_column = plan.universe_column;
    sp.universe_join = sampled == 2;
  }
  return sp;
}

std::string ItemOutputName(const sql::SelectItem& item) {
  if (!item.alias.empty()) return item.alias;
  if (item.expr->kind == ExprKind::kColumnRef) return item.expr->name;
  return sql::PrintExpr(*item.expr);
}

bool IsBareCount(const Expr& e) {
  return e.kind == ExprKind::kFunction && e.name == "count" && !e.distinct;
}

/// Builds the two-level rewritten query (or, in variational-table mode, just
/// the inner per-(group, sid) query of §5.2 / Query 7).
Result<RewriteResult> BuildRewrite(const SelectStmt& original, RewriteCtx& ctx,
                                   bool variational_table_mode);

}  // namespace

int AqpRewriter::ChooseB(uint64_t sample_rows) const {
  // Default ns = n^(1/2)  =>  b = n^(1/2), taken as k^2 with k = n^(1/4).
  double k = std::sqrt(std::sqrt(static_cast<double>(std::max<uint64_t>(
      sample_rows, 16))));
  int ki = std::clamp(static_cast<int>(std::lround(k)), 3, 40);
  return ki * ki;
}

Result<RewriteResult> AqpRewriter::RewriteFlat(const SelectStmt& original,
                                               const QueryClass& qc,
                                               const SamplePlan& plan) {
  RewriteCtx ctx;
  ctx.plan = &plan;
  auto sid = MakeSidPlan(plan);
  if (!sid.ok()) return sid.status();
  ctx.sid = std::move(sid).ValueOrDie();
  ctx.join_edges = &qc.join_edges;
  ctx.b = ChooseB(ctx.sid.sample_rows);
  for (const auto& g : original.group_by) {
    ctx.group_protos.push_back(g->Clone());
  }

  return BuildRewrite(original, ctx, /*variational_table_mode=*/false);
}

// BuildRewrite is declared as a private-like free function via a member
// helper; kept as a member on the class for access to options_.
Result<RewriteResult> AqpRewriter::RewriteNested(
    const SelectStmt& original, const QueryClass& qc_outer,
    const QueryClass& qc_inner, const SamplePlan& plan_inner,
    int64_t inner_group_hint) {
  const SelectStmt& inner = *qc_outer.relations[0].derived;
  const std::string t_alias = qc_outer.relations[0].alias;

  // 1. Middle query: the variational table of the inner aggregate (Query 7):
  //    per (inner groups, sid) estimates named by the inner aliases.
  RewriteCtx ictx;
  ictx.plan = &plan_inner;
  auto sid = MakeSidPlan(plan_inner);
  if (!sid.ok()) return sid.status();
  ictx.sid = std::move(sid).ValueOrDie();
  ictx.join_edges = &qc_inner.join_edges;
  ictx.b = ChooseB(ictx.sid.sample_rows);
  if (inner_group_hint > 0) {
    // Keep >= ~5 sample tuples per (group, sid) cell on average.
    constexpr int64_t kMinCellTuples = 5;
    int64_t b_max = static_cast<int64_t>(ictx.sid.sample_rows) /
                    (inner_group_hint * kMinCellTuples);
    if (b_max < 4) {
      return Status::Unsupported(
          "nested AQP infeasible: inner grouping too fine for the sample");
    }
    ictx.b = static_cast<int>(std::min<int64_t>(ictx.b, b_max));
  }
  for (const auto& g : inner.group_by) ictx.group_protos.push_back(g->Clone());

  auto middle = BuildRewrite(inner, ictx, /*variational_table_mode=*/true);
  if (!middle.ok()) return middle.status();

  // 2. Outer query: rewrite against the middle table in complete-replica
  //    mode — each sid partition of the variational table is a full estimate
  //    of the derived table, so aggregates apply directly per (group, sid)
  //    and per-subsample weights are the propagated tuple counts.
  auto outer = original.Clone();
  outer->from = sql::MakeDerivedTable(
      std::move(middle.value().rewritten), t_alias);

  RewriteCtx octx;
  SamplePlan empty_plan;  // outer relations are not sampled again
  octx.plan = &empty_plan;
  octx.complete_replica = true;
  octx.b = ictx.b;
  octx.sid.alias = t_alias;
  for (const auto& g : outer->group_by) octx.group_protos.push_back(g->Clone());

  auto result = BuildRewrite(*outer, octx, /*variational_table_mode=*/false);
  if (!result.ok()) return result.status();
  result.value().b = ictx.b;
  return result;
}

namespace {

Result<RewriteResult> BuildRewrite(const SelectStmt& original, RewriteCtx& ctx,
                                   bool variational_table_mode) {
  RewriteResult out;
  out.b = ctx.b;

  // ---- Collect statistics (select items + HAVING aggregate calls) --------
  std::vector<Statistic> stats;
  std::map<std::string, int> stat_index;  // printed text -> index
  struct ItemPlan {
    bool is_group = false;
    int group_index = -1;   // which group expr it matches
    int stat = -1;          // statistic index
  };
  std::vector<ItemPlan> item_plans;

  std::map<std::string, int> group_text;  // printed group expr -> index
  for (size_t i = 0; i < original.group_by.size(); ++i) {
    const Expr& g = *original.group_by[i];
    group_text[sql::PrintExpr(g)] = static_cast<int>(i);
    if (g.kind == ExprKind::kColumnRef) {
      group_text[g.name] = static_cast<int>(i);
    }
  }

  for (const auto& item : original.items) {
    ItemPlan ip;
    std::string text = sql::PrintExpr(*item.expr);
    auto git = group_text.find(text);
    if (git == group_text.end() && item.expr->kind == ExprKind::kColumnRef) {
      git = group_text.find(item.expr->name);
    }
    if (git != group_text.end()) {
      ip.is_group = true;
      ip.group_index = git->second;
    } else {
      Statistic st;
      st.expr = item.expr.get();
      st.output_name = ItemOutputName(item);
      st.round_to_int = IsBareCount(*item.expr);
      st.scaled_total = IsPureTotal(*item.expr);
      auto [it, inserted] =
          stat_index.emplace(text, static_cast<int>(stats.size()));
      if (inserted) stats.push_back(std::move(st));
      ip.stat = it->second;
    }
    item_plans.push_back(ip);
  }
  // HAVING aggregate calls become additional statistics.
  if (original.having) {
    std::vector<const Expr*> stack = {original.having.get()};
    while (!stack.empty()) {
      const Expr* e = stack.back();
      stack.pop_back();
      if (e->kind == ExprKind::kFunction && !e->is_window &&
          vdb::engine::IsAggregateFunction(e->name)) {
        std::string text = sql::PrintExpr(*e);
        if (!stat_index.count(text)) {
          Statistic st;
          st.expr = e;
          st.output_name = "__vdb_h" + std::to_string(stats.size());
          st.scaled_total = IsPureTotal(*e);
          stat_index.emplace(text, static_cast<int>(stats.size()));
          stats.push_back(std::move(st));
        }
        continue;
      }
      for (const auto& a : e->args) {
        if (a) stack.push_back(a.get());
      }
      for (const auto& w : e->case_whens) stack.push_back(w.get());
      for (const auto& t : e->case_thens) stack.push_back(t.get());
      if (e->case_else) stack.push_back(e->case_else.get());
    }
  }

  // ---- Inner query ---------------------------------------------------------
  auto inner = std::make_unique<SelectStmt>();
  for (size_t i = 0; i < original.group_by.size(); ++i) {
    inner->items.emplace_back(original.group_by[i]->Clone(),
                              "__vdb_g" + std::to_string(i));
  }
  for (size_t k = 0; k < stats.size(); ++k) {
    auto est = ReplaceAggsWithEstimates(*stats[k].expr, ctx,
                                        !stats[k].scaled_total);
    if (!est.ok()) return est.status();
    inner->items.emplace_back(std::move(est).ValueOrDie(),
                              "__vdb_e" + std::to_string(k));
  }
  Expr::Ptr sid_expr = ctx.SidExpr();
  inner->items.emplace_back(sid_expr->Clone(), "__vdb_sid");
  if (ctx.complete_replica) {
    // Propagate tuple-level subsample sizes from the variational table.
    auto ss = Fn("sum", {});
    ss->args.push_back(Ref(ctx.sid.alias, "__vdb_ssize"));
    inner->items.emplace_back(std::move(ss), "__vdb_ssize");
  } else {
    auto cs = Fn("count", {});
    cs->args.push_back(sql::MakeStar());
    inner->items.emplace_back(std::move(cs), "__vdb_ssize");
  }

  // FROM with samples substituted.
  if (!original.from) return Status::Internal("aggregate query without FROM");
  auto from = original.from->Clone();
  VDB_RETURN_IF_ERROR(SubstituteSamples(from.get(), ctx));
  inner->from = std::move(from);
  if (original.where) inner->where = original.where->Clone();
  for (const auto& g : original.group_by) {
    inner->group_by.push_back(g->Clone());
  }
  inner->group_by.push_back(sid_expr->Clone());

  if (variational_table_mode) {
    // Query 7: expose the variational table itself, renaming group and
    // estimate outputs to their user-facing names so the outer query can
    // reference them.
    for (size_t i = 0; i < original.group_by.size(); ++i) {
      // Find the user-facing name: a select item matching the group expr.
      std::string name = "__vdb_g" + std::to_string(i);
      for (size_t j = 0; j < original.items.size(); ++j) {
        if (item_plans[j].is_group &&
            item_plans[j].group_index == static_cast<int>(i)) {
          name = ItemOutputName(original.items[j]);
          break;
        }
      }
      inner->items[i].alias = name;
    }
    for (size_t k = 0; k < stats.size(); ++k) {
      inner->items[original.group_by.size() + k].alias =
          stats[k].output_name;
    }
    out.rewritten = std::move(inner);
    return out;
  }

  // ---- Outer query ---------------------------------------------------------
  auto outer = std::make_unique<SelectStmt>();
  outer->from = sql::MakeDerivedTable(std::move(inner), "__vdb_vt");

  std::vector<int> estimate_col_of_stat(stats.size(), -1);
  for (size_t j = 0; j < original.items.size(); ++j) {
    const ItemPlan& ip = item_plans[j];
    std::string name = ItemOutputName(original.items[j]);
    if (ip.is_group) {
      outer->items.emplace_back(
          Ref("", "__vdb_g" + std::to_string(ip.group_index)), name);
      out.columns.push_back(
          {RewrittenColumn::Kind::kGroup, name, -1});
    } else {
      const auto st = static_cast<size_t>(ip.stat);
      outer->items.emplace_back(
          CombinePoint(ip.stat, stats[st].round_to_int,
                       !stats[st].scaled_total, ctx.b),
          name);
      estimate_col_of_stat[st] = static_cast<int>(out.columns.size());
      out.columns.push_back(
          {RewrittenColumn::Kind::kEstimate, name, -1});
    }
  }
  // Error columns appended after all user-visible columns.
  for (size_t j = 0; j < original.items.size(); ++j) {
    const ItemPlan& ip = item_plans[j];
    if (ip.is_group) continue;
    std::string name = ItemOutputName(original.items[j]) + "_err";
    outer->items.emplace_back(CombineError(ip.stat), name);
    out.columns.push_back(
        {RewrittenColumn::Kind::kError, name,
         estimate_col_of_stat[static_cast<size_t>(ip.stat)]});
  }

  for (size_t i = 0; i < original.group_by.size(); ++i) {
    outer->group_by.push_back(Ref("", "__vdb_g" + std::to_string(i)));
  }

  // HAVING: aggregate calls -> point-combine expressions.
  if (original.having) {
    struct Replacer {
      const std::map<std::string, int>* stat_index;
      const std::vector<Statistic>* stats;
      int b;
      Expr::Ptr Rewrite(const Expr& e) const {
        if (e.kind == ExprKind::kFunction && !e.is_window &&
            vdb::engine::IsAggregateFunction(e.name)) {
          auto it = stat_index->find(sql::PrintExpr(e));
          if (it != stat_index->end()) {
            return CombinePoint(
                it->second, false,
                !(*stats)[static_cast<size_t>(it->second)].scaled_total, b);
          }
        }
        auto out = e.Clone();
        for (auto& a : out->args) {
          if (a && a->kind != ExprKind::kStar) a = Rewrite(*a);
        }
        for (auto& w : out->case_whens) w = Rewrite(*w);
        for (auto& t : out->case_thens) t = Rewrite(*t);
        if (out->case_else) out->case_else = Rewrite(*out->case_else);
        return out;
      }
    };
    Replacer rep{&stat_index, &stats, ctx.b};
    outer->having = rep.Rewrite(*original.having);
    // Group references inside HAVING must point at the outer group aliases.
    struct GroupFixer {
      const std::map<std::string, int>* group_text;
      void Fix(Expr* e) const {
        if (e->kind == ExprKind::kColumnRef) {
          auto it = group_text->find(e->name);
          if (it == group_text->end()) {
            it = group_text->find(sql::PrintExpr(*e));
          }
          if (it != group_text->end()) {
            e->qualifier.clear();
            e->name = "__vdb_g" + std::to_string(it->second);
          }
          return;
        }
        for (auto& a : e->args) {
          if (a) Fix(a.get());
        }
        for (auto& w : e->case_whens) Fix(w.get());
        for (auto& t : e->case_thens) Fix(t.get());
        if (e->case_else) Fix(e->case_else.get());
      }
    };
    GroupFixer fixer{&group_text};
    fixer.Fix(outer->having.get());
  }

  // ORDER BY / LIMIT carry over; expressions are remapped to output columns
  // by name or by matching the original select-item text.
  for (const auto& o : original.order_by) {
    sql::OrderItem oi;
    oi.ascending = o.ascending;
    std::string text = sql::PrintExpr(*o.expr);
    int matched = -1;
    for (size_t j = 0; j < original.items.size(); ++j) {
      if (sql::PrintExpr(*original.items[j].expr) == text ||
          ItemOutputName(original.items[j]) == text) {
        matched = static_cast<int>(j);
        break;
      }
    }
    if (matched >= 0) {
      oi.expr = Ref(
          "", ItemOutputName(original.items[static_cast<size_t>(matched)]));
    } else {
      oi.expr = o.expr->Clone();
    }
    outer->order_by.push_back(std::move(oi));
  }
  outer->limit = original.limit;

  out.rewritten = std::move(outer);
  return out;
}

}  // namespace

}  // namespace vdb::core
