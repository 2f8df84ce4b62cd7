#include "core/sample_planner.h"

#include <algorithm>
#include <cmath>

namespace vdb::core {

namespace {

using sampling::SampleInfo;
using sampling::SampleType;

/// Heuristic pruning (Appendix E.2): each relation keeps the base table plus
/// at most this many samples, the best by ratio.
constexpr size_t kPlannerTopK = 10;

/// One candidate choice for a relation during enumeration.
struct Candidate {
  const SampleInfo* sample = nullptr;  // null => base table
  double ratio = 1.0;
  double rows = 0.0;
};

/// True if `edge` connects aliases a and b (either direction), returning the
/// join columns on each side.
bool EdgeBetween(const JoinEdge& e, const std::string& a, const std::string& b,
                 std::string* a_col, std::string* b_col) {
  if (e.left_alias == a && e.right_alias == b) {
    *a_col = e.left_column;
    *b_col = e.right_column;
    return true;
  }
  if (e.left_alias == b && e.right_alias == a) {
    *a_col = e.right_column;
    *b_col = e.left_column;
    return true;
  }
  return false;
}

}  // namespace

Result<SamplePlan> SamplePlanner::Plan(
    const QueryClass& qc, const std::map<std::string, uint64_t>& base_rows,
    int64_t group_cardinality_hint) {
  // Per-relation candidate lists.
  struct RelCands {
    const RelationInfo* rel;
    std::vector<Candidate> cands;
  };
  std::vector<RelCands> rels;
  for (const auto& r : qc.relations) {
    RelCands rc;
    rc.rel = &r;
    Candidate base;
    auto it = base_rows.find(r.alias);
    base.rows = it == base_rows.end() ? 0.0 : static_cast<double>(it->second);
    rc.cands.push_back(base);
    if (!r.is_derived) {
      for (const auto& s : available_) {
        if (s.base_table != r.base_table) continue;
        // Small tables are never sampled (paper §2.4: only tables above the
        // size threshold have an I/O budget).
        if (static_cast<int64_t>(s.base_rows) <
            options_.min_rows_for_sampling) {
          continue;
        }
        // count(distinct x): the relation owning x must be base or hashed
        // on x. Conservatively require hashed-on-x for any sampled relation
        // when the query has count-distinct.
        if (qc.has_count_distinct &&
            !(s.type == SampleType::kHashed && s.columns.size() == 1 &&
              s.columns[0] == qc.count_distinct_column)) {
          continue;
        }
        Candidate c;
        c.sample = &s;
        c.ratio = s.ratio;
        c.rows = static_cast<double>(s.sample_rows);
        rc.cands.push_back(c);
      }
    }
    if (rc.cands.size() > kPlannerTopK + 1) {
      std::sort(rc.cands.begin() + 1, rc.cands.end(),
                [](const Candidate& a, const Candidate& b) {
                  return a.ratio > b.ratio;
                });
      rc.cands.resize(1 + kPlannerTopK);
    }
    rels.push_back(std::move(rc));
  }

  // Exhaustive product over (pruned) candidates. Relation counts are small
  // (<= 6 in the workloads), so this is cheap.
  std::vector<size_t> pick(rels.size(), 0);
  SamplePlan best;
  best.score = -1.0;

  auto evaluate = [&]() {
    ++stats_.candidates_enumerated;
    // Gather sampled relations.
    std::vector<size_t> sampled;
    for (size_t i = 0; i < rels.size(); ++i) {
      if (rels[i].cands[pick[i]].sample != nullptr) sampled.push_back(i);
    }
    // Two sampled relations only as a universe join (below): no plan joins
    // independently drawn samples.
    if (sampled.size() > 2) return;

    double effective = 1.0;
    double advantage = 1.0;
    // The relation whose hash column the sids are blocks of (§5.1);
    // rels.size() when sids are drawn by rand() (§4.1).
    size_t universe = rels.size();
    if (sampled.size() == 1) {
      effective = rels[sampled[0]].cands[pick[sampled[0]]].ratio;
      // Under count(distinct x) the sample is hashed on x (filtered above).
      if (qc.has_count_distinct) universe = sampled[0];
    } else if (sampled.size() == 2) {
      const auto& ra = rels[sampled[0]];
      const auto& rb = rels[sampled[1]];
      const SampleInfo* sa = ra.cands[pick[sampled[0]]].sample;
      const SampleInfo* sb = rb.cands[pick[sampled[1]]].sample;
      // Two sampled relations must be universe (hashed) samples joined on
      // their hash column (paper §5.1 and Aqua/Quickr strategies).
      if (sa->type != SampleType::kHashed || sb->type != SampleType::kHashed) {
        return;
      }
      bool joined_on_hash_col = false;
      for (const auto& e : qc.join_edges) {
        std::string ca, cb;
        if (EdgeBetween(e, ra.rel->alias, rb.rel->alias, &ca, &cb)) {
          if (sa->columns.size() == 1 && sb->columns.size() == 1 &&
              sa->columns[0] == ca && sb->columns[0] == cb) {
            joined_on_hash_col = true;
            break;
          }
        }
      }
      if (!joined_on_hash_col) return;
      // Universe-joined hashed samples retain min(r_a, r_b) of the join.
      effective = std::min(sa->ratio, sb->ratio);
      // Either side's key gives the same blocks; take the first alias in
      // `choices` order.
      universe = ra.rel->alias < rb.rel->alias ? sampled[0] : sampled[1];
    }

    // Per-table I/O budget check (§2.4): every table above the sampling
    // threshold may contribute at most io_budget of its rows. A sampled
    // plan that still scans some large base relation in full violates the
    // budget and is rejected; dimension-sized tables are exempt.
    double io_cost = 0.0;
    for (size_t i = 0; i < rels.size(); ++i) {
      const Candidate& c = rels[i].cands[pick[i]];
      io_cost += c.rows;
      if (c.sample == nullptr && !rels[i].rel->is_derived) {
        auto it = base_rows.find(rels[i].rel->alias);
        uint64_t n = it == base_rows.end() ? 0 : it->second;
        if (static_cast<int64_t>(n) >= options_.min_rows_for_sampling &&
            !sampled.empty()) {
          return;  // large relation read in full: over budget
        }
      } else if (c.sample != nullptr) {
        // The sample itself must fit the per-table budget.
        double budget = options_.io_budget *
                        static_cast<double>(c.sample->base_rows);
        if (c.rows > budget * 1.5) return;  // 50% slack for stratified
      }
    }

    // Advantage factors: stratified sample covering the count-distinct-free
    // group-by gets a boost; hashed sample matching count-distinct column is
    // required (filtered above) and also boosted.
    for (size_t i : sampled) {
      const SampleInfo* s = rels[i].cands[pick[i]].sample;
      if (s->type == SampleType::kStratified) advantage *= 1.5;
      if (qc.has_count_distinct && s->type == SampleType::kHashed) {
        advantage *= 1.5;
      }
    }

    // Expected tuples per group: reject plans that would leave groups
    // starved (the high-cardinality-group condition) — unless a stratified
    // sample covering the grouping columns guarantees per-stratum minima.
    if (!sampled.empty() && group_cardinality_hint > 0) {
      bool stratified_covers_groups = false;
      if (!qc.group_columns.empty()) {
        for (size_t i : sampled) {
          const SampleInfo* s = rels[i].cands[pick[i]].sample;
          if (s->type != SampleType::kStratified) continue;
          bool covers = true;
          for (const auto& g : qc.group_columns) {
            if (std::find(s->columns.begin(), s->columns.end(), g) ==
                s->columns.end()) {
              covers = false;
              break;
            }
          }
          if (covers) {
            stratified_covers_groups = true;
            break;
          }
        }
      }
      if (!stratified_covers_groups) {
        double sample_tuples = 0.0;
        for (size_t i : sampled) sample_tuples += rels[i].cands[pick[i]].rows;
        if (sample_tuples / static_cast<double>(group_cardinality_hint) <
            static_cast<double>(options_.min_tuples_per_group)) {
          return;
        }
      }
    }

    double score = sampled.empty() ? 0.0 : std::sqrt(effective) * advantage;
    // Prefer sampled plans; scores within 2% are treated as ties (realized
    // sampling ratios jitter around tau) and broken by cheaper I/O.
    bool better = score > best.score * 1.02 + 1e-12 ||
                  (score > best.score * 0.98 && io_cost < best.io_cost);
    if (better) {
      SamplePlan plan;
      for (size_t i = 0; i < rels.size(); ++i) {
        RelationChoice ch;
        ch.alias = rels[i].rel->alias;
        const Candidate& c = rels[i].cands[pick[i]];
        if (c.sample != nullptr) {
          ch.sample = *c.sample;
          ch.sampled = true;
          ++plan.sampled_relations;
        }
        plan.choices[ch.alias] = std::move(ch);
      }
      if (universe < rels.size()) {
        plan.universe_alias = rels[universe].rel->alias;
        plan.universe_column =
            rels[universe].cands[pick[universe]].sample->columns[0];
      }
      plan.score = score;
      plan.io_cost = io_cost;
      best = std::move(plan);
      best.score = score;
    }
  };

  // Odometer enumeration.
  for (;;) {
    evaluate();
    size_t i = 0;
    while (i < rels.size() && ++pick[i] >= rels[i].cands.size()) {
      pick[i] = 0;
      ++i;
    }
    if (i >= rels.size()) break;
  }

  if (best.score < 0) {
    return Status::Internal("sample planner produced no plan");
  }
  return best;
}

}  // namespace vdb::core
