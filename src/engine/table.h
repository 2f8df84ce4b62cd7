// In-memory column-store table.

#ifndef VDB_ENGINE_TABLE_H_
#define VDB_ENGINE_TABLE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/governor.h"
#include "common/status.h"
#include "engine/column.h"

namespace vdb::engine {

/// Rough per-cell heap footprint of a column of type `t`: the unit of
/// Table::ApproxBytes and of the gathers' budget charges.
uint64_t ApproxCellBytes(TypeId t);

/// A selection vector: physical row indices (ascending for filters, arbitrary
/// for gathers) into a table. The vectorized paths support row counts up to
/// 2^32 - 2 (0xFFFFFFFF is a join null-extension sentinel); joins reject
/// larger inputs.
using SelVector = std::vector<uint32_t>;

/// A table: named columns with equal row counts. Column names are stored
/// lowercase; lookup is case-insensitive.
class Table {
 public:
  Table() = default;

  /// Adds a column (must be called before rows are appended, or with a column
  /// already holding num_rows() entries).
  void AddColumn(const std::string& name, TypeId type);
  void AddColumn(const std::string& name, Column col);

  size_t num_columns() const { return columns_.size(); }
  size_t num_rows() const { return num_rows_; }

  const std::string& column_name(size_t i) const { return names_[i]; }
  const Column& column(size_t i) const { return columns_[i]; }
  Column& column(size_t i) { return columns_[i]; }

  /// Case-insensitive lookup; -1 if absent.
  int ColumnIndex(const std::string& name) const;

  /// Appends one row; `row` must have num_columns() values.
  void AppendRow(const std::vector<Value>& row);

  /// Bulk-copies the rows selected by `sel` from `src` (same schema arity),
  /// in selection order. The vectorized executor's materialization path.
  /// The columns are gathered on up to num_threads threads (each column is
  /// independent, so the result is identical at every thread count).
  void AppendSelected(const Table& src, const SelVector& sel,
                      int num_threads = 1);

  /// Bulk-copies rows [start, start + count) of `src` (same schema arity).
  void AppendRange(const Table& src, size_t start, size_t count);

  Value Get(size_t row, size_t col) const { return columns_[col].Get(row); }

  /// Rough heap footprint in bytes (used by the I/O-cost model in benches).
  size_t ApproxBytes() const;

  std::shared_ptr<Table> CloneSchema() const;

  /// Removes all rows, keeping the schema (and column capacity, so cleared
  /// scratch tables reuse their buffers).
  void ClearRows();

  /// Restores the row-count invariant after a caller has appended directly
  /// into the columns (the combined-gather path writes columns in parallel);
  /// every column must hold exactly `n` rows.
  void SetRowCount(size_t n) { num_rows_ = n; }

 private:
  std::vector<std::string> names_;
  std::vector<Column> columns_;
  size_t num_rows_ = 0;
};

using TablePtr = std::shared_ptr<Table>;

/// A borrowed, late-materialized set of rows of one table: either the
/// contiguous range [begin, end) (identity/range fast path, no selection
/// vector allocated) or an explicit selection vector of physical row
/// indices. Operators pass RowViews downstream instead of gathering
/// survivors into fresh tables after every step; the single full-width
/// gather happens at the result boundary (or where an operator genuinely
/// needs contiguous storage, e.g. a join build or window frames).
///
/// Views always hold physical row indices — composing a view over a view
/// flattens immediately, so stacking never chains indirections.
class RowView {
 public:
  /// Selection vectors are uint32_t; 0xFFFFFFFF is the join null-extension
  /// sentinel, so views address at most 2^32 - 2 rows.
  static constexpr size_t kMaxRows = 0xFFFFFFFEu;

  RowView() = default;

  /// Identity view over the whole table. Errors (rather than silently
  /// truncating uint32_t indices later) when the table exceeds kMaxRows.
  static Result<RowView> All(TablePtr table);

  /// View of the physical rows named by `sel`, in selection order. Validates
  /// that every index addresses a row of `table`.
  static Result<RowView> Select(TablePtr table, SelVector sel);

  const TablePtr& table() const { return table_; }
  size_t num_rows() const { return has_sel_ ? sel_.size() : end_ - begin_; }

  /// True when the view is exactly the whole table in physical order (the
  /// zero-copy fast path: Gather returns the table itself).
  bool is_identity() const {
    return table_ != nullptr && !has_sel_ && begin_ == 0 &&
           end_ == table_->num_rows();
  }

  bool has_selection() const { return has_sel_; }
  const SelVector& selection() const { return sel_; }
  size_t range_begin() const { return begin_; }

  /// Physical row index of view position i.
  uint32_t RowAt(size_t i) const {
    return has_sel_ ? sel_[i] : static_cast<uint32_t>(begin_ + i);
  }

  /// View-of-view composition: `positions` index THIS view's rows; the
  /// result addresses the underlying table directly. Errors on positions
  /// outside [0, num_rows()).
  Result<RowView> Compose(const SelVector& positions) const;

  /// The first min(n, num_rows()) rows of the view (LIMIT).
  RowView Prefix(size_t n) const;

  /// Materializes the viewed rows. Identity views return the underlying
  /// table unchanged (zero-copy — callers who mutate must copy); range and
  /// selection views bulk-gather (column-parallel).
  TablePtr Gather(int num_threads = 1) const;

  /// Guard-aware Gather: polls `guard` (site "gather") and pre-charges the
  /// approximate output footprint against the budget (site "gather_alloc")
  /// before materializing. Identity views are zero-copy and charge nothing.
  /// The charge persists — gathered tables live to the end of the statement
  /// (ExecGuard::ResetForStatement reclaims the accounting). With guard ==
  /// nullptr this is exactly Gather().
  Result<TablePtr> GatherGuarded(int num_threads, const ExecGuard* guard) const;

  /// Materializes one column of the view (the projection path's per-column
  /// gather; morsel-parallel chunked gather for large selections).
  Column GatherColumn(const Column& src, int num_threads = 1) const;

 private:
  TablePtr table_;
  bool has_sel_ = false;
  SelVector sel_;             // meaningful when has_sel_
  size_t begin_ = 0, end_ = 0;  // meaningful when !has_sel_
};

/// Parallel pair lists of a join, in output order: row i of the join is
/// left position left[i] ++ right position right[i] of the joined row sets,
/// and right[i] == RowSet::kNullRightRow is a LEFT JOIN null extension.
/// RowSet::Join composes them into the join's row set.
struct JoinPairs {
  SelVector left, right;

  size_t size() const { return left.size(); }
};

/// The N-source counterpart of RowView: a join result that stays row
/// indices. It holds one selection vector per source table — the leaves of
/// a join tree, left to right — and row i of the set is row sel_s[i] of
/// every source s, concatenated in source order; the combined schema is the
/// sources' columns in that order. A source row of kNullRightRow is a LEFT
/// JOIN null extension, whose columns read NULL. A leaf set (RowSet::Of) is
/// one whole table in physical order and holds no index vector.
///
/// Joins hand row sets up the tree: a parent join gathers only its own key
/// columns (GatherMasked), filters candidate pairs by its ON residual and a
/// pushed-down WHERE while they are still indices (GatherJoinPairsInto),
/// and composes its children's index vectors through its pair lists
/// (Join). The FROM root materializes once (GatherGuarded): the join-tree
/// form of the gather-once invariant.
class RowSet {
 public:
  /// Null-extension sentinel (matches the SelVector contract: tables
  /// address at most 2^32 - 2 rows).
  static constexpr uint32_t kNullRightRow = 0xFFFFFFFFu;

  RowSet() = default;

  /// Every row of `table`, in physical order: one source, no index vector.
  static RowSet Of(TablePtr table);

  /// The join of `left` and `right` through their pair lists: row i is left
  /// row pairs.left[i] ++ right row pairs.right[i], and a right entry of
  /// kNullRightRow null-extends every right source. A leaf side's pair list
  /// becomes its
  /// source's index vector as is; every other source's vector is composed
  /// through its side's pair list (morsel-parallel, polling "join_rows")
  /// and charged at "join_rows_alloc" for the statement's lifetime. The
  /// sides and pair lists are consumed: each child vector is freed as soon
  /// as it has been composed.
  static Result<RowSet> Join(RowSet left, RowSet right, JoinPairs pairs,
                             int num_threads, const ExecGuard* guard);

  size_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return col_source_.size(); }

  /// The table of a leaf set, else nullptr.
  const TablePtr& leaf_table() const;

  /// Name and type of combined column `c`.
  const std::string& column_name(size_t c) const;
  TypeId column_type(size_t c) const;

  /// Appends combined column `c` at the set's positions pos[0, count) to
  /// `*out`. A kNullRightRow position, or a null-extended source row,
  /// appends NULL; sentinel-free spans bulk-gather.
  void AppendColumnAt(size_t c, const uint32_t* pos, size_t count,
                      Column* out) const;

  /// Combined column `c` over every row of the set: a morsel-parallel
  /// chunked gather concatenated in morsel order.
  Column GatherColumn(size_t c, int num_threads) const;

  /// The set as a table to read the combined columns flagged in `mask`
  /// from: a leaf set's own table, or else a table with the full combined
  /// schema in which only the flagged columns are gathered (GatherColumn)
  /// and the others stay EMPTY while the table reports num_rows() rows, so
  /// bound ordinals line up but only flagged columns may be read (a parent
  /// join's key source).
  TablePtr GatherMasked(const std::vector<uint8_t>& mask,
                        int num_threads) const;

  /// The approximate footprint GatherMasked materializes: 0 for a leaf.
  uint64_t MaskedBytes(const std::vector<uint8_t>& mask) const;

  /// Every combined column ordinal, in order: the keep list of a
  /// full-width gather.
  std::vector<size_t> AllColumns() const;

  /// The single materialization of the set. The result holds only the
  /// combined columns whose ordinals `keep` lists, in that order, gathered
  /// column-parallel. Polls `guard` (site "gather") and pre-charges the
  /// kept columns' approximate footprint (site "gather_alloc") before
  /// materializing; the charge persists with the gathered table.
  /// guard == nullptr is ungoverned.
  Result<TablePtr> GatherGuarded(int num_threads, const ExecGuard* guard,
                                 const std::vector<size_t>& keep) const;

 private:
  struct Source {
    TablePtr table;
    SelVector rows;  // physical rows; empty in a leaf set
  };

  void AddSource(Source source);

  /// AppendColumnAt over the positions [begin, begin + count).
  void AppendColumnRange(size_t c, size_t begin, size_t count,
                         Column* out) const;

  std::vector<Source> sources_;
  // Combined column c is column col_index_[c] of source col_source_[c].
  std::vector<size_t> col_source_, col_index_;
  size_t num_rows_ = 0;
  bool leaf_ = false;
};

/// Gathers the combined (left ++ right) schema of `count` candidate pairs
/// into `*out`: row i is left position lrows[i] ++ right position rrows[i]
/// (kNullRightRow emits NULL right columns). Existing rows are cleared but
/// column storage is kept, so a streaming caller (the chunked residual/WHERE
/// pair filter) reuses one scratch table's buffers across every chunk; on
/// an empty `*out` the schema is created first. Column-parallel when
/// num_threads > 1 and the gather is large enough to amortize the fan-out.
///
/// `column_mask` (may be null = all columns), one flag per combined column,
/// restricts the gather to the flagged columns: unflagged columns keep the
/// schema slot but stay EMPTY while the table reports `count` rows, so the
/// caller must only read flagged columns (the predicate-scratch path gathers
/// just the columns the predicate references).
void GatherJoinPairsInto(const RowSet& left, const uint32_t* lrows,
                         const RowSet& right, const uint32_t* rrows,
                         size_t count, int num_threads, Table* out,
                         const std::vector<uint8_t>* column_mask = nullptr);

}  // namespace vdb::engine

#endif  // VDB_ENGINE_TABLE_H_
