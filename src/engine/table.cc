#include "engine/table.h"

#include <algorithm>
#include <cctype>

#include "common/thread_pool.h"

namespace vdb::engine {

namespace {
std::string ToLower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

/// Threads for a column-parallel gather of `rows` rows. Below 4096 rows the
/// fan-out costs more than it saves, so one thread runs every column.
int GatherThreads(size_t rows, int num_threads) {
  return rows >= 4096 ? num_threads : 1;
}
}  // namespace

uint64_t ApproxCellBytes(TypeId t) {
  switch (t) {
    case TypeId::kNull: return 0;
    case TypeId::kBool:
    case TypeId::kInt64:
    case TypeId::kDouble: return 8;
    case TypeId::kString: return 24;
  }
  return 0;
}

void Table::AddColumn(const std::string& name, TypeId type) {
  names_.push_back(ToLower(name));
  Column c(type);
  // Keep row counts consistent if columns are added to a non-empty table.
  for (size_t i = 0; i < num_rows_; ++i) c.AppendNull();
  columns_.push_back(std::move(c));
}

void Table::AddColumn(const std::string& name, Column col) {
  if (columns_.empty()) num_rows_ = col.size();
  names_.push_back(ToLower(name));
  columns_.push_back(std::move(col));
}

int Table::ColumnIndex(const std::string& name) const {
  std::string lower = ToLower(name);
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == lower) return static_cast<int>(i);
  }
  return -1;
}

void Table::AppendRow(const std::vector<Value>& row) {
  for (size_t i = 0; i < columns_.size(); ++i) columns_[i].Append(row[i]);
  ++num_rows_;
}

void Table::AppendSelected(const Table& src, const SelVector& sel,
                           int num_threads) {
  // Column-parallel gather: each column writes only its own storage.
  ParallelForEach(columns_.size(), GatherThreads(sel.size(), num_threads),
                  [&](size_t i) {
                    columns_[i].AppendSelected(src.columns_[i], sel.data(),
                                               sel.size());
                  });
  num_rows_ += sel.size();
}

void Table::AppendRange(const Table& src, size_t start, size_t count) {
  for (size_t i = 0; i < columns_.size(); ++i) {
    columns_[i].AppendRange(src.columns_[i], start, count);
  }
  num_rows_ += count;
}

size_t Table::ApproxBytes() const {
  size_t bytes = 0;
  for (const auto& c : columns_) {
    bytes += c.size() * static_cast<size_t>(ApproxCellBytes(c.type()));
  }
  return bytes;
}

void Table::ClearRows() {
  for (auto& c : columns_) c.Clear();
  num_rows_ = 0;
}

TablePtr Table::CloneSchema() const {
  auto t = std::make_shared<Table>();
  for (size_t i = 0; i < columns_.size(); ++i) {
    t->AddColumn(names_[i], columns_[i].type());
  }
  return t;
}

// ---- RowView ----------------------------------------------------------------

Result<RowView> RowView::All(TablePtr table) {
  if (!table) return Status::Internal("row view over a null table");
  if (table->num_rows() > kMaxRows) {
    return Status::Unsupported(
        "selection vectors address at most 2^32 - 2 rows; table has " +
        std::to_string(table->num_rows()));
  }
  RowView v;
  v.end_ = table->num_rows();
  v.table_ = std::move(table);
  return v;
}

Result<RowView> RowView::Select(TablePtr table, SelVector sel) {
  if (!table) return Status::Internal("row view over a null table");
  if (table->num_rows() > kMaxRows) {
    return Status::Unsupported(
        "selection vectors address at most 2^32 - 2 rows; table has " +
        std::to_string(table->num_rows()));
  }
  const size_t n = table->num_rows();
  for (uint32_t r : sel) {
    if (r >= n) {
      return Status::Internal("row view selection index " + std::to_string(r) +
                              " out of range (" + std::to_string(n) + " rows)");
    }
  }
  RowView v;
  v.has_sel_ = true;
  v.sel_ = std::move(sel);
  v.table_ = std::move(table);
  return v;
}

Result<RowView> RowView::Compose(const SelVector& positions) const {
  const size_t n = num_rows();
  RowView out;
  out.table_ = table_;
  out.has_sel_ = true;
  out.sel_.reserve(positions.size());
  for (uint32_t p : positions) {
    if (p >= n) {
      return Status::Internal("view composition position " + std::to_string(p) +
                              " out of range (" + std::to_string(n) +
                              " view rows)");
    }
    out.sel_.push_back(RowAt(p));
  }
  return out;
}

RowView RowView::Prefix(size_t n) const {
  RowView out;
  out.table_ = table_;
  if (has_sel_) {
    // Copy only the surviving prefix: LIMIT k costs O(k), not O(survivors).
    out.has_sel_ = true;
    out.sel_.assign(sel_.begin(),
                    sel_.begin() + static_cast<ptrdiff_t>(
                                       std::min(n, sel_.size())));
  } else {
    out.begin_ = begin_;
    out.end_ = std::min(end_, begin_ + n);
  }
  return out;
}

TablePtr RowView::Gather(int num_threads) const {
  if (is_identity()) return table_;
  auto out = table_->CloneSchema();
  if (!has_sel_) {
    out->AppendRange(*table_, begin_, end_ - begin_);
    return out;
  }
  out->AppendSelected(*table_, sel_, num_threads);
  return out;
}

Result<TablePtr> RowView::GatherGuarded(int num_threads,
                                        const ExecGuard* guard) const {
  VDB_RETURN_IF_ERROR(GuardCheck(guard, "gather"));
  if (!is_identity() && table_->num_rows() > 0) {
    // Pre-charge the output footprint from the source's per-row estimate;
    // the gathered table lives to the end of the statement, so the charge
    // is reclaimed by ResetForStatement, not here.
    const uint64_t per_row =
        static_cast<uint64_t>(table_->ApproxBytes()) / table_->num_rows();
    VDB_RETURN_IF_ERROR(GuardTryReserve(
        guard, per_row * static_cast<uint64_t>(num_rows()), "gather_alloc"));
  }
  return Gather(num_threads);
}

Column RowView::GatherColumn(const Column& src, int num_threads) const {
  const size_t n = num_rows();
  if (!has_sel_) {
    Column out(src.type());
    out.AppendRange(src, begin_, n);
    return out;
  }
  // Morsel-parallel chunked gather concatenated in morsel order; same-type
  // chunks bulk-append, so the result matches a one-chunk gather exactly.
  auto chunks = ParallelMorselMap<Column>(
      n, num_threads, [&](Column& chunk, size_t begin, size_t end) {
        chunk = Column(src.type());
        chunk.AppendSelected(src, sel_.data() + begin, end - begin);
      });
  return Column::ConcatChunks(std::move(chunks));
}

// ---- RowSet -----------------------------------------------------------------

namespace {

/// Appends src[rows[i]] for i in [0, count) to `*col`; rows equal to
/// kNullRightRow append NULL. Bulk-gathers maximal sentinel-free segments,
/// so per-element work is spent only on the null extensions themselves.
void AppendRowsOrNull(const Column& src, const uint32_t* rows, size_t count,
                      Column* col) {
  size_t i = 0;
  while (i < count) {
    if (rows[i] == RowSet::kNullRightRow) {
      col->AppendNull();
      ++i;
      continue;
    }
    size_t j = i;
    while (j < count && rows[j] != RowSet::kNullRightRow) ++j;
    col->AppendSelected(src, rows + i, j - i);
    i = j;
  }
}

}  // namespace

RowSet RowSet::Of(TablePtr table) {
  RowSet set;
  set.num_rows_ = table->num_rows();
  set.leaf_ = true;
  set.AddSource({std::move(table), SelVector()});
  return set;
}

void RowSet::AddSource(Source source) {
  for (size_t c = 0; c < source.table->num_columns(); ++c) {
    col_source_.push_back(sources_.size());
    col_index_.push_back(c);
  }
  sources_.push_back(std::move(source));
}

Result<RowSet> RowSet::Join(RowSet left, RowSet right, JoinPairs pairs,
                            int num_threads, const ExecGuard* guard) {
  const size_t n = pairs.size();
  size_t composed = 0;
  if (!left.leaf_) composed += left.sources_.size();
  if (!right.leaf_) composed += right.sources_.size();
  if (composed > 0) {
    // The composed vectors live as long as the set; a leaf side's pair list
    // is moved in and was charged by the join that produced it.
    VDB_RETURN_IF_ERROR(GuardTryReserve(
        guard, static_cast<uint64_t>(composed) * n * sizeof(uint32_t),
        "join_rows_alloc"));
  }
  RowSet out;
  out.num_rows_ = n;
  auto add_side = [&](RowSet& side, SelVector& pos) -> Status {
    if (side.leaf_) {
      out.AddSource({std::move(side.sources_[0].table), std::move(pos)});
      return Status::Ok();
    }
    for (Source& src : side.sources_) {
      SelVector rows(n);
      VDB_RETURN_IF_ERROR(ThreadPool::Global().ParallelForStatus(
          n, MorselRows(), num_threads, guard, "join_rows",
          [&](size_t, size_t begin, size_t end) {
            for (size_t i = begin; i < end; ++i) {
              rows[i] = pos[i] == kNullRightRow ? kNullRightRow
                                                : src.rows[pos[i]];
            }
            return Status::Ok();
          }));
      SelVector().swap(src.rows);  // the child's vector is spent
      out.AddSource({std::move(src.table), std::move(rows)});
    }
    SelVector().swap(pos);
    return Status::Ok();
  };
  VDB_RETURN_IF_ERROR(add_side(left, pairs.left));
  VDB_RETURN_IF_ERROR(add_side(right, pairs.right));
  return out;
}

const TablePtr& RowSet::leaf_table() const {
  static const TablePtr kNone;
  return leaf_ ? sources_[0].table : kNone;
}

const std::string& RowSet::column_name(size_t c) const {
  return sources_[col_source_[c]].table->column_name(col_index_[c]);
}

TypeId RowSet::column_type(size_t c) const {
  return sources_[col_source_[c]].table->column(col_index_[c]).type();
}

void RowSet::AppendColumnRange(size_t c, size_t begin, size_t count,
                               Column* out) const {
  const Source& s = sources_[col_source_[c]];
  const Column& src = s.table->column(col_index_[c]);
  if (leaf_) {
    out->AppendRange(src, begin, count);  // a leaf's positions are its rows
  } else {
    AppendRowsOrNull(src, s.rows.data() + begin, count, out);
  }
}

void RowSet::AppendColumnAt(size_t c, const uint32_t* pos, size_t count,
                            Column* out) const {
  const Source& s = sources_[col_source_[c]];
  const Column& src = s.table->column(col_index_[c]);
  if (leaf_) {
    AppendRowsOrNull(src, pos, count, out);
    return;
  }
  // Compose the positions through the source's vector a block at a time.
  constexpr size_t kBlock = 1024;
  uint32_t rows[kBlock];
  for (size_t i = 0; i < count; i += kBlock) {
    const size_t m = std::min(kBlock, count - i);
    for (size_t k = 0; k < m; ++k) {
      const uint32_t p = pos[i + k];
      rows[k] = p == kNullRightRow ? kNullRightRow : s.rows[p];
    }
    AppendRowsOrNull(src, rows, m, out);
  }
}

Column RowSet::GatherColumn(size_t c, int num_threads) const {
  // Same-type chunks bulk-append, so the result matches a one-chunk gather.
  auto chunks = ParallelMorselMap<Column>(
      num_rows_, num_threads, [&](Column& chunk, size_t begin, size_t end) {
        chunk = Column(column_type(c));
        AppendColumnRange(c, begin, end - begin, &chunk);
      });
  return Column::ConcatChunks(std::move(chunks));
}

TablePtr RowSet::GatherMasked(const std::vector<uint8_t>& mask,
                              int num_threads) const {
  if (leaf_) return sources_[0].table;
  auto out = std::make_shared<Table>();
  for (size_t c = 0; c < num_columns(); ++c) {
    out->AddColumn(column_name(c), mask[c] != 0
                                       ? GatherColumn(c, num_threads)
                                       : Column(column_type(c)));
  }
  out->SetRowCount(num_rows_);
  return out;
}

uint64_t RowSet::MaskedBytes(const std::vector<uint8_t>& mask) const {
  if (leaf_) return 0;
  uint64_t per_row = 0;
  for (size_t c = 0; c < num_columns(); ++c) {
    if (mask[c] != 0) per_row += ApproxCellBytes(column_type(c));
  }
  return per_row * static_cast<uint64_t>(num_rows_);
}

std::vector<size_t> RowSet::AllColumns() const {
  std::vector<size_t> all(num_columns());
  for (size_t c = 0; c < all.size(); ++c) all[c] = c;
  return all;
}

Result<TablePtr> RowSet::GatherGuarded(int num_threads, const ExecGuard* guard,
                                       const std::vector<size_t>& keep) const {
  VDB_RETURN_IF_ERROR(GuardCheck(guard, "gather"));
  uint64_t per_row = 0;
  for (size_t c : keep) per_row += ApproxCellBytes(column_type(c));
  // Charge persists with the gathered table (see RowView::GatherGuarded).
  VDB_RETURN_IF_ERROR(GuardTryReserve(
      guard, per_row * static_cast<uint64_t>(num_rows_), "gather_alloc"));
  auto out = std::make_shared<Table>();
  for (size_t c : keep) out->AddColumn(column_name(c), column_type(c));
  ParallelForEach(keep.size(), GatherThreads(num_rows_, num_threads),
                  [&](size_t k) {
                    AppendColumnRange(keep[k], 0, num_rows_,
                                      &out->column(k));
                  });
  out->SetRowCount(num_rows_);
  return out;
}

void GatherJoinPairsInto(const RowSet& left, const uint32_t* lrows,
                         const RowSet& right, const uint32_t* rrows,
                         size_t count, int num_threads, Table* out,
                         const std::vector<uint8_t>* column_mask) {
  const size_t lcols = left.num_columns();
  const size_t rcols = right.num_columns();
  if (out->num_columns() == 0) {
    for (size_t c = 0; c < lcols; ++c) {
      out->AddColumn(left.column_name(c), left.column_type(c));
    }
    for (size_t c = 0; c < rcols; ++c) {
      out->AddColumn(right.column_name(c), right.column_type(c));
    }
  }
  out->ClearRows();
  ParallelForEach(lcols + rcols, GatherThreads(count, num_threads),
                  [&](size_t c) {
                    if (column_mask != nullptr && (*column_mask)[c] == 0) {
                      return;
                    }
                    if (c < lcols) {
                      left.AppendColumnAt(c, lrows, count, &out->column(c));
                    } else {
                      right.AppendColumnAt(c - lcols, rrows, count,
                                           &out->column(c));
                    }
                  });
  out->SetRowCount(count);
}

}  // namespace vdb::engine
