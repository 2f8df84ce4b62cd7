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

/// Rough per-cell heap footprint of a column of type `t` (ApproxBytes).
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

/// Threads for a column-parallel gather of `rows` rows. Below 4096 rows the
/// fan-out costs more than it saves, so one thread runs every column.
int GatherThreads(size_t rows, int num_threads) {
  return rows >= 4096 ? num_threads : 1;
}
}  // namespace

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

void Table::AppendRowFrom(const Table& src, size_t src_row) {
  for (size_t i = 0; i < columns_.size(); ++i) {
    columns_[i].Append(src.columns_[i].Get(src_row));
  }
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

// ---- JoinPairView -----------------------------------------------------------

namespace {

/// Appends combined (left ++ right) column `c` of `count` row pairs to
/// `*col`. Right rows equal to kNullRightRow append NULL.
void AppendPairColumn(const Table& left, const uint32_t* lrows,
                      const Table& right, const uint32_t* rrows, size_t count,
                      size_t c, Column* col) {
  const size_t lcols = left.num_columns();
  if (c < lcols) {
    col->AppendSelected(left.column(c), lrows, count);
    return;
  }
  const Column& src = right.column(c - lcols);
  // Bulk-gather maximal sentinel-free segments; per-element work only for
  // the null extensions themselves.
  size_t i = 0;
  while (i < count) {
    if (rrows[i] == JoinPairView::kNullRightRow) {
      col->AppendNull();
      ++i;
      continue;
    }
    size_t j = i;
    while (j < count && rrows[j] != JoinPairView::kNullRightRow) ++j;
    col->AppendSelected(src, rrows + i, j - i);
    i = j;
  }
}

}  // namespace

std::vector<size_t> JoinPairView::AllColumns() const {
  std::vector<size_t> all(left_->num_columns() + right_->num_columns());
  for (size_t c = 0; c < all.size(); ++c) all[c] = c;
  return all;
}

Result<TablePtr> JoinPairView::GatherGuarded(
    int num_threads, const ExecGuard* guard,
    const std::vector<size_t>& keep) const {
  VDB_RETURN_IF_ERROR(GuardCheck(guard, "gather"));
  const size_t lcols = left_->num_columns();
  auto source = [&](size_t c) -> const Column& {
    return c < lcols ? left_->column(c) : right_->column(c - lcols);
  };
  auto name = [&](size_t c) -> const std::string& {
    return c < lcols ? left_->column_name(c) : right_->column_name(c - lcols);
  };
  uint64_t per_pair = 0;
  for (size_t c : keep) per_pair += ApproxCellBytes(source(c).type());
  // Charge persists with the gathered table (see RowView::GatherGuarded).
  VDB_RETURN_IF_ERROR(GuardTryReserve(
      guard, per_pair * static_cast<uint64_t>(lrows_.size()), "gather_alloc"));
  auto out = std::make_shared<Table>();
  for (size_t c : keep) out->AddColumn(name(c), source(c).type());
  ParallelForEach(keep.size(), GatherThreads(lrows_.size(), num_threads),
                  [&](size_t k) {
                    AppendPairColumn(*left_, lrows_.data(), *right_,
                                     rrows_.data(), lrows_.size(), keep[k],
                                     &out->column(k));
                  });
  out->SetRowCount(lrows_.size());
  return out;
}

void GatherJoinPairsInto(const Table& left, const uint32_t* lrows,
                         const Table& right, const uint32_t* rrows,
                         size_t count, int num_threads, Table* out,
                         const std::vector<uint8_t>* column_mask) {
  const size_t lcols = left.num_columns();
  const size_t rcols = right.num_columns();
  if (out->num_columns() == 0) {
    for (size_t c = 0; c < lcols; ++c) {
      out->AddColumn(left.column_name(c), left.column(c).type());
    }
    for (size_t c = 0; c < rcols; ++c) {
      out->AddColumn(right.column_name(c), right.column(c).type());
    }
  }
  out->ClearRows();
  ParallelForEach(lcols + rcols, GatherThreads(count, num_threads),
                  [&](size_t c) {
                    if (column_mask != nullptr && (*column_mask)[c] == 0) {
                      return;
                    }
                    AppendPairColumn(left, lrows, right, rrows, count, c,
                                     &out->column(c));
                  });
  out->SetRowCount(count);
}

}  // namespace vdb::engine
