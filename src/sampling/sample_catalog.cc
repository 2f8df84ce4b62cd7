#include "sampling/sample_catalog.h"

#include <algorithm>
#include <cctype>
#include <sstream>

#include "sql/printer.h"

namespace vdb::sampling {

namespace {

std::string ToLower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

std::string JoinColumns(const std::vector<std::string>& cols) {
  std::string out;
  for (size_t i = 0; i < cols.size(); ++i) {
    if (i) out += ",";
    out += cols[i];
  }
  return out;
}

std::vector<std::string> SplitColumns(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

}  // namespace

const char* SampleTypeName(SampleType t) {
  switch (t) {
    case SampleType::kUniform: return "uniform";
    case SampleType::kHashed: return "hashed";
    case SampleType::kStratified: return "stratified";
  }
  return "?";
}

SampleType SampleTypeFromName(const std::string& name) {
  if (name == "hashed") return SampleType::kHashed;
  if (name == "stratified") return SampleType::kStratified;
  return SampleType::kUniform;
}

Status SampleCatalog::EnsureMetadataTable() {
  if (conn_->database()->catalog().HasTable(kMetadataTable)) {
    return Status::Ok();
  }
  std::string ddl = std::string("create table ") + kMetadataTable +
                    " as select '' as sample_table, '' as base_table,"
                    " '' as sample_type, 0.0 as ratio, 0.0 as hash_cutoff,"
                    " '' as column_set, 0 as base_rows, 0 as sample_rows"
                    " where false";
  auto r = conn_->Execute(ddl);
  if (!r.ok()) return r.status();
  return Status::Ok();
}

Status SampleCatalog::Register(const SampleInfo& info) {
  VDB_RETURN_IF_ERROR(EnsureMetadataTable());
  std::ostringstream sql;
  sql << "insert into " << kMetadataTable << " select '"
      << ToLower(info.sample_table) << "' as sample_table, '"
      << ToLower(info.base_table) << "' as base_table, '"
      << SampleTypeName(info.type) << "' as sample_type, "
      // Round-trip precision: AppendData re-applies the exact cut-off and
      // probability.
      << sql::PrintDouble(info.ratio) << " as ratio, "
      << sql::PrintDouble(info.hash_cutoff) << " as hash_cutoff, '"
      << ToLower(JoinColumns(info.columns))
      << "' as column_set, " << info.base_rows << " as base_rows, "
      << info.sample_rows << " as sample_rows";
  auto r = conn_->Execute(sql.str());
  if (!r.ok()) return r.status();
  return Status::Ok();
}

Status SampleCatalog::RewriteMetadata(const std::string& select) {
  const std::string tmp = std::string(kMetadataTable) + "_tmp";
  VDB_RETURN_IF_ERROR(conn_->Execute("drop table if exists " + tmp).status());
  VDB_RETURN_IF_ERROR(
      conn_->Execute("create table " + tmp + " as " + select).status());
  VDB_RETURN_IF_ERROR(
      conn_->Execute(std::string("drop table ") + kMetadataTable).status());
  VDB_RETURN_IF_ERROR(conn_->Execute("create table " +
                                     std::string(kMetadataTable) +
                                     " as select * from " + tmp)
                          .status());
  return conn_->Execute("drop table " + tmp).status();
}

Status SampleCatalog::Unregister(const std::string& sample_table) {
  VDB_RETURN_IF_ERROR(EnsureMetadataTable());
  // SQL-only deletion: rebuild the metadata table without the row.
  const std::string key = ToLower(sample_table);
  VDB_RETURN_IF_ERROR(RewriteMetadata(std::string("select * from ") +
                                      kMetadataTable +
                                      " where sample_table <> '" + key + "'"));
  return conn_->Execute("drop table if exists " + key).status();
}

Result<std::vector<SampleInfo>> SampleCatalog::SamplesFor(
    const std::string& base_table) {
  VDB_RETURN_IF_ERROR(EnsureMetadataTable());
  std::string sql = std::string("select * from ") + kMetadataTable;
  if (!base_table.empty()) {
    sql += " where base_table = '" + ToLower(base_table) + "'";
  }
  auto rs = conn_->ExecuteCached(sql);
  if (!rs.ok()) return rs.status();
  const auto& r = rs.value();
  if (r.table && r.table == decoded_table_) return decoded_;
  int c_sample = r.ColumnIndex("sample_table");
  int c_base = r.ColumnIndex("base_table");
  int c_type = r.ColumnIndex("sample_type");
  int c_ratio = r.ColumnIndex("ratio");
  int c_cutoff = r.ColumnIndex("hash_cutoff");
  int c_cols = r.ColumnIndex("column_set");
  int c_brows = r.ColumnIndex("base_rows");
  int c_srows = r.ColumnIndex("sample_rows");
  auto cell = [&r](size_t row, int col) {
    return r.Get(row, static_cast<size_t>(col));
  };
  std::vector<SampleInfo> out;
  for (size_t row = 0; row < r.NumRows(); ++row) {
    SampleInfo info;
    info.sample_table = cell(row, c_sample).AsString();
    info.base_table = cell(row, c_base).AsString();
    info.type = SampleTypeFromName(cell(row, c_type).AsString());
    info.ratio = cell(row, c_ratio).AsDouble();
    info.hash_cutoff = cell(row, c_cutoff).AsDouble();
    info.columns = SplitColumns(cell(row, c_cols).AsString());
    info.base_rows = static_cast<uint64_t>(cell(row, c_brows).AsInt());
    info.sample_rows = static_cast<uint64_t>(cell(row, c_srows).AsInt());
    out.push_back(std::move(info));
  }
  decoded_table_ = r.table;
  decoded_ = out;
  return out;
}

Status SampleCatalog::UpdateCounts(const std::vector<SampleCount>& counts) {
  VDB_RETURN_IF_ERROR(EnsureMetadataTable());
  if (counts.empty()) return Status::Ok();
  // One CASE arm per sample in each count column.
  std::ostringstream base_rows, sample_rows;
  for (const SampleCount& c : counts) {
    const std::string when =
        " when sample_table = '" + ToLower(c.sample_table) + "' then ";
    base_rows << when << c.base_rows;
    sample_rows << when << c.sample_rows;
  }
  return RewriteMetadata(
      "select sample_table, base_table, sample_type, ratio, hash_cutoff,"
      " column_set, case" +
      base_rows.str() + " else base_rows end as base_rows, case" +
      sample_rows.str() + " else sample_rows end as sample_rows from " +
      kMetadataTable);
}

}  // namespace vdb::sampling
