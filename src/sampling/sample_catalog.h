// Sample metadata catalog, persisted inside the underlying database.
//
// The paper stores sample metadata "in a specific schema inside the database
// catalog" (§2.3); here it lives in a regular table named
// `verdictdb_metadata`, and all reads/writes go through SQL on the
// connection — the middleware keeps no authoritative state of its own.

#ifndef VDB_SAMPLING_SAMPLE_CATALOG_H_
#define VDB_SAMPLING_SAMPLE_CATALOG_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "driver/dialect.h"
#include "sampling/sample_types.h"

namespace vdb::sampling {

inline constexpr const char* kMetadataTable = "verdictdb_metadata";

class SampleCatalog {
 public:
  explicit SampleCatalog(driver::Connection* conn) : conn_(conn) {}

  /// Creates the metadata table if missing.
  Status EnsureMetadataTable();

  /// Records a sample (insert into verdictdb_metadata ...).
  Status Register(const SampleInfo& info);

  /// Removes the record and drops the sample table.
  Status Unregister(const std::string& sample_table);

  /// All samples of `base_table` (case-insensitive); empty base returns all.
  /// Reads through the connection's metadata memo (ExecuteCached), and a
  /// memo hit reuses the decoding of the result it last decoded.
  Result<std::vector<SampleInfo>> SamplesFor(const std::string& base_table);

  /// New row counts of one sample after an append.
  struct SampleCount {
    std::string sample_table;
    uint64_t sample_rows = 0;
    uint64_t base_rows = 0;
  };

  /// Updates sample_rows/base_rows of every listed sample in one rewrite of
  /// the metadata table.
  Status UpdateCounts(const std::vector<SampleCount>& counts);

 private:
  /// SQL-only rewrite of the metadata table: replaces it with the rows of
  /// `select` (a SELECT over the metadata table) through a temporary table.
  Status RewriteMetadata(const std::string& select);

  driver::Connection* conn_;
  /// The metadata result SamplesFor last decoded, held so its address
  /// cannot be reused, and its decoding.
  engine::TablePtr decoded_table_;
  std::vector<SampleInfo> decoded_;
};

}  // namespace vdb::sampling

#endif  // VDB_SAMPLING_SAMPLE_CATALOG_H_
