// Table catalog for one in-process database.

#ifndef VDB_ENGINE_CATALOG_H_
#define VDB_ENGINE_CATALOG_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/table.h"

namespace vdb::engine {

/// Name -> table map with case-insensitive names.
class Catalog {
 public:
  Status CreateTable(const std::string& name, TablePtr table);
  Status DropTable(const std::string& name, bool if_exists);
  /// nullptr if absent.
  TablePtr GetTable(const std::string& name) const;
  bool HasTable(const std::string& name) const;
  std::vector<std::string> ListTables() const;

  /// The write generation: moves after every table CreateTable adds,
  /// every table DropTable removes, and every MarkWritten. Whichever entry
  /// point made the change (SQL DDL, Database::RegisterTable, a direct
  /// catalog call), a result computed from the tables stays valid while
  /// this is unchanged ("Metadata memo contract", docs/INVARIANTS.md).
  uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }
  /// Reports rows written in place into a registered table (INSERT).
  void MarkWritten() { generation_.fetch_add(1, std::memory_order_acq_rel); }

 private:
  std::atomic<uint64_t> generation_{0};
  std::map<std::string, TablePtr> tables_;  // vdb-lint: allow(string-keyed-map) DDL-time table catalog, never touched per row
};

}  // namespace vdb::engine

#endif  // VDB_ENGINE_CATALOG_H_
