#include "engine/catalog.h"

#include <algorithm>
#include <cctype>

namespace vdb::engine {

namespace {
std::string ToLower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}
}  // namespace

Status Catalog::CreateTable(const std::string& name, TablePtr table) {
  std::string key = ToLower(name);
  if (tables_.count(key)) {
    return Status::AlreadyExists("table already exists: " + name);
  }
  tables_[key] = std::move(table);
  MarkWritten();
  return Status::Ok();
}

Status Catalog::DropTable(const std::string& name, bool if_exists) {
  std::string key = ToLower(name);
  auto it = tables_.find(key);
  if (it == tables_.end()) {
    if (if_exists) return Status::Ok();
    return Status::NotFound("no such table: " + name);
  }
  tables_.erase(it);
  MarkWritten();
  return Status::Ok();
}

TablePtr Catalog::GetTable(const std::string& name) const {
  auto it = tables_.find(ToLower(name));
  return it == tables_.end() ? nullptr : it->second;
}

bool Catalog::HasTable(const std::string& name) const {
  return tables_.count(ToLower(name)) > 0;
}

std::vector<std::string> Catalog::ListTables() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [k, v] : tables_) names.push_back(k);
  return names;
}

}  // namespace vdb::engine
