// Sample-table taxonomy (paper §3.1) and metadata records.

#ifndef VDB_SAMPLING_SAMPLE_TYPES_H_
#define VDB_SAMPLING_SAMPLE_TYPES_H_

#include <cstdint>
#include <string>
#include <vector>

namespace vdb::sampling {

/// The column added to every sample table holding each tuple's inclusion
/// probability (the paper records sampling probabilities as an extra column).
inline constexpr const char* kProbColumn = "verdict_prob";

/// The materialized sample types, §3.1. (The paper's irregular samples arise
/// only at query time, from joining samples, and have no table.)
enum class SampleType { kUniform, kHashed, kStratified };

const char* SampleTypeName(SampleType t);
SampleType SampleTypeFromName(const std::string& name);

/// Metadata for one materialized sample table, persisted in the underlying
/// database's `verdictdb_metadata` table (§2.3).
struct SampleInfo {
  std::string sample_table;
  std::string base_table;
  SampleType type = SampleType::kUniform;
  /// Sampling parameter tau for uniform; the realized ratio |Ts|/|T| for
  /// hashed; I/O ratio estimate for stratified (sample_rows / base_rows).
  double ratio = 0.0;
  /// Hashed only: the tau of the membership predicate verdict_hash(C) < tau.
  /// The build and every AppendData apply this one cut-off, so the sample
  /// holds every row of each key below it, however the table grows.
  double hash_cutoff = 0.0;
  /// Column set C for hashed/stratified samples (empty for uniform).
  std::vector<std::string> columns;
  uint64_t base_rows = 0;
  uint64_t sample_rows = 0;
};

}  // namespace vdb::sampling

#endif  // VDB_SAMPLING_SAMPLE_TYPES_H_
