// Sample preparation (paper §3): builds uniform, hashed and stratified
// sample tables by issuing only standard SQL statements to the underlying
// database, and maintains them under data appends (Appendix D). The default
// per-table policy of Appendix F is implemented by CreateDefaultSamples.

#ifndef VDB_SAMPLING_SAMPLE_BUILDER_H_
#define VDB_SAMPLING_SAMPLE_BUILDER_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "driver/dialect.h"
#include "sampling/sample_catalog.h"
#include "sampling/sample_types.h"

namespace vdb::sampling {

/// Every sample is built and extended by SQL sent through the driver
/// connection; the dialect's syntax rules (e.g. Impala's rand() hoist) apply
/// to every statement that carries a membership predicate. Each sample type
/// has one membership predicate, shared by its build and by AppendData.
/// Contract: "Sample construction contract" in docs/INVARIANTS.md.
class SampleBuilder {
 public:
  SampleBuilder(driver::Connection* conn, SampleCatalog* catalog)
      : conn_(conn), catalog_(catalog) {}

  /// Bernoulli sample with probability tau; inclusion probability stored per
  /// tuple is exactly tau.
  Result<SampleInfo> CreateUniformSample(const std::string& base, double tau);

  /// Universe sample: keeps tuples whose hashed column value falls below
  /// tau; inclusion probability stored is the realized ratio |Ts|/|T|.
  Result<SampleInfo> CreateHashedSample(const std::string& base,
                                        const std::string& column, double tau);

  /// Probabilistic stratified sample on `columns` (§3.2): two passes, both
  /// plain SELECTs; per-stratum minimum m = |T| * tau / d with the staircase
  /// guarantee of Lemma 1.
  Result<SampleInfo> CreateStratifiedSample(
      const std::string& base, const std::vector<std::string>& columns,
      double tau);

  /// Appendix F default policy: a uniform sample plus hashed samples on
  /// high-cardinality columns and stratified samples on low-cardinality
  /// columns. `tau_override` > 0 replaces the 10M-row rule (useful at
  /// laptop scale).
  Result<std::vector<SampleInfo>> CreateDefaultSamples(
      const std::string& base, double tau_override = -1.0);

  /// Appendix D: appends `staging_table`'s rows to the base table and
  /// incrementally maintains every registered sample of it, reusing stored
  /// per-stratum probabilities (new strata keep all tuples).
  Status AppendData(const std::string& base, const std::string& staging_table);

  SampleCatalog* catalog() { return catalog_; }

 private:
  Result<int64_t> CountRows(const std::string& table);
  Result<std::vector<std::string>> BaseColumns(const std::string& table);
  std::string SampleName(const std::string& base, SampleType type,
                         const std::vector<std::string>& cols) const;
  /// Parses `sql` and sends it through Connection::ExecuteAst, so the
  /// dialect's syntax rules apply.
  Status ExecuteThroughDialect(const std::string& sql);

  driver::Connection* conn_;
  SampleCatalog* catalog_;
};

}  // namespace vdb::sampling

#endif  // VDB_SAMPLING_SAMPLE_BUILDER_H_
