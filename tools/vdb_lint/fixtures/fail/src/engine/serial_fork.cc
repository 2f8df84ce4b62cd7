// Fixture: serial-fork must fire on each caller-side comparison of a thread
// count against 1 — plain, reversed, and through an accessor.
#include <vector>

namespace vdb::engine {

Status Scan(const RowView& view, int num_threads, SelVector* out) {
  if (num_threads <= 1 || view.num_rows() <= MorselRows()) {  // fires
    return EvalWhole(view, out);
  }
  return EvalMorsels(view, num_threads, out);
}

void Gather(const Table& src, const SelVector& sel, int max_threads) {
  if (1 < max_threads) {  // fires
    GatherColumns(src, sel, max_threads);
  }
}

bool Parallel(const Database* db) { return db->num_threads() != 1; }  // fires

}  // namespace vdb::engine
