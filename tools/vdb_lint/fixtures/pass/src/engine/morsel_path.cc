// Fixture counterpart to fail/src/engine/serial_fork.cc: thread counts that
// only size work (a fan-out thread count, an assignment, a shift, a count
// compared against another bound) do not fire, and a sizing decision
// acknowledged with allow() is counted as a suppression.

namespace vdb::engine {

int GatherThreads(size_t rows, int num_threads) {
  return rows >= 4096 ? num_threads : 1;
}

int Partitions(size_t rows, int num_threads) {
  int bits = 0;
  if (num_threads > 1 && rows > MorselRows()) {  // vdb-lint: allow(serial-fork) radix split sizing, not a second path
    bits = num_threads << 1;
  }
  return bits;
}

void Defaults(Options* opts) {
  opts->num_threads = 1;
  opts->max_threads = opts->num_threads > 8 ? 8 : opts->num_threads;
}

}  // namespace vdb::engine
