#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>

namespace vdb {

namespace {

constexpr size_t kDefaultMorselRows = 32768;
constexpr size_t kMaxWorkers = 64;

std::atomic<size_t> g_morsel_rows{kDefaultMorselRows};

/// True on threads currently executing morsels (workers, or the caller while
/// it participates). A ParallelFor issued from such a thread runs inline:
/// the pool handles one job at a time, so waiting for a second job from
/// inside the first would deadlock.
thread_local bool tls_in_parallel_region = false;

}  // namespace

size_t MorselRows() { return g_morsel_rows.load(std::memory_order_relaxed); }

void SetMorselRowsForTest(size_t rows) {
  g_morsel_rows.store(rows == 0 ? kDefaultMorselRows : rows,
                      std::memory_order_relaxed);
}

struct ThreadPool::Job {
  const std::function<void(size_t, size_t, size_t)>* body = nullptr;
  size_t total = 0;
  size_t morsel_rows = 0;
  size_t num_morsels = 0;
  std::atomic<size_t> next{0};       // next unclaimed morsel index
  std::atomic<size_t> completed{0};  // morsels whose body has returned
  int max_participants = 0;          // includes the caller
  // Guarded by the pool's mu_ by convention (a nested struct can't name the
  // owner's mutex in a GUARDED_BY, so this one contract stays prose): every
  // read and write of participants below happens inside a MutexLock block.
  int participants = 1;  // caller counts as one

  void RunMorsels() {
    for (;;) {
      const size_t m = next.fetch_add(1, std::memory_order_relaxed);
      if (m >= num_morsels) return;
      const size_t begin = m * morsel_rows;
      const size_t end = std::min(total, begin + morsel_rows);
      (*body)(m, begin, end);
      completed.fetch_add(1, std::memory_order_release);
    }
  }
};

ThreadPool& ThreadPool::Global() {
  // Leaked intentionally (like AggregateRegistry::Global) so worker shutdown
  // never races with static destruction order at exit.
  static ThreadPool* pool = new ThreadPool();
  return *pool;
}

ThreadPool::~ThreadPool() {
  std::vector<std::thread> workers;
  {
    MutexLock lock(mu_);
    stop_ = true;
    workers = std::move(workers_);
  }
  work_cv_.NotifyAll();
  for (auto& w : workers) w.join();
}

void ThreadPool::EnsureWorkersLocked(size_t n) {
  n = std::min(n, kMaxWorkers);
  while (workers_.size() < n) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

void ThreadPool::WorkerLoop() {
  tls_in_parallel_region = true;
  uint64_t seen_seq = 0;
  for (;;) {
    Job* job = nullptr;
    {
      MutexLock lock(mu_);
      while (!stop_ && (job_ == nullptr || job_seq_ == seen_seq ||
                        job_->participants >= job_->max_participants)) {
        work_cv_.Wait(lock);
      }
      if (stop_) return;
      job = job_;
      seen_seq = job_seq_;
      ++job->participants;
    }
    job->RunMorsels();
    {
      MutexLock lock(mu_);
      --job->participants;
    }
    done_cv_.NotifyAll();
  }
}

void ThreadPool::ParallelFor(
    size_t total, size_t morsel_rows, int max_threads,
    const std::function<void(size_t, size_t, size_t)>& body) {
  if (morsel_rows == 0) morsel_rows = 1;
  const size_t num_morsels = MorselCount(total, morsel_rows);

  // Serial shapes (or a nested call from a worker) run inline, in index
  // order — the same morsel decomposition, just one thread.
  if (max_threads <= 1 || num_morsels <= 1 || tls_in_parallel_region) {
    for (size_t m = 0; m < num_morsels; ++m) {
      body(m, m * morsel_rows, std::min(total, (m + 1) * morsel_rows));
    }
    return;
  }

  Job job;
  job.body = &body;
  job.total = total;
  job.morsel_rows = morsel_rows;
  job.num_morsels = num_morsels;
  job.max_participants =
      static_cast<int>(std::min<size_t>(static_cast<size_t>(max_threads),
                                        num_morsels));
  {
    MutexLock lock(mu_);
    EnsureWorkersLocked(static_cast<size_t>(job.max_participants - 1));
    // One published job at a time: a second concurrent caller waits for the
    // slot rather than clobbering a live job (which would strand it without
    // workers and clear it from under the other caller).
    while (job_ != nullptr) done_cv_.Wait(lock);
    job_ = &job;
    ++job_seq_;
  }
  work_cv_.NotifyAll();

  tls_in_parallel_region = true;
  job.RunMorsels();
  tls_in_parallel_region = false;

  {
    MutexLock lock(mu_);
    // The job lives on this stack frame: wait until every morsel has run AND
    // every worker has detached from the job before letting it go out of
    // scope. The mutex hand-off also publishes the workers' writes (slot
    // results) to the caller.
    while (job.completed.load(std::memory_order_acquire) != num_morsels ||
           job.participants != 1) {
      done_cv_.Wait(lock);
    }
    job_ = nullptr;
  }
  done_cv_.NotifyAll();  // wake any caller waiting to publish its job
}

Status ThreadPool::ParallelForStatus(
    size_t total, size_t morsel_rows, int max_threads, const ExecGuard* guard,
    const char* site,
    const std::function<Status(size_t, size_t, size_t)>& body) {
  if (morsel_rows == 0) morsel_rows = 1;
  const size_t num_morsels = MorselCount(total, morsel_rows);

  // Layered over ParallelFor rather than a second job protocol: the stop
  // token turns unclaimed morsels into no-ops, each morsel's Status lands in
  // its own slot (no cross-morsel writes), and ParallelFor's completion
  // hand-off publishes the slots to the caller.
  std::atomic<bool> stop{false};
  std::vector<Status> statuses(num_morsels);
  ParallelFor(total, morsel_rows, max_threads,
              [&](size_t m, size_t begin, size_t end) {
                if (stop.load(std::memory_order_relaxed)) return;
                Status st = GuardCheck(guard, site);
                if (st.ok()) st = body(m, begin, end);
                if (!st.ok()) {
                  statuses[m] = std::move(st);
                  stop.store(true, std::memory_order_relaxed);
                }
              });
  for (size_t m = 0; m < num_morsels; ++m) {
    if (!statuses[m].ok()) return statuses[m];
  }
  return Status::Ok();
}

}  // namespace vdb
