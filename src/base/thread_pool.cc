#include "base/thread_pool.h"

#include <atomic>
#include <exception>

namespace mondet {

namespace {

/// Set while the current thread is executing items for some job, so a
/// nested ParallelFor runs inline instead of re-entering the pool.
thread_local bool tls_in_pool_worker = false;

/// Sets tls_in_pool_worker for its lifetime and restores the previous
/// value on exit, including an exit by exception.
class InPoolScope {
 public:
  InPoolScope() : was_(tls_in_pool_worker) { tls_in_pool_worker = true; }
  ~InPoolScope() { tls_in_pool_worker = was_; }
  InPoolScope(const InPoolScope&) = delete;
  InPoolScope& operator=(const InPoolScope&) = delete;

 private:
  bool was_;
};

}  // namespace

/// One ParallelFor call: w shards over [0, n), each with an atomic claim
/// cursor. Workers (the caller plus parked pool threads) claim items from
/// their own shard first, then steal single items from the fullest other
/// shard. `active` counts threads still claiming; the caller waits for it
/// to reach zero — at that point every item has been claimed *and*
/// finished, because a worker only leaves after completing its claims.
///
/// The first item to throw sets `failed` and stores its exception in
/// `error`; from then on no worker claims another item, so `active` still
/// reaches zero once the running items return, and the caller rethrows
/// `error`. A worker that joins after the caller saw `active == 0` sees
/// `failed` through its acquiring increment of `active`, so it never calls
/// `fn` once the caller has returned.
struct ThreadPool::Job {
  const std::function<void(size_t, int)>* fn = nullptr;
  size_t n = 0;
  int shards = 0;
  std::unique_ptr<std::atomic<size_t>[]> head;  // next unclaimed, per shard
  std::vector<size_t> begin, end;               // shard bounds
  std::atomic<int> next_worker{1};  // worker ids handed to pool threads
  std::atomic<int> active{0};
  std::atomic<bool> failed{false};
  std::exception_ptr error;  // written once, by the thread that set failed
  std::mutex done_mu;
  std::condition_variable done_cv;

  Job(const std::function<void(size_t, int)>& f, size_t items, int w)
      : fn(&f), n(items), shards(w), head(new std::atomic<size_t>[w]),
        begin(w), end(w) {
    // Contiguous shards of near-equal size; shard i starts at the caller
    // (worker 0) so a no-steal run touches items in index order per shard.
    size_t base = items / w, rem = items % w;
    size_t at = 0;
    for (int i = 0; i < w; ++i) {
      begin[i] = at;
      at += base + (static_cast<size_t>(i) < rem ? 1 : 0);
      end[i] = at;
      head[i].store(begin[i], std::memory_order_relaxed);
    }
  }

  bool done() const {
    if (failed.load()) return true;
    for (int i = 0; i < shards; ++i) {
      if (head[i].load(std::memory_order_relaxed) < end[i]) return false;
    }
    return true;
  }
};

void ThreadPool::RunShards(Job& job, int worker) {
  InPoolScope in_pool;
  try {
    // Own shard first.
    while (!job.failed.load()) {
      size_t i = job.head[worker].fetch_add(1, std::memory_order_relaxed);
      if (i >= job.end[worker]) break;
      (*job.fn)(i, worker);
    }
    // Steal from the shard with the most remaining items until all
    // drained.
    while (!job.failed.load()) {
      int victim = -1;
      size_t most = 0;
      for (int s = 0; s < job.shards; ++s) {
        size_t h = job.head[s].load(std::memory_order_relaxed);
        if (h < job.end[s] && job.end[s] - h > most) {
          most = job.end[s] - h;
          victim = s;
        }
      }
      if (victim < 0) break;
      size_t i = job.head[victim].fetch_add(1, std::memory_order_relaxed);
      if (i < job.end[victim]) (*job.fn)(i, worker);
    }
  } catch (...) {
    bool first = false;
    if (job.failed.compare_exchange_strong(first, true)) {
      job.error = std::current_exception();
    }
  }
}

ThreadPool::ThreadPool(int num_threads) {
  threads_.reserve(num_threads > 0 ? num_threads : 0);
  for (int i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::shared_ptr<Job> job;
    int worker = -1;
    {
      std::unique_lock<std::mutex> lock(mu_);
      wake_.wait(lock, [&] { return stop_ || !jobs_.empty(); });
      if (stop_) return;
      job = jobs_.front();
      worker = job->next_worker.fetch_add(1, std::memory_order_relaxed);
      if (worker >= job->shards || job->done()) {
        // Fully staffed or drained: retire it and look again.
        for (size_t i = 0; i < jobs_.size(); ++i) {
          if (jobs_[i] == job) {
            jobs_.erase(jobs_.begin() + i);
            break;
          }
        }
        continue;
      }
      job->active.fetch_add(1, std::memory_order_acq_rel);
    }
    RunShards(*job, worker);
    if (job->active.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard<std::mutex> lock(job->done_mu);
      job->done_cv.notify_all();
    }
  }
}

void ThreadPool::ParallelFor(
    size_t n, int max_workers,
    const std::function<void(size_t item, int worker)>& fn) {
  if (n == 0) return;
  int w = max_workers;
  if (w > static_cast<int>(n)) w = static_cast<int>(n);
  if (w > num_threads() + 1) w = num_threads() + 1;
  if (w <= 1 || tls_in_pool_worker) {
    // Inline: no pool interaction (and no deadlock when called from a
    // worker). The worker id is 0 for every item, matching the contract.
    // An exception propagates directly; the scope still restores the flag.
    InPoolScope in_pool;
    for (size_t i = 0; i < n; ++i) fn(i, 0);
    return;
  }
  auto job = std::make_shared<Job>(fn, n, w);
  job->active.store(1, std::memory_order_relaxed);  // the caller
  {
    std::lock_guard<std::mutex> lock(mu_);
    jobs_.push_back(job);
  }
  wake_.notify_all();
  RunShards(*job, 0);
  if (job->active.fetch_sub(1, std::memory_order_acq_rel) > 1) {
    std::unique_lock<std::mutex> lock(job->done_mu);
    job->done_cv.wait(lock, [&] {
      return job->active.load(std::memory_order_acquire) == 0;
    });
  }
  {
    // Drop the job from the queue if no worker retired it yet.
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < jobs_.size(); ++i) {
      if (jobs_[i] == job) {
        jobs_.erase(jobs_.begin() + i);
        break;
      }
    }
  }
  // Move the exception out of the job: a pool thread may drop the last
  // reference to `job`, and the exception object's reference count lives
  // in the uninstrumented C++ runtime, so a release there would look to
  // ThreadSanitizer like a race with the caller's handler.
  if (std::exception_ptr error = std::move(job->error)) {
    std::rethrow_exception(error);
  }
}

ThreadPool& ThreadPool::Shared() {
  static ThreadPool* pool = [] {
    unsigned hw = std::thread::hardware_concurrency();
    int extra = hw > 1 ? static_cast<int>(hw) - 1 : 0;
    // Environments that report one core still get a small pool: callers
    // asking for N workers (MONDET_THREADS) should fan out on any machine
    // — correctness tests exercise 4-way runs on single-core CI.
    if (extra < 3) extra = 3;
    return new ThreadPool(extra);
  }();
  return *pool;
}

}  // namespace mondet
