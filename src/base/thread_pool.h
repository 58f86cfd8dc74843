#ifndef MONDET_BASE_THREAD_POOL_H_
#define MONDET_BASE_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace mondet {

/// A work-stealing thread pool behind the semi-naive evaluator's fan-out
/// of per-round rule items. Threads are spawned once and parked between
/// jobs, so a caller that fans out thousands of small batches pays no
/// thread-creation cost per batch.
///
/// Scheduling model: ParallelFor(n, w, fn) splits [0, n) into w contiguous
/// shards, one per participating worker (the calling thread is always
/// worker 0). Each shard's items are claimed through an atomic cursor; a
/// worker that drains its own shard steals single items from the fullest
/// remaining shard. Every item therefore runs exactly once, on exactly one
/// worker, and callers that write results into per-item slots get
/// deterministic output regardless of how the items were interleaved.
///
/// Nesting: a ParallelFor issued from inside a pool worker runs inline on
/// that worker (no new fan-out), so nested parallel code cannot deadlock
/// the pool or oversubscribe the machine.
class ThreadPool {
 public:
  /// Spawns `num_threads` persistent worker threads (in addition to any
  /// caller that participates). 0 threads is valid: ParallelFor then runs
  /// everything inline on the caller.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(threads_.size()); }

  /// Runs fn(item, worker) for every item in [0, n), on up to
  /// `max_workers` workers (the caller plus at most max_workers - 1 pool
  /// threads); blocks until every item has finished. `worker` is a dense
  /// id in [0, max_workers) identifying which scratch slot the item may
  /// use; the same worker id is never active on two threads at once.
  ///
  /// If an item throws, no further item starts; ParallelFor waits for the
  /// items already running and then rethrows the first exception on the
  /// calling thread, whichever worker raised it.
  void ParallelFor(size_t n, int max_workers,
                   const std::function<void(size_t item, int worker)>& fn);

  /// The process-wide shared pool, sized on first use to
  /// hardware_concurrency() - 1 threads (the caller is the remaining
  /// worker). Never destroyed: the threads live for the process.
  static ThreadPool& Shared();

 private:
  struct Job;

  void WorkerLoop();
  /// Participates in `job` as the given worker id until no more items can
  /// be claimed; returns when the worker's contribution is done. Never
  /// throws: an item's exception is recorded in `job` instead.
  static void RunShards(Job& job, int worker);

  std::mutex mu_;
  std::condition_variable wake_;
  std::vector<std::shared_ptr<Job>> jobs_;  // active jobs, FIFO
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace mondet

#endif  // MONDET_BASE_THREAD_POOL_H_
