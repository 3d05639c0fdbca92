// A small work-stealing thread pool: the session lanes of the service.
//
// One consumer, one primitive: SessionRouter multiplexes many sessions'
// jobs across the pool with Post (a ShardedRouter's shards share one
// pool). Rounds are evaluated inline on the lane that asks them; there is
// no intra-round parallelism.
//
// Design points:
//   * An Executor of concurrency c owns c-1 worker threads. Routers size
//     their pool one wider than their lane count, because the thread that
//     submits jobs sleeps in Drain() rather than running them.
//   * Each worker owns a deque: its own tasks pop LIFO (cache-warm),
//     other workers steal FIFO from the opposite end, and threads that are
//     not pool members inject into a shared queue.
//   * Concurrency 1 is the inline fallback: no threads are spawned and
//     Post invokes the task synchronously. A sequential build and a
//     1-thread pool behave identically, which the differential tests
//     exploit.
//
// DefaultConcurrency() — the lane count an Executor(0) gets — honours the
// QHORN_THREADS environment variable and falls back to
// std::thread::hardware_concurrency(). Pools are owned by their layer
// (the SessionRouter owns the service pool); there is deliberately no
// process-global pool.

#ifndef QHORN_UTIL_EXECUTOR_H_
#define QHORN_UTIL_EXECUTOR_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "src/util/checked_mutex.h"

namespace qhorn {

class Executor {
 public:
  /// Concurrency resolved from the QHORN_THREADS environment variable when
  /// set (clamped to [1, 256]), else std::thread::hardware_concurrency().
  static int DefaultConcurrency();

  /// `threads` ≤ 0 means DefaultConcurrency(). A pool of concurrency c
  /// spawns c-1 workers.
  explicit Executor(int threads = 0);
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Total lanes: the worker threads plus the posting thread.
  int concurrency() const { return concurrency_; }

  /// Enqueues `task` for asynchronous execution. At concurrency 1 the task
  /// runs inline before Post returns. Tasks must not leak exceptions onto
  /// their lane.
  void Post(std::function<void()> task);

  /// Statistics for tests and ServiceStats: tasks executed by a thread
  /// other than the one that posted/spawned them.
  int64_t steals() const { return steals_.load(std::memory_order_relaxed); }

 private:
  // Lock order (src/util/lock_ranks.h): sleep_mutex_ (kExecutorSleep) is
  // taken first — the wait predicates call HasPendingTask(), which walks
  // the queue mutexes (kExecutorQueue), while holding it. Tasks always
  // run with no executor lock held.
  struct WorkerQueue {
    Mutex mutex{"executor-queue", LockRank::kExecutorQueue};
    std::deque<std::function<void()>> tasks QHORN_GUARDED_BY(mutex);
  };

  void WorkerLoop(int index);
  /// Runs one pending task if any queue has one. Returns false when every
  /// queue was empty.
  bool RunOneTask(int self_index);
  bool PopTask(int self_index, std::function<void()>* task);
  bool HasPendingTask();

  int concurrency_ = 1;
  std::vector<std::unique_ptr<WorkerQueue>> queues_;  // one per worker
  WorkerQueue injection_;  // tasks posted from outside the pool
  std::vector<std::thread> workers_;
  Mutex sleep_mutex_{"executor-sleep", LockRank::kExecutorSleep};
  CondVar sleep_cv_;
  std::atomic<bool> stop_{false};
  std::atomic<int64_t> steals_{0};
};

}  // namespace qhorn

#endif  // QHORN_UTIL_EXECUTOR_H_
