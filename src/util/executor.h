// A small work-stealing thread pool shared by the concurrent layers.
//
// Three consumers, one primitive:
//   * CompiledQuery::EvaluateAll shards large oracle rounds (ParallelFor),
//   * AsyncOracle runs its backend evaluation on the pool,
//   * SessionRouter multiplexes many sessions' jobs across it (Post).
//
// Design points:
//   * An Executor of concurrency c owns c-1 worker threads; the thread
//     that calls ParallelFor is the c-th lane, so a pool is never idle
//     while its creator spins.
//   * Each worker owns a deque: its own tasks pop LIFO (cache-warm),
//     other workers steal FIFO from the opposite end, and threads that are
//     not pool members inject into a shared queue.
//   * ParallelFor carves [0, n) into grain-aligned shards claimed off an
//     atomic cursor (the work-stealing analogue for loops: a fast shard
//     claims the next one, nobody waits on a static partition). The caller
//     claims shards too, and while waiting for helpers it drains other
//     pool tasks — a worker blocked in ParallelFor can never deadlock the
//     pool, even when every worker waits inside a nested loop at once.
//   * Concurrency 1 is the inline fallback: no threads are spawned,
//     ParallelFor runs the body in the caller, Post invokes the task
//     synchronously. A sequential build and a 1-thread pool behave
//     identically, which the differential tests exploit.
//
// DefaultConcurrency() — the lane count an Executor(0) gets — honours the
// QHORN_THREADS environment variable and falls back to
// std::thread::hardware_concurrency(). Pools are owned by their layer
// (the SessionRouter owns the service pool); there is deliberately no
// process-global pool.

#ifndef QHORN_UTIL_EXECUTOR_H_
#define QHORN_UTIL_EXECUTOR_H_

#include <atomic>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "src/util/checked_mutex.h"
#include "src/util/function_ref.h"

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

  /// Total lanes, counting the calling thread's ParallelFor participation.
  int concurrency() const { return concurrency_; }

  /// Enqueues `task` for asynchronous execution. At concurrency 1 the task
  /// runs inline before Post returns. Tasks must not leak exceptions onto
  /// their lane.
  void Post(std::function<void()> task);

  /// Invokes body(begin, end) over disjoint ranges covering [0, n), in
  /// parallel across the pool, and returns when all of [0, n) is done.
  /// Every range boundary except n itself is a multiple of `grain`, so a
  /// body writing bit-packed output can partition on 64-bit words by
  /// passing a grain of 64. Blocking: the calling thread both executes
  /// shards and drains unrelated pool tasks while it waits.
  void ParallelFor(size_t n, size_t grain, FunctionRef<void(size_t, size_t)> body);

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
  /// Runs one pending ParallelFor helper, if any. The only draining a
  /// ParallelFor waiter does: helpers are short bounded shard loops, so a
  /// waiter never absorbs a foreign Post()ed job (e.g. another session's
  /// entire learn) into its own round's latency.
  bool RunOneHelperTask();
  bool PopTask(int self_index, std::function<void()>* task);
  bool HasPendingTask();
  bool HasHelperTask();

  int concurrency_ = 1;
  std::vector<std::unique_ptr<WorkerQueue>> queues_;  // one per worker
  WorkerQueue injection_;  // tasks posted from outside the pool
  WorkerQueue helpers_;    // ParallelFor shard helpers (drained first)
  std::vector<std::thread> workers_;
  Mutex sleep_mutex_{"executor-sleep", LockRank::kExecutorSleep};
  CondVar sleep_cv_;
  std::atomic<bool> stop_{false};
  std::atomic<int64_t> steals_{0};
};

}  // namespace qhorn

#endif  // QHORN_UTIL_EXECUTOR_H_
