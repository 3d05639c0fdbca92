// A small thread pool with one FIFO task queue: the session lanes of the
// service.
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
//   * Every task goes through one mutex-guarded queue, run in post order
//     by whichever worker wakes first. Workers drain the queue before they
//     exit.
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

#include <cstdint>
#include <deque>
#include <functional>
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

  /// Always 0 (one shared queue steals nothing); kept because the
  /// end-to-end benchmark reports it.
  int64_t steals() const { return 0; }

 private:
  void WorkerLoop();

  int concurrency_ = 1;
  std::vector<std::thread> workers_;
  // Tasks always run with no executor lock held.
  Mutex mutex_{"executor", LockRank::kExecutor};
  CondVar cv_;
  std::deque<std::function<void()>> tasks_ QHORN_GUARDED_BY(mutex_);
  bool stop_ QHORN_GUARDED_BY(mutex_) = false;
};

}  // namespace qhorn

#endif  // QHORN_UTIL_EXECUTOR_H_
