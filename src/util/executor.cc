#include "src/util/executor.h"

#include <cstdlib>
#include <string>

#include "src/util/check.h"

namespace qhorn {

namespace {

/// Identity of the worker loop running on this thread, if any. Workers of
/// distinct executors never nest on one thread, so one pair of
/// thread-locals (owning executor + index) is enough.
thread_local const Executor* tls_executor = nullptr;
thread_local int tls_worker_index = -1;

/// Runs a pool task.
void RunTask(const std::function<void()>& task) {
  // Tasks must start with no checked locks held: Post() under a lock
  // deadlocks at concurrency 1 (where tasks run inline in the caller),
  // and on a worker lane a held lock could only be a leak from a previous
  // task. Rank ordering alone cannot catch the inline case — no executor
  // mutex is touched on that path — so assert it here.
  LockRankChecker::AssertNoneHeld("an executor task");
  task();
}

}  // namespace

int Executor::DefaultConcurrency() {
  if (const char* env = std::getenv("QHORN_THREADS")) {
    char* end = nullptr;
    long parsed = std::strtol(env, &end, 10);
    if (end != env && parsed >= 1) {
      return static_cast<int>(parsed > 256 ? 256 : parsed);
    }
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

Executor::Executor(int threads) {
  concurrency_ = threads <= 0 ? DefaultConcurrency() : threads;
  int workers = concurrency_ - 1;
  queues_.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
  workers_.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

Executor::~Executor() {
  {
    // stop_ flips under sleep_mutex_ so a worker checking the wait
    // predicate cannot miss it.
    MutexLock lock(&sleep_mutex_);
    stop_.store(true, std::memory_order_release);
  }
  sleep_cv_.NotifyAll();
  for (std::thread& t : workers_) t.join();
  // The destructor contract is quiescence, not draining: owners (e.g.
  // SessionRouter::Drain) must retire their work first. Losing a queued
  // task silently would be a caller bug — fail loudly instead.
  QHORN_CHECK_MSG(!HasPendingTask(),
                  "Executor destroyed with tasks still queued");
}

void Executor::Post(std::function<void()> task) {
  QHORN_CHECK(task != nullptr);
  if (workers_.empty()) {
    // Inline fallback: a 1-lane executor is a synchronous one.
    RunTask(task);
    return;
  }
  WorkerQueue* queue = &injection_;
  if (tls_executor == this && tls_worker_index >= 0) {
    queue = queues_[static_cast<size_t>(tls_worker_index)].get();
  }
  {
    MutexLock lock(&queue->mutex);
    queue->tasks.push_back(std::move(task));
  }
  // The empty lock pairs the enqueue with any waiter that checked the
  // queues just before it; the notify then cannot be lost.
  { MutexLock lock(&sleep_mutex_); }
  sleep_cv_.NotifyAll();
}

bool Executor::HasPendingTask() {
  {
    MutexLock lock(&injection_.mutex);
    if (!injection_.tasks.empty()) return true;
  }
  for (const auto& q : queues_) {
    MutexLock lock(&q->mutex);
    if (!q->tasks.empty()) return true;
  }
  return false;
}

bool Executor::PopTask(int self_index, std::function<void()>* task) {
  if (queues_.empty()) return false;
  // The own deque first (LIFO: the task most likely still in cache)…
  if (self_index >= 0) {
    WorkerQueue* own = queues_[static_cast<size_t>(self_index)].get();
    MutexLock lock(&own->mutex);
    if (!own->tasks.empty()) {
      *task = std::move(own->tasks.back());
      own->tasks.pop_back();
      return true;
    }
  }
  // …then the injection queue, then steal FIFO from the other workers.
  {
    MutexLock lock(&injection_.mutex);
    if (!injection_.tasks.empty()) {
      *task = std::move(injection_.tasks.front());
      injection_.tasks.pop_front();
      return true;
    }
  }
  size_t base = static_cast<size_t>(self_index < 0 ? 0 : self_index);
  for (size_t off = 1; off <= queues_.size(); ++off) {
    size_t victim = (base + off) % queues_.size();
    if (static_cast<int>(victim) == self_index) continue;
    WorkerQueue* q = queues_[victim].get();
    MutexLock lock(&q->mutex);
    if (!q->tasks.empty()) {
      *task = std::move(q->tasks.front());
      q->tasks.pop_front();
      steals_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
  return false;
}

bool Executor::RunOneTask(int self_index) {
  std::function<void()> task;
  if (!PopTask(self_index, &task)) return false;
  RunTask(task);
  return true;
}

void Executor::WorkerLoop(int index) {
  tls_executor = this;
  tls_worker_index = index;
  while (true) {
    if (RunOneTask(index)) continue;
    bool stopping;
    {
      MutexLock lock(&sleep_mutex_);
      while (!stop_.load(std::memory_order_acquire) && !HasPendingTask()) {
        sleep_cv_.Wait(&sleep_mutex_);
      }
      stopping = stop_.load(std::memory_order_acquire);
    }
    if (stopping) break;
  }
  tls_executor = nullptr;
  tls_worker_index = -1;
}

}  // namespace qhorn
