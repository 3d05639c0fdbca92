#include "src/util/executor.h"

#include <cstdlib>
#include <string>

#include "src/util/check.h"

namespace qhorn {

namespace {

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
  workers_.reserve(static_cast<size_t>(concurrency_ - 1));
  for (int i = 1; i < concurrency_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

Executor::~Executor() {
  {
    MutexLock lock(&mutex_);
    stop_ = true;
  }
  cv_.NotifyAll();
  for (std::thread& t : workers_) t.join();
  // The destructor contract is quiescence, not draining: owners (e.g.
  // SessionRouter::Drain) must retire their work first. Losing a queued
  // task silently would be a caller bug — fail loudly instead.
  MutexLock lock(&mutex_);
  QHORN_CHECK_MSG(tasks_.empty(), "Executor destroyed with tasks still queued");
}

void Executor::Post(std::function<void()> task) {
  QHORN_CHECK(task != nullptr);
  if (workers_.empty()) {
    // Inline fallback: a 1-lane executor is a synchronous one.
    RunTask(task);
    return;
  }
  {
    MutexLock lock(&mutex_);
    tasks_.push_back(std::move(task));
  }
  cv_.NotifyOne();
}

void Executor::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(&mutex_);
      while (!stop_ && tasks_.empty()) cv_.Wait(&mutex_);
      // Stopping: exit only once the queue is drained.
      if (tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    RunTask(task);
  }
}

}  // namespace qhorn
