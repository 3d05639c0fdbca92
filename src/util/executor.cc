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
    MutexLock lock(&helpers_.mutex);
    if (!helpers_.tasks.empty()) return true;
  }
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

bool Executor::HasHelperTask() {
  MutexLock lock(&helpers_.mutex);
  return !helpers_.tasks.empty();
}

bool Executor::RunOneHelperTask() {
  std::function<void()> task;
  {
    MutexLock lock(&helpers_.mutex);
    if (helpers_.tasks.empty()) return false;
    task = std::move(helpers_.tasks.front());
    helpers_.tasks.pop_front();
  }
  RunTask(task);
  { MutexLock lock(&sleep_mutex_); }
  sleep_cv_.NotifyAll();
  return true;
}

bool Executor::PopTask(int self_index, std::function<void()>* task) {
  if (queues_.empty()) return false;
  // Shard helpers first: some lane is blocked in a ParallelFor until they
  // retire, so they gate the pool's tail latency.
  {
    MutexLock lock(&helpers_.mutex);
    if (!helpers_.tasks.empty()) {
      *task = std::move(helpers_.tasks.front());
      helpers_.tasks.pop_front();
      return true;
    }
  }
  // …then the own deque (LIFO: the task most likely still in cache)…
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
  // Completion may unblock a ParallelFor waiter (they sleep on the same
  // condition variable as idle workers).
  { MutexLock lock(&sleep_mutex_); }
  sleep_cv_.NotifyAll();
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

void Executor::ParallelFor(size_t n, size_t grain,
                           FunctionRef<void(size_t, size_t)> body) {
  if (n == 0) return;
  QHORN_CHECK(grain >= 1);
  size_t lanes = static_cast<size_t>(concurrency_);
  size_t shards = (n + grain - 1) / grain;
  if (workers_.empty() || shards <= 1) {
    body(0, n);
    return;
  }
  // Shard size: grain-aligned, aiming for ~4 shards per lane so a slow
  // lane sheds work to fast ones (the loop analogue of stealing).
  size_t target = lanes * 4;
  size_t step = ((shards + target - 1) / target) * grain;
  size_t chunks = (n + step - 1) / step;
  size_t helper_count = lanes - 1;
  if (helper_count > chunks - 1) helper_count = chunks - 1;

  struct LoopState {
    std::atomic<size_t> next{0};
    std::atomic<size_t> helpers_done{0};
  };
  auto state = std::make_shared<LoopState>();
  auto run_chunks = [state, n, step, chunks, body] {
    // `body` is a FunctionRef into the caller's frame; ParallelFor cannot
    // return before helpers_done reaches helper_count, so the reference
    // stays valid for every chunk execution.
    size_t i;
    while ((i = state->next.fetch_add(1, std::memory_order_relaxed)) < chunks) {
      size_t begin = i * step;
      size_t end = begin + step < n ? begin + step : n;
      body(begin, end);
    }
  };
  for (size_t h = 0; h < helper_count; ++h) {
    {
      MutexLock lock(&helpers_.mutex);
      helpers_.tasks.push_back([state, run_chunks] {
        run_chunks();
        state->helpers_done.fetch_add(1, std::memory_order_release);
      });
    }
    { MutexLock lock(&sleep_mutex_); }
    sleep_cv_.NotifyAll();
  }
  run_chunks();
  // All chunks are claimed (possibly all by this thread). Wait for the
  // helper tasks to retire — and keep draining *helper* tasks while
  // waiting (never foreign Post()ed jobs, which would splice their whole
  // latency into this round), so nested ParallelFor calls from every
  // worker at once cannot deadlock the pool: every blocked waiter is
  // itself a consumer of the queue its progress depends on.
  while (state->helpers_done.load(std::memory_order_acquire) < helper_count) {
    if (RunOneHelperTask()) continue;
    MutexLock lock(&sleep_mutex_);
    while (state->helpers_done.load(std::memory_order_acquire) <
               helper_count &&
           !HasHelperTask()) {
      sleep_cv_.Wait(&sleep_mutex_);
    }
  }
}

}  // namespace qhorn
