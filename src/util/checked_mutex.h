// Annotated, rank-checked mutex types — the only lock primitives the tree
// is allowed to use (tools/lint_locks.py forbids raw std::mutex and
// friends everywhere outside this header).
//
// Two layers, one type:
//
//  * Compile time: every type carries the Clang thread-safety attributes
//    (QHORN_CAPABILITY / QHORN_SCOPED_CAPABILITY, acquire/release on the
//    methods), so under the `clangtsa` preset `-Wthread-safety
//    -Werror=thread-safety` proves QHORN_GUARDED_BY fields are only
//    touched under their mutex. Under gcc the attributes vanish and the
//    types are thin wrappers over std::mutex.
//
//  * Run time (debug/sanitizer builds): every mutex is constructed with a
//    name and a LockRank (src/util/lock_ranks.h). A thread-local
//    held-lock stack CHECK-fails — naming both locks and printing the
//    full held stack — on any same-or-lower-rank acquisition, recursive
//    acquisition, or mismatched release. This is the deadlock property
//    thread-safety analysis cannot express. The checker also exposes
//    HeldCountAtRank so SessionRouter can assert the PR 9 invariant that
//    a DurableRouter commit hook runs under exactly one shard mutex.
//
// The checker is compiled out when QHORN_LOCK_RANK_CHECKS is 0 (the
// release preset): Lock() collapses to mutex_.lock() and the
// BM_RouterContention gate pair is unaffected. CMake drives the macro —
// on for Debug and for any QHORN_SANITIZE build (note the tsan preset is
// RelWithDebInfo, so an NDEBUG test would wrongly disable it there) —
// with a !NDEBUG fallback for out-of-tree compiles.
//
// CondVar deliberately wraps std::condition_variable (not the slower
// condition_variable_any) leveldb-style, adopting the Mutex's native
// handle around the wait. Write waits as explicit loops at the call site
//
//   MutexLock lock(&mu);
//   while (!predicate_over_guarded_fields) cv.Wait(&mu);
//
// rather than passing a predicate lambda: the loop body is analyzed in
// the scope that visibly holds the lock, so TSA accepts the guarded
// reads without any annotation escape hatch.

#ifndef QHORN_UTIL_CHECKED_MUTEX_H_
#define QHORN_UTIL_CHECKED_MUTEX_H_

#include <condition_variable>
#include <mutex>

#include "src/util/lock_ranks.h"
#include "src/util/thread_annotations.h"

// Normally defined (0 or 1) on the command line by the root
// CMakeLists.txt; the fallback keeps the header self-contained for the
// negative-compile fixtures and any out-of-tree use.
#ifndef QHORN_LOCK_RANK_CHECKS
#ifdef NDEBUG
#define QHORN_LOCK_RANK_CHECKS 0
#else
#define QHORN_LOCK_RANK_CHECKS 1
#endif
#endif

namespace qhorn {

/// True when this build carries the runtime lock-rank checker. Tests use
/// it to skip death tests in release builds.
inline constexpr bool kLockRankChecksEnabled = QHORN_LOCK_RANK_CHECKS != 0;

/// The runtime rank checker: a per-thread stack of held locks. All
/// methods are static and thread-local-backed; in unchecked builds every
/// call inlines to nothing.
class LockRankChecker {
 public:
#if QHORN_LOCK_RANK_CHECKS
  /// Records an acquisition about to happen. CHECK-fails (before the
  /// would-be deadlock blocks) on recursive acquisition or on a rank not
  /// strictly greater than the top of the held stack.
  static void NoteAcquire(const void* lock, const char* name, LockRank rank);
  /// Records a release. CHECK-fails when `lock` is not held.
  static void NoteRelease(const void* lock, const char* name);
  /// Number of checked locks this thread currently holds.
  static int HeldCount();
  /// Number of held locks at exactly `rank`.
  static int HeldCountAtRank(LockRank rank);
  /// CHECK-fails unless this thread holds zero checked locks. Used at
  /// points that must never run under a lock: executor task entry (a
  /// Post under a lock deadlocks at concurrency 1, where tasks run
  /// inline) and fiber parks (a parked lock would be held across an
  /// unbounded user round trip).
  static void AssertNoneHeld(const char* where);
  /// CHECK-fails unless exactly `expected` locks of `rank` are held —
  /// the DurableRouter commit-hook invariant (exactly one shard mutex).
  static void AssertHeldCountAtRank(LockRank rank, int expected,
                                    const char* where);
#else
  static void NoteAcquire(const void*, const char*, LockRank) {}
  static void NoteRelease(const void*, const char*) {}
  static int HeldCount() { return 0; }
  static int HeldCountAtRank(LockRank) { return 0; }
  static void AssertNoneHeld(const char*) {}
  static void AssertHeldCountAtRank(LockRank, int, const char*) {}
#endif
};

/// Annotated, rank-checked drop-in for std::mutex.
class QHORN_CAPABILITY("mutex") Mutex {
 public:
  /// `name` must outlive the mutex (string literals in practice).
  Mutex(const char* name, LockRank rank) : name_(name), rank_(rank) {}

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() QHORN_ACQUIRE() {
    // Note before blocking: a rank violation aborts with both lock names
    // instead of deadlocking silently.
    LockRankChecker::NoteAcquire(this, name_, rank_);
    mutex_.lock();
  }

  void Unlock() QHORN_RELEASE() {
    LockRankChecker::NoteRelease(this, name_);
    mutex_.unlock();
  }

  bool TryLock() QHORN_TRY_ACQUIRE(true) {
    if (!mutex_.try_lock()) return false;
    LockRankChecker::NoteAcquire(this, name_, rank_);
    return true;
  }

  const char* name() const { return name_; }
  LockRank rank() const { return rank_; }

 private:
  friend class CondVar;
  std::mutex mutex_;
  const char* const name_;
  const LockRank rank_;
};

/// RAII exclusive lock over Mutex (abseil MutexLock idiom: pointer
/// argument, no unlock/relock surface).
class QHORN_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) QHORN_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() QHORN_RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

/// Condition variable bound to qhorn::Mutex. Wraps
/// std::condition_variable (not condition_variable_any) by adopting the
/// mutex's native handle around the wait, leveldb-style — same generated
/// code as the raw primitive on the hot paths the BM_RouterContention
/// gate watches. The held-lock entry intentionally stays on the rank
/// stack across the wait: the thread is blocked, and on wake it holds
/// the mutex again.
class CondVar {
 public:
  CondVar() = default;

  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `*mu`, waits, and reacquires it. Spurious
  /// wakeups happen; always wait in a predicate loop.
  void Wait(Mutex* mu) QHORN_REQUIRES(mu) {
    std::unique_lock<std::mutex> inner(mu->mutex_, std::adopt_lock);
    cv_.wait(inner);
    inner.release();
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace qhorn

#endif  // QHORN_UTIL_CHECKED_MUTEX_H_
