// Clang thread-safety-analysis attribute macros (abseil/leveldb idiom).
//
// Under clang these expand to the TSA attributes that make
// `-Wthread-safety -Werror=thread-safety` a compile-time proof that every
// access to a QHORN_GUARDED_BY field happens under its mutex and every
// QHORN_REQUIRES helper is called with the right lock held. Under gcc (the
// default toolchain here) they expand to nothing — the annotations are
// pure documentation that the `clangtsa` CI preset turns back into errors.
//
// Use the annotated types from src/util/checked_mutex.h, never raw
// std::mutex (tools/lint_locks.py enforces this): the wrappers carry
// QHORN_CAPABILITY so the analysis sees through them, and in
// debug/sanitizer builds they feed the runtime lock-rank checker that
// covers the one property TSA cannot express — lock *ordering*
// (src/util/lock_ranks.h).

#ifndef QHORN_UTIL_THREAD_ANNOTATIONS_H_
#define QHORN_UTIL_THREAD_ANNOTATIONS_H_

#if defined(__clang__)
#define QHORN_THREAD_ANNOTATION_ATTRIBUTE__(x) __attribute__((x))
#else
#define QHORN_THREAD_ANNOTATION_ATTRIBUTE__(x)  // no-op
#endif

/// Marks a class as a lockable capability ("mutex").
#define QHORN_CAPABILITY(x) \
  QHORN_THREAD_ANNOTATION_ATTRIBUTE__(capability(x))

/// Marks an RAII class whose constructor acquires and destructor releases.
#define QHORN_SCOPED_CAPABILITY \
  QHORN_THREAD_ANNOTATION_ATTRIBUTE__(scoped_lockable)

/// Field may only be read or written while holding `x`.
#define QHORN_GUARDED_BY(x) \
  QHORN_THREAD_ANNOTATION_ATTRIBUTE__(guarded_by(x))

/// Pointer field whose *pointee* is protected by `x` (the pointer itself
/// may be read freely).
#define QHORN_PT_GUARDED_BY(x) \
  QHORN_THREAD_ANNOTATION_ATTRIBUTE__(pt_guarded_by(x))

/// Declares this mutex must be acquired before / after the named ones.
#define QHORN_ACQUIRED_BEFORE(...) \
  QHORN_THREAD_ANNOTATION_ATTRIBUTE__(acquired_before(__VA_ARGS__))
#define QHORN_ACQUIRED_AFTER(...) \
  QHORN_THREAD_ANNOTATION_ATTRIBUTE__(acquired_after(__VA_ARGS__))

/// Caller must hold the capability exclusively (e.g. `...Locked()`
/// helpers that touch QHORN_GUARDED_BY fields).
#define QHORN_REQUIRES(...) \
  QHORN_THREAD_ANNOTATION_ATTRIBUTE__(requires_capability(__VA_ARGS__))

/// Function acquires the capability and does not release it before
/// returning.
#define QHORN_ACQUIRE(...) \
  QHORN_THREAD_ANNOTATION_ATTRIBUTE__(acquire_capability(__VA_ARGS__))

/// Function releases the capability.
#define QHORN_RELEASE(...) \
  QHORN_THREAD_ANNOTATION_ATTRIBUTE__(release_capability(__VA_ARGS__))

/// Function attempts the acquisition; the bool result tells the analysis
/// whether it succeeded.
#define QHORN_TRY_ACQUIRE(...) \
  QHORN_THREAD_ANNOTATION_ATTRIBUTE__(try_acquire_capability(__VA_ARGS__))

/// Caller must NOT hold the capability (guards against self-deadlock on
/// non-recursive mutexes).
#define QHORN_EXCLUDES(...) \
  QHORN_THREAD_ANNOTATION_ATTRIBUTE__(locks_excluded(__VA_ARGS__))

/// Tells the analysis the capability is held without acquiring it
/// (runtime-verified assertions).
#define QHORN_ASSERT_CAPABILITY(x) \
  QHORN_THREAD_ANNOTATION_ATTRIBUTE__(assert_capability(x))

/// Function returns a reference to the named capability (accessor idiom).
#define QHORN_RETURN_CAPABILITY(x) \
  QHORN_THREAD_ANNOTATION_ATTRIBUTE__(lock_returned(x))

/// Opts a function out of the analysis. Every use must carry a written
/// justification — legitimate only for genuinely lock-free protocols
/// (Treiber stack push/pop, the awaiting/retired round atomics, fiber
/// stack switching) where the synchronization lives outside the mutex
/// model TSA reasons about.
#define QHORN_NO_TSA \
  QHORN_THREAD_ANNOTATION_ATTRIBUTE__(no_thread_safety_analysis)

#endif  // QHORN_UTIL_THREAD_ANNOTATIONS_H_
