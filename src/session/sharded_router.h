// ShardedRouter — N independent SessionRouter shards behind one facade.
//
// One SessionRouter serializes every protocol call on a single mutex —
// fine at 64 sessions, a wall at millions. The facade splits the session
// space across N shards, each a complete SessionRouter with its own mutex
// and session map, so protocol calls against different shards never touch
// a shared line. What *is* shared is deliberately the cheap-to-share part:
//
//   * one Executor: lanes are a machine-wide resource; every shard posts
//     its runner tasks to the same pool and its one task queue
//     (Options.threads is the TOTAL lane count, not per-shard).
//   * one CompiledQueryCache: a query compiled once is compiled once
//     service-wide. Only OpenSimulated touches it, once per open.
//
// One id space: the facade assigns each session its id (1, 2, … in open
// order, from one atomic counter), places id i on shard i % shards, and
// that shard stores the session under the same id i. Nothing is
// translated on the way down or back up, so at shards == 1 the facade is
// bit-identical to a bare SessionRouter (same ids, same rounds, same
// stats). A caller that assigns ids itself passes them to OpenPending:
// DurableRouter logs id i to WAL shard i % shards and opens it on router
// shard i % shards, so a durable commit on one WAL contends only with its
// own router shard.
//
// Determinism contract (inherited): a session's observable history depends
// only on its own job and answer sequence, never on which shard hosts it
// or how many shards exist. The facade adds no cross-shard coordination —
// Drain() drains shard by shard (jobs never create work on another
// shard), PendingRounds() merges per-shard polls, and stats() sums.
//
// Scaling model: throughput ≈ min(lanes, shards × per-shard capacity).
// Shards bound protocol-call parallelism (mutex acquisitions spread
// across N locks); lanes bound compute parallelism; pending sessions are
// bounded by memory alone (a parked session holds no lane on any shard).
//
// Lock order (enforced at runtime by the rank checker, src/util/
// lock_ranks.h): the facade itself holds no mutex — id assignment is one
// atomic counter — so the order through this layer is exactly one
// shard's: that shard's SessionRouter (kRouterShard) → its WAL shard
// (kWalShard) → the filesystem (kFaultFs/kFs). Same-rank nesting is
// forbidden, so no call path may hold two shard mutexes at once —
// cross-shard deadlock is structurally impossible, and a DurableRouter
// commit hook runs under exactly one shard mutex (asserted in
// SessionRouter::AcceptAnswers).

#ifndef QHORN_SESSION_SHARDED_ROUTER_H_
#define QHORN_SESSION_SHARDED_ROUTER_H_

#include <atomic>
#include <memory>
#include <optional>
#include <vector>

#include "src/session/router.h"

namespace qhorn {

/// Facade over N SessionRouter shards sharing one executor and one
/// compiled-query cache. Mirrors the SessionRouter protocol surface
/// method for method; every id-taking call is tolerant of garbage ids
/// (unknown session / false / nullopt, never a crash).
class ShardedRouter {
 public:
  using SessionId = SessionRouter::SessionId;
  using Job = SessionRouter::Job;
  using CommitHook = SessionRouter::CommitHook;

  struct Options {
    /// Router shards. 1 is the differential baseline (bit-identical to a
    /// bare SessionRouter, ids included); production wants a small
    /// multiple of the lane count.
    int shards = 4;
    /// TOTAL concurrent session lanes across all shards; ≤ 0 means
    /// Executor::DefaultConcurrency() (honours QHORN_THREADS). 1 degrades
    /// to synchronous in-caller execution — the differential baseline.
    int threads = 0;
    QuerySession::Options session;
  };

  ShardedRouter() : ShardedRouter(Options()) {}
  explicit ShardedRouter(Options options);
  /// Drains every shard, joins the shared executor, then destroys the
  /// shards — the canonical teardown order for borrowed executors (a
  /// shard must not unwind parked fibers while another shard's runner
  /// could still be in flight).
  ~ShardedRouter();

  ShardedRouter(const ShardedRouter&) = delete;
  ShardedRouter& operator=(const ShardedRouter&) = delete;

  /// Opens assign the next id and place the session on shard
  /// id % shards (placement does not affect observables; consecutive ids
  /// keep shards balanced).
  SessionId Open(int n, MembershipOracle* user);
  SessionId OpenSimulated(const Query& intended,
                          EvalOptions opts = EvalOptions());
  /// A positive `id` opens the session under that caller-assigned id
  /// instead (the durable layer's, already logged), on shard id % shards;
  /// 0 is returned, and nothing opened, if the id is taken. A caller that
  /// assigns ids assigns all of them: the facade's counter does not skip
  /// ids it did not hand out.
  SessionId OpenPending(int n, SessionId id = 0);

  bool Submit(SessionId id, Job job);
  bool SubmitLearn(SessionId id);
  bool SubmitVerify(SessionId id, Query candidate);
  bool SubmitRevise(SessionId id, Query candidate);

  /// Every shard's poll, merged and ordered by session id. Each shard's
  /// part is exact at the instant its mutex was held; shards are polled
  /// one after another, never under two shard mutexes at once.
  std::vector<PendingRound> PendingRounds();

  ProvideOutcome ProvideAnswers(SessionId id, int64_t round_id,
                                BitSpan answers);
  ProvideOutcome ProvideAnswers(SessionId id, int64_t round_id,
                                BitSpan answers, CommitHook commit);
  ProvideOutcome CorrectAnswer(SessionId id, size_t entry_index);

  /// The round the session is blocked on, if any.
  std::optional<PendingRound> pending_round(SessionId id);

  bool Close(SessionId id);
  std::optional<SessionStatus> status(SessionId id);
  int64_t suspensions(SessionId id);

  /// Blocks until no session on any shard can progress without input.
  /// One pass suffices: a job never creates work on another shard.
  void Drain();

  QuerySession& session(SessionId id);

  /// Aggregate counters summed across shards; the shared compiled-query
  /// cache is counted once (not once per shard). Requires no runnable
  /// job, like SessionRouter::stats().
  ServiceStats stats();

  /// Always kFiber; kept for callers that report the resume protocol.
  ResumeMode resume_mode() const { return ResumeMode::kFiber; }
  int shards() const { return static_cast<int>(shards_.size()); }
  int ShardOf(SessionId id) const {
    return static_cast<int>(id % static_cast<SessionId>(shards_.size()));
  }

  Executor* executor() { return executor_.get(); }
  CompiledQueryCache& compiled_cache() { return cache_; }

 private:
  /// The shard hosting `id`, or nullptr for ids no open can return (≤ 0).
  SessionRouter* Route(SessionId id);

  CompiledQueryCache cache_;
  std::unique_ptr<Executor> executor_;
  std::vector<std::unique_ptr<SessionRouter>> shards_;
  std::atomic<SessionId> next_id_{1};
};

}  // namespace qhorn

#endif  // QHORN_SESSION_SHARDED_ROUTER_H_
