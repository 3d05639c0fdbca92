// DurableRouter — a write-ahead-logged wrapper over SessionRouter whose
// sessions survive process death.
//
// Protocol calls are logged *before* they are acknowledged:
//
//   OpenPending(spec)        → SessionOpened{id, spec} appended, then the
//                              session opens and its job plan submits;
//   ProvideAnswers(id, r, a) → RoundAnswered{id, r, a} appended from
//                              inside the router's commit hook — after
//                              every validation has passed, before any
//                              state mutates, atomically with the fold
//                              under the router lock. A refused append
//                              surfaces as kLogWriteFailed with the
//                              session untouched;
//   Close(id)                → SessionClosed{id} appended from inside
//                              the router's commit hook, the same way:
//                              a close the router would refuse (unknown
//                              or already-closed id) is never logged.
//
// Sessions are deterministic functions of (spec, answer sequence)
// (router.h's determinism contract), so the log needs no checkpoints:
// Recover() re-opens every logged session, resubmits its job plan, and
// feeds the logged answers back through the ordinary pending protocol.
// After recovery the service is *observably identical* to one that never
// crashed — same pending rounds, same round ids, same transcripts — which
// the crash harness (crash_harness.h) enforces differentially against a
// synchronous reference arm.
//
// Session ids: the wrapper assigns each session its id (1, 2, … in open
// order), logs it in SessionOpened, and opens the router session under
// that same id; recovery reopens every logged session under its logged
// id. One id space from the log down to the router's shards: users outlive
// server crashes, and their session handles do too. Assignment holds the
// wrapper's mutex across the SessionOpened append, so two concurrent
// opens never log one id and a refused append consumes none; opens
// serialize on that append, answers and closes never touch the mutex.
//
// The log is sharded (shard = id mod shards) so concurrent sessions'
// answers and closes do not serialize on one append mutex; a session's
// records stay in one shard, totally ordered by round id, so recovery
// never needs an order across shards.

#ifndef QHORN_DURABLE_DURABLE_ROUTER_H_
#define QHORN_DURABLE_DURABLE_ROUTER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/durable/fs.h"
#include "src/durable/session_log.h"
#include "src/session/router.h"
#include "src/util/checked_mutex.h"
#include "src/workload/workload.h"

namespace qhorn {

struct DurableRouterOptions {
  /// Lanes and session options of the in-memory router. `router.shards`
  /// is not read: `shards` below is copied over it.
  SessionRouter::Options router;
  SessionLogOptions log;  ///< kEveryAppend = full log-before-ack durability
  /// WAL shards *and* router shards: the in-memory SessionRouter gets the
  /// same count, and session id i lives on WAL shard i mod shards and on
  /// router shard i mod shards, so a commit hook on one WAL only ever
  /// holds that one router shard's mutex.
  int shards = 4;
};

/// What Recover found and did — the loud part of crash recovery. Tests
/// assert on these counters (a truncated torn tail must be *reported*
/// truncated, not silently absorbed).
struct RecoveryReport {
  int64_t records_read = 0;
  int64_t sessions_recovered = 0;  ///< opened sessions re-created
  int64_t sessions_closed = 0;     ///< … of which the log says were closed
  int64_t rounds_replayed = 0;
  int64_t duplicate_records_skipped = 0;  ///< retry-after-sync-failure echoes
  int64_t torn_tails_truncated = 0;       ///< shards chopped at valid_bytes
  int64_t torn_bytes_dropped = 0;
};

class DurableRouter {
 public:
  using SessionId = SessionRouter::SessionId;

  /// Starts a fresh service over an empty (or absent) log directory.
  /// nullptr + `*error` if the directory or a shard cannot be created.
  static std::unique_ptr<DurableRouter> Create(
      Fs* fs, const std::string& log_dir, const DurableRouterOptions& options,
      std::string* error);

  /// Rebuilds the service from `log_dir` after a crash: scans every
  /// shard, truncates torn tails (loudly, via `report`), rejects corrupt
  /// or undecodable records with a typed error, re-opens every logged
  /// session and replays its answered rounds through the ordinary pending
  /// protocol. nullptr + `*error` on any typed failure — a log Recover
  /// cannot vouch for is never half-replayed. `options.shards` must be the
  /// count the log was written with: a shard file past it, or a record
  /// outside shard id % shards, is refused.
  static std::unique_ptr<DurableRouter> Recover(
      Fs* fs, const std::string& log_dir, const DurableRouterOptions& options,
      RecoveryReport* report, std::string* error);

  ~DurableRouter();

  DurableRouter(const DurableRouter&) = delete;
  DurableRouter& operator=(const DurableRouter&) = delete;

  /// Logs SessionOpened, then opens the session and submits the spec's
  /// job plan. 0 (never a valid id) if the spec is not one the router can
  /// run (IsValidSessionSpec; nothing is logged) or the log refused the
  /// record — the call is retryable and id assignment is unaffected.
  SessionId OpenPending(const SessionSpec& spec);

  /// SessionRouter::ProvideAnswers semantics plus kLogWriteFailed when
  /// the round's log record could not be committed; the session — pending
  /// round included — is untouched and the identical call may be retried
  /// (after recovery if the log is poisoned; a duplicate record from a
  /// sync-failure retry is skipped idempotently by Recover).
  ProvideOutcome ProvideAnswers(SessionId id, int64_t round_id,
                                BitSpan answers);

  /// Logs SessionClosed, then closes. False — and nothing logged — if the
  /// id is unknown or the session is already closed; false with the
  /// session still open if the close record could not be committed
  /// (retryable; recovery skips the duplicate close a retry after a sync
  /// failure can leave).
  bool Close(SessionId id);

  /// Pending rounds, ordered by session id.
  std::vector<PendingRound> PendingRounds();

  void Drain();
  std::optional<SessionStatus> status(SessionId id);
  QuerySession& session(SessionId id);
  ServiceStats stats();

  /// Records appended across all shards (tests assert log growth).
  int64_t records_logged() const;

  /// Read-only: every mutation goes through the logged calls above.
  const SessionRouter& router() const { return router_; }

  static std::string ShardPath(const std::string& log_dir, int shard);

 private:
  DurableRouter(Fs* fs, std::string log_dir, DurableRouterOptions options);

  bool OpenLogs(std::string* error);
  SessionLog* ShardFor(SessionId id);

  Fs* fs_;
  std::string log_dir_;
  DurableRouterOptions options_;
  SessionRouter router_;
  std::vector<std::unique_ptr<SessionLog>> shards_;

  // Guards id assignment only: held across the SessionOpened append (rank
  // kDurableRouter < kWalShard), released before calling into router_.
  Mutex mutex_{"durable-router", LockRank::kDurableRouter};
  SessionId next_id_ QHORN_GUARDED_BY(mutex_) = 1;
};

}  // namespace qhorn

#endif  // QHORN_DURABLE_DURABLE_ROUTER_H_
