// SessionRouter — the multi-session service layer over QuerySession.
//
// The paper's workflow is one interactive user per learner; the service
// target is heavy traffic from many concurrent users. The router owns the
// executor and multiplexes N live sessions across it:
//
//   * Each session keeps its own question stack (question store →
//     [replay] → user backend), so per-user state never crosses threads.
//   * Jobs against one session run strictly in submission order, one at a
//     time (QuerySession is not thread-safe and the learning protocol is
//     inherently sequential per user); jobs of different sessions run in
//     parallel on the executor's workers.
//   * Simulated users opened through OpenSimulated share compiled queries
//     via a cache keyed by canonical form (Proposition 4.1: equal forms ⇒
//     identical answers), so a thousand sessions against a hundred target
//     queries compile each query once. Their QueryOracle backends share
//     the compiled form and evaluate each round inline on the session's
//     lane.
//
// Shards: the session space is split across Options::shards shards, each
// with its own mutex, session map, runnable-job count and counters.
// Session id i lives on shard i % shards under id i itself, and every
// id-taking call locks only that shard, so protocol calls against
// different shards never touch a shared lock. Shared across the shards,
// deliberately the cheap-to-share part: one Executor (Options.threads is
// the total lane count), one CompiledQueryCache (a query compiled once is
// compiled once service-wide; only OpenSimulated touches it, once per
// open) and one atomic id counter. Drain(), PendingRounds() and stats()
// walk the shards one after another; a job never creates work on another
// shard, so one pass suffices. Observables never depend on the shard
// count — that is the differential the shard suites and the fuzz sweep
// pin.
//
// Counters: the runner folds a session's question, round, store-hit and
// replay counters into its shard's totals wherever it folds completed
// jobs (a job's completion, and a park), as deltas against what it folded
// last. stats() therefore sums per-shard fields only, under each shard's
// mutex, and is legal at any time — with jobs in flight it reports each
// running session as of its last fold.
//
// Scaling model: throughput ≈ min(lanes, shards × per-shard capacity).
// Shards bound protocol-call parallelism (mutex acquisitions spread
// across N locks); lanes bound compute parallelism; pending sessions are
// bounded by memory alone (a parked session holds no lane).
//
// Lock order (enforced at runtime by the rank checker, src/util/
// lock_ranks.h): a protocol call holds at most one shard mutex
// (kRouterShard) → that session's WAL shard (kWalShard, from a
// DurableRouter commit hook) → the filesystem (kFaultFs/kFs). Same-rank
// nesting is forbidden, so no path may hold two shard mutexes at once —
// cross-shard deadlock is structurally impossible, and a commit hook runs
// under exactly one shard mutex (asserted where the hooks run). Id
// assignment is one atomic counter and takes no lock.
//
// One runner: every session keeps the jobs submitted to it in one log, and
// one runner task (RunSession) runs that log from its completion cursor.
// A direct session (Open, OpenSimulated) runs the log inline on its lane.
//
// Pending-round continuations (OpenPending): a *real* user answers with
// seconds-to-minutes latency, so a session blocked on one must not pin a
// lane. Its runner runs the same job loop on a Fiber (src/util/fiber.h)
// over a PendingOracle wait-site: a round that needs the user *parks* —
// the call stack stays alive on its own mmap'd stack and the lane is
// released, so sessions blocked on users occupy no threads. The runner
// then publishes the round (Shard::Park stamps its session and round ids)
// under the shard mutex. The embedding server polls PendingRounds() and
// calls ProvideAnswers(id, round_id, answers), which stages the bits at
// the wait-site; the router switches back into the exact frame that
// asked: O(1) compute per resume, nothing re-run and nothing replayed. The
// price is the parked stack, trimmed below the parked frame and reported
// as the session's snapshot_bytes while it awaits.
//
// Restarts: a correction (CorrectAnswer) cannot resume a stack built over
// the old answer. It records the answer's index; the lane running the
// restart unwinds the parked stack (cancel + one last resume) and rebuilds
// the question stack with the corrected prefix, taken from the session's own
// record of its answers, replayed at the user boundary
// (QuerySession::ResetWithUserReplay). The router keeps no copy of them.
// Learners are deterministic functions of the transcript, so the restart
// reaches the next live round without asking anything twice. Crash
// recovery (DurableRouter) re-opens each session and feeds the logged
// answers back through ProvideAnswers.
//
// Determinism contract (unchanged by continuations and shards): a
// session's observable history depends only on its own job sequence and
// answer sequence, never on scheduling, on which shard hosts it or on how
// often it suspended — after the final resume, per-session transcripts,
// statistics and learned queries are bit-identical to a fully synchronous
// single-threaded run of the same jobs over the same answers
// (tests/service_router_test.cc, tests/router_shard_test.cc and
// tests/continuation_stress_test.cc stress this with up to 256 sessions).
//
// A real user plugs in either synchronously, as a MembershipOracle passed
// to Open() that blocks for the labels, or through OpenPending — the only
// choice that scales past one blocked thread per waiting user.

#ifndef QHORN_SESSION_ROUTER_H_
#define QHORN_SESSION_ROUTER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/core/normalize.h"
#include "src/oracle/pending.h"
#include "src/session/session.h"
#include "src/util/checked_mutex.h"
#include "src/util/executor.h"
#include "src/util/fiber.h"
#include "src/util/function_ref.h"

namespace qhorn {

/// Shared compiled-query store. Keyed by (canonical form, guarantee mode):
/// equal keys evaluate identically object for object, so sessions sharing
/// an entry are indistinguishable from sessions compiling their own.
/// Thread-safe; the returned compiled forms are immutable. Every shard of
/// a router shares its one instance (a query compiled once is compiled
/// once service-wide). One leaf mutex guards the map and the
/// counters: Get runs once per OpenSimulated, on the opening thread, and
/// compiles outside the lock.
class CompiledQueryCache {
 public:
  std::shared_ptr<const CompiledQuery> Get(const Query& query,
                                           const EvalOptions& opts);

  int64_t hits() const;
  int64_t misses() const;

 private:
  struct Key {
    CanonicalForm form;
    bool require_guarantees = false;

    friend bool operator==(const Key& a, const Key& b) {
      return a.require_guarantees == b.require_guarantees && a.form == b.form;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      return k.form.Hash() ^ (k.require_guarantees ? 0x9e3779b97f4a7c15ULL : 0);
    }
  };

  mutable Mutex mutex_{"compiled-cache", LockRank::kCompiledCache};
  std::unordered_map<Key, std::shared_ptr<const CompiledQuery>, KeyHash> map_
      QHORN_GUARDED_BY(mutex_);
  int64_t hits_ QHORN_GUARDED_BY(mutex_) = 0;
  int64_t misses_ QHORN_GUARDED_BY(mutex_) = 0;
};

/// Aggregate service counters across every session the router has hosted.
struct ServiceStats {
  int64_t sessions = 0;        ///< sessions opened
  int64_t jobs = 0;            ///< jobs completed
  int64_t learns = 0;          ///< SubmitLearn jobs completed
  int64_t verifies = 0;        ///< SubmitVerify jobs completed
  int64_t revisions = 0;       ///< SubmitRevise jobs completed
  int64_t questions = 0;       ///< questions that reached the users
  int64_t rounds = 0;          ///< user interactions (batch = one round)
  int64_t batched_questions = 0;  ///< questions inside batched rounds
  int64_t cache_hits = 0;      ///< per-session question-cache hits
  int64_t compiled_hits = 0;   ///< shared compiled-query cache hits
  int64_t compiled_misses = 0;  ///< … and misses (one compile each)
  int64_t suspensions = 0;     ///< pending rounds that yielded a lane
  int64_t awaiting_sessions = 0;  ///< sessions currently blocked on a user
  /// Questions served by user-boundary replay stages across all restart
  /// attempts. A resume replays nothing (answers feed the parked frame
  /// directly); only a correction restart re-serves its answered prefix.
  int64_t replayed_questions = 0;
  /// Parked-stack bytes across sessions currently awaiting a user — the
  /// memory a resume trades for replay compute: each stack's mapped size
  /// after the cold region below the parked frame is trimmed.
  int64_t snapshot_bytes = 0;
  int64_t corrections = 0;  ///< CorrectAnswer calls accepted
};

/// The one resume protocol: a pending session parks on a fiber. Kept as a
/// one-value enum so existing callers that name it still compile.
enum class ResumeMode { kFiber };

/// "fiber"; kept for callers that print the resume protocol.
const char* ToString(ResumeMode m);

/// Where a session is in its lifecycle, as seen between router calls.
enum class SessionStatus {
  kIdle,         ///< no job queued or running
  kRunning,      ///< a job owns (or is queued for) an executor lane
  kAwaitingUser  ///< suspended on a pending round; occupies no lane
};

/// Result of a ProvideAnswers call. Anything but kResumed leaves the
/// session — pending round included — exactly as it was.
enum class ProvideOutcome {
  kResumed,              ///< answers accepted; the session is re-running
  kUnknownSession,       ///< no such session id
  kSessionClosed,        ///< session was closed
  kNotAwaiting,          ///< session has no pending round
  kStaleRound,           ///< round_id is not the currently pending round
  kAnswerCountMismatch,  ///< answers.size() != pending questions
  kLogWriteFailed,       ///< durable commit hook refused; nothing mutated
};

const char* ToString(ProvideOutcome o);

/// Multiplexes concurrent QuerySessions over a shared executor, split
/// across router shards (see the file comment). Every id-taking call is
/// tolerant of garbage ids (unknown session / false / nullopt, never a
/// crash).
class SessionRouter {
 public:
  using SessionId = int64_t;
  /// A unit of session work, run on an executor lane with exclusive
  /// access to the session. For sessions opened with OpenPending, a job
  /// may be run *more than once* (a CorrectAnswer restart re-runs the job
  /// sequence from the start), so raw Submit jobs on pending sessions must
  /// be idempotent in their external effects; the typed submits are.
  using Job = std::function<void(QuerySession&)>;

  struct Options {
    /// Concurrent session lanes (worker threads running session jobs);
    /// ≤ 0 means Executor::DefaultConcurrency() (which honours
    /// QHORN_THREADS). 1 degrades to synchronous in-caller execution —
    /// the differential baseline. The router sizes its executor one lane
    /// wider than this, since the thread that submits jobs sleeps in
    /// Drain() rather than running them. The total across all shards.
    int threads = 0;
    /// Router shards (≥ 1): session id i lives on shard i % shards. 1 is
    /// the differential baseline; production wants a small multiple of
    /// the lane count.
    int shards = 1;
    QuerySession::Options session;
    /// Not read: kFiber is the only protocol. Kept so callers that set it
    /// still compile.
    ResumeMode resume_mode = ResumeMode::kFiber;
  };

  SessionRouter();
  explicit SessionRouter(Options options);
  /// Drains every shard, joins the executor, and only then unwinds the
  /// fibers still parked on rounds nobody will answer (their pending
  /// rounds die with the router).
  ~SessionRouter();

  SessionRouter(const SessionRouter&) = delete;
  SessionRouter& operator=(const SessionRouter&) = delete;

  // Opens assign the next id (1, 2, … in open order, from one atomic
  // counter) and place the session on shard id % shards. An arity outside
  // 1..kMaxVars is refused before an id is taken: 0, nothing opened.

  /// Opens a session over a caller-owned user oracle. The oracle must
  /// outlive the router and is used only from this session's jobs (one at
  /// a time), so it need not be thread-safe — but it must not be shared
  /// with another session.
  SessionId Open(int n, MembershipOracle* user);

  /// Opens a session against a simulated user holding `intended`: a
  /// QueryOracle over the shared cache's compiled form. The router owns
  /// the backend.
  SessionId OpenSimulated(const Query& intended,
                          EvalOptions opts = EvalOptions());

  /// Opens a session over a *pending* (real, asynchronous) user: every
  /// round suspends the job and surfaces through PendingRounds() until
  /// ProvideAnswers feeds the labels back. The router owns the backend.
  /// A positive `id` opens the session under that caller-assigned id
  /// instead (DurableRouter's, already logged); 0 is returned, and
  /// nothing opened, if the id is taken or negative. A caller that
  /// assigns ids assigns all of them: the counter does not skip ids it
  /// did not hand out.
  SessionId OpenPending(int n, SessionId id = 0);

  /// Enqueues a job for the session. Jobs of one session run in
  /// submission order; jobs of different sessions run concurrently.
  /// Returns false — and enqueues nothing — for an unknown or closed
  /// session id.
  bool Submit(SessionId id, Job job);

  /// Typed conveniences (counted in ServiceStats).
  bool SubmitLearn(SessionId id);
  bool SubmitVerify(SessionId id, Query candidate);
  bool SubmitRevise(SessionId id, Query candidate);

  /// All rounds currently awaiting user answers, ordered by session id.
  /// The embedding server's poll: render each round's questions to its
  /// user, then call ProvideAnswers with the labels.
  ///
  /// Costs O(awaiting sessions), not O(sessions ever opened): each shard
  /// keeps an index of its awaiting sessions, and the poll walks only
  /// that. It copies the index's rounds under the shard's mutex, so each
  /// shard's part is exact at one instant, even alongside live runners: a
  /// round is listed from the critical section that parks it until the
  /// one that answers, corrects or closes it. Shards are polled one after
  /// another, never under two shard mutexes at once. A reply to a round
  /// answered since the poll bounces off kStaleRound/kNotAwaiting, like
  /// any hostile duplicate.
  ///
  /// A listed round shares its questions with the session (copying a
  /// PendingRound never copies a TupleSet), and the questions are
  /// immutable. They stay valid for as long as the caller holds the round:
  /// after the session answers, corrects or closes it, and after the
  /// router is destroyed.
  std::vector<PendingRound> PendingRounds();

  /// Feeds a user's labels back into a suspended session. `round_id` must
  /// be the id carried by the session's current PendingRound and
  /// `answers.size()` must equal its question count; anything else is
  /// rejected without touching the session (the transcript cannot be
  /// corrupted by a stale or malformed reply). On kResumed the parked job
  /// continues from the frame that asked, with these answers; they are
  /// consumed by value, so the caller's storage is free immediately.
  ProvideOutcome ProvideAnswers(SessionId id, int64_t round_id,
                                BitSpan answers);

  /// A durable wrapper's write-ahead barrier: invoked once, after every
  /// validation has passed and before any state mutates, while the call
  /// still holds the session's shard mutex — and no other shard's — so no
  /// concurrent call can interleave between the hook and the mutation.
  /// Return false to veto: the call reports failure and the session —
  /// pending round included — is exactly as it was, so the caller may
  /// retry the identical call once its log is healthy again.
  using CommitHook = FunctionRef<bool()>;

  /// ProvideAnswers with a durable commit barrier (DurableRouter's path;
  /// the three-argument form commits unconditionally). A veto reports
  /// kLogWriteFailed.
  ProvideOutcome ProvideAnswers(SessionId id, int64_t round_id,
                                BitSpan answers, CommitHook commit);

  /// The §5 correction workflow for pending sessions: the user flips their
  /// answer `entry_index`, in answer order (QuerySession::user_answers()).
  /// Only legal while the session is awaiting a round (kNotAwaiting
  /// otherwise — a running session's runner owns its state; an idle
  /// session has nothing to correct that Close + re-learn would not do
  /// better). The call checks and records the index in O(1). The answers
  /// after the flipped one are discarded (they were answered to a question
  /// stream computed from the bad answer), the parked stack is unwound,
  /// and the job log restarts from job 0 on a fresh fiber: the surviving
  /// prefix is replayed — those questions depend only on answers before
  /// the flip, so they re-align question for question — and the learner
  /// diverges exactly at the corrected entry, re-asking everything
  /// downstream fresh. The abandoned pending round's id is never reused
  /// (round ids stay monotonic), so a stale ProvideAnswers still reports
  /// kStaleRound.
  ///
  /// Out-of-range `entry_index` reports kAnswerCountMismatch. On kResumed
  /// the re-run recounts every re-completed job in ServiceStats.jobs (the
  /// counters count completions, not distinct jobs).
  ProvideOutcome CorrectAnswer(SessionId id, size_t entry_index);

  /// Always kFiber; kept for callers that report the resume protocol.
  ResumeMode resume_mode() const { return ResumeMode::kFiber; }

  /// The round the session is blocked on, if any — nullopt for unknown,
  /// closed, or not-awaiting sessions. A copy (sharing its questions, as a
  /// polled round does), so the recovery replay can match surfaced rounds
  /// against logged answers without racing the runner.
  std::optional<PendingRound> pending_round(SessionId id) const;

  /// Marks a session closed: subsequent Submit/ProvideAnswers are
  /// rejected. A pending round awaiting answers is abandoned; already
  /// submitted jobs of a direct session still drain. Returns false for an
  /// unknown or already-closed id.
  bool Close(SessionId id);

  /// Close with a durable commit barrier: the hook runs only for a close
  /// that would succeed, so a refused close is never logged. A veto
  /// returns false with the session still open.
  bool Close(SessionId id, CommitHook commit);

  /// The session's lifecycle state, for the embedding server's dashboard
  /// (and the continuation tests). Like every id-taking protocol call,
  /// tolerant of garbage: nullopt for an unknown id.
  std::optional<SessionStatus> status(SessionId id) const;

  /// Times this session yielded its lane on a pending round so far;
  /// -1 for an unknown id.
  int64_t suspensions(SessionId id) const;

  /// Blocks until no session on any shard can make progress without more
  /// input: every session is idle or awaiting user answers. With pending
  /// sessions in play the idiom is a poll loop —
  ///   for (;;) { router.Drain();
  ///              auto rounds = router.PendingRounds();
  ///              if (rounds.empty()) break;
  ///              /* answer them */ }
  /// — which terminates once every session has run out of jobs.
  void Drain();

  /// The session, for inspection between jobs. The caller must ensure no
  /// job is running (e.g. after Drain); the router does not lock it. A
  /// session awaiting answers exposes its partially run state — only
  /// after its final job completes do its observables equal the
  /// synchronous run's.
  QuerySession& session(SessionId id);

  /// Aggregate counters summed across shards, the shared compiled-query
  /// cache counted once. Callable at any time: with jobs in flight, a
  /// running session counts as of its last completed job or park; after
  /// Drain, the per-session counters are exactly the sums of the sessions'
  /// own.
  ServiceStats stats();

  Executor* executor() const { return executor_.get(); }

 private:
  enum class JobKind { kOther, kLearn, kVerify, kRevise };
  struct JobRecord {
    Job fn;
    JobKind kind = JobKind::kOther;
  };
  // The session counters ServiceStats sums. A correction restart lowers
  // them, so a fold may subtract.
  struct SessionCounters {
    int64_t questions = 0;
    int64_t batched_questions = 0;
    int64_t rounds = 0;
    int64_t cache_hits = 0;
    int64_t replayed_questions = 0;
  };

  // Locking protocol: the job log and its completion cursor, the retired
  // round count, the pending round, its awaiting-index slot and the
  // running/closed flags are guarded by the mutex of the shard that hosts
  // the session; PendingRounds reads them under it too. Only Shard::Park
  // and Shard::Unpark write pending_round and awaiting_slot, so a session
  // is in its shard's awaiting index exactly while it has a pending round.
  // The session, the pending backend's wait-site and the runner fields
  // (fiber, correction, jobs_run) follow an ownership handoff instead:
  // while `running` is true they belong exclusively to the runner task and
  // are read/written without the lock; while the session is parked,
  // ProvideAnswers stages the wait-site's answers under the shard mutex
  // before it posts the runner. That is a protocol thread-safety analysis
  // cannot express (TSA has no "guarded by mutex OR owned by the runner"),
  // and a session cannot name its shard's mutex in a QHORN_GUARDED_BY
  // anyway. The cross-thread edges are TSan-covered by the continuation
  // stress suites.
  struct SessionState {
    std::unique_ptr<QuerySession> session;
    std::unique_ptr<MembershipOracle> owned_backend;  // OpenSimulated/Pending
    PendingOracle* pending_backend = nullptr;  // null for direct sessions
    // Every job submitted, in order, and how many have completed. A direct
    // session runs each job once; a pending session's correction restart
    // re-runs the log from the start. Only the owning runner (or
    // CorrectAnswer, while no runner owns the session) writes
    // jobs_completed, so the runner may read it without the lock.
    std::vector<JobRecord> job_log;
    size_t jobs_completed = 0;
    // Round ids retired so far: answered rounds, plus one per correction.
    // The next parked round's id; Shard::Park is the one place that stamps
    // it.
    int64_t answered_rounds = 0;
    // Set exactly while the session is suspended on a user round that
    // ProvideAnswers will resume; `awaiting_slot` is then its position in
    // Shard::awaiting.
    std::optional<PendingRound> pending_round;
    size_t awaiting_slot = 0;
    // Resident bytes of the parked stack while awaiting (ServiceStats).
    size_t snapshot_bytes = 0;
    // `fiber` is a pending session's attempt: while parked, the suspended
    // job's live call stack. `correction` carries a CorrectAnswer's index
    // to the runner, which unwinds the parked stack it abandoned and
    // restarts from it. `jobs_run` is the job loop's progress cursor —
    // jobs fully run this attempt — read by the runner after the loop
    // returns or parks, so all completion bookkeeping stays on the host
    // side of a fiber switch.
    std::unique_ptr<Fiber> fiber;
    std::optional<size_t> correction;
    size_t jobs_run = 0;
    int64_t suspensions = 0;
    // The session's counters as last folded into its shard's.
    SessionCounters folded;
    bool running = false;  // a runner task currently owns this session
    bool closed = false;
  };

  /// One shard: a mutex over its slice of the session space, and the
  /// counters bumped by that slice's runners (stats() sums them).
  struct Shard {
    // Guards the session map's shape, the per-session bookkeeping (see
    // SessionState for the runner-owned exceptions) and the counters. A
    // DurableRouter commit hook runs while exactly one shard mutex is
    // held (LockRank::kRouterShard; asserted where the hooks run).
    Mutex mutex{"router-shard", LockRank::kRouterShard};
    CondVar idle_cv;
    std::unordered_map<SessionId, std::unique_ptr<SessionState>> sessions
        QHORN_GUARDED_BY(mutex);
    // The sessions with a pending round, in no particular order: what a
    // poll walks instead of `sessions`, so it costs O(awaiting) however
    // many sessions the shard has hosted.
    std::vector<SessionState*> awaiting QHORN_GUARDED_BY(mutex);
    // Jobs that can make progress right now: uncompleted jobs of sessions
    // that are not blocked on a user. A suspension subtracts its session's
    // uncompleted jobs; ProvideAnswers adds them back. Drain waits for 0.
    int64_t runnable_jobs QHORN_GUARDED_BY(mutex) = 0;
    // Counters bumped at job completion and at a park; stats() sums them.
    int64_t jobs_done QHORN_GUARDED_BY(mutex) = 0;
    int64_t learns QHORN_GUARDED_BY(mutex) = 0;
    int64_t verifies QHORN_GUARDED_BY(mutex) = 0;
    int64_t revisions QHORN_GUARDED_BY(mutex) = 0;
    int64_t suspensions QHORN_GUARDED_BY(mutex) = 0;
    int64_t corrections QHORN_GUARDED_BY(mutex) = 0;
    SessionCounters session_counters QHORN_GUARDED_BY(mutex);

    /// The session stored under `id`, or nullptr.
    SessionState* Find(SessionId id) QHORN_REQUIRES(mutex);
    /// Folds the session's jobs below `jobs_run` that are not yet counted
    /// into jobs_done and the per-kind counters, and out of runnable_jobs,
    /// and the session's counters into session_counters. Only the runner
    /// that owns the session calls it.
    void CompleteJobs(SessionState* state, size_t jobs_run)
        QHORN_REQUIRES(mutex);
    /// Publishes the round parked at the session's wait-site as its pending
    /// round, stamped with `id` and the next round id, and lists the
    /// session in `awaiting`. The session must not be awaiting already.
    void Park(SessionId id, SessionState* state) QHORN_REQUIRES(mutex);
    /// Drops the session's pending round and swap-removes the session
    /// from `awaiting`. The session must be awaiting.
    void Unpark(SessionState* state) QHORN_REQUIRES(mutex);
  };

  /// The shard hosting `id`: shard id % shards. Never null.
  Shard* ShardOf(SessionId id) const;
  /// Stores a new session under `id` (0: the next id). Returns the id, or
  /// 0 when a caller-chosen id is taken or negative.
  SessionId AddSession(SessionId id, int n, MembershipOracle* user,
                       std::unique_ptr<MembershipOracle> owned_backend,
                       PendingOracle* pending_backend);
  bool SubmitJob(SessionId id, Job job, JobKind kind);
  /// Executor task, the one runner of every session: runs the job log from
  /// its cursor (inline for a direct session; for a pending one, resuming
  /// the parked attempt or starting a fresh one on a new fiber), folds the
  /// completed jobs into the shard's counters, and either releases the
  /// session once the log is exhausted or publishes the round it parked on
  /// and releases the lane.
  void RunSession(Shard* shard, SessionId id, SessionState* state);
  /// Cancels and unwinds a parked fiber (correction restart, closed
  /// session teardown): the parked wait-site throws, the stack unwinds to
  /// the fiber body's boundary, and the fiber is destroyed. Must be
  /// called with no checked lock held: the resume switches into the
  /// parked stack, and the unwind may run arbitrary destructor code.
  void UnwindFiber(SessionState* state);

  Options options_;
  CompiledQueryCache cache_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<SessionId> next_id_{1};
  // Joined by the destructor before it touches any shard.
  std::unique_ptr<Executor> executor_;
};

}  // namespace qhorn

#endif  // QHORN_SESSION_ROUTER_H_
