#include "src/session/router.h"

#include <algorithm>
#include <utility>

#include "src/util/check.h"

namespace qhorn {

std::shared_ptr<const CompiledQuery> CompiledQueryCache::Get(
    const Query& query, const EvalOptions& opts) {
  // The key captures exactly what evaluation under `opts` depends on
  // (CanonicalizeForEvaluation shares the R1/R2/R3 pipeline with
  // Canonicalize, so the cache can never drift from Equivalent()).
  Key key;
  key.require_guarantees = opts.require_guarantees;
  key.form = CanonicalizeForEvaluation(query, opts);
  {
    MutexLock lock(&mutex_);
    auto it = map_.find(key);
    if (it != map_.end()) {
      ++hits_;
      return it->second;
    }
    ++misses_;
  }
  // Compile outside the lock. Two threads racing on the same new key both
  // compile (both counted as misses); the first insert wins and the
  // loser's copy is dropped — compiles are idempotent µs-scale work, not
  // worth a per-key latch.
  auto compiled = std::make_shared<const CompiledQuery>(query, opts);
  MutexLock lock(&mutex_);
  return map_.try_emplace(std::move(key), std::move(compiled)).first->second;
}

int64_t CompiledQueryCache::hits() const {
  MutexLock lock(&mutex_);
  return hits_;
}

int64_t CompiledQueryCache::misses() const {
  MutexLock lock(&mutex_);
  return misses_;
}

const char* ToString(ProvideOutcome o) {
  switch (o) {
    case ProvideOutcome::kResumed:
      return "resumed";
    case ProvideOutcome::kUnknownSession:
      return "unknown-session";
    case ProvideOutcome::kSessionClosed:
      return "session-closed";
    case ProvideOutcome::kNotAwaiting:
      return "not-awaiting";
    case ProvideOutcome::kStaleRound:
      return "stale-round";
    case ProvideOutcome::kAnswerCountMismatch:
      return "answer-count-mismatch";
    case ProvideOutcome::kLogWriteFailed:
      return "log-write-failed";
  }
  return "?";
}

const char* ToString(ResumeMode) { return "fiber"; }

SessionRouter::SessionRouter() : SessionRouter(Options()) {}

SessionRouter::SessionRouter(Options options) : options_(std::move(options)) {
  QHORN_CHECK_MSG(options_.shards >= 1, "SessionRouter needs >= 1 shard");
  shards_.reserve(static_cast<size_t>(options_.shards));
  for (int i = 0; i < options_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  // Options.threads counts *session lanes*. Session jobs are Post()ed and
  // the submitting thread sleeps in Drain(), so only the executor's
  // workers (concurrency - 1 of them) ever run jobs — ask for one more
  // lane so `threads` sessions really do run concurrently. threads == 1
  // stays the synchronous inline executor (the differential baseline —
  // even with many shards, every runner then executes in the caller).
  const int lanes = options_.threads <= 0 ? Executor::DefaultConcurrency()
                                          : options_.threads;
  executor_ = std::make_unique<Executor>(lanes == 1 ? 1 : lanes + 1);
}

SessionRouter::~SessionRouter() {
  Drain();
  // Join the executor before any shard is touched: Drain() returning only
  // proves the last runnable job *completed* — its runner task may still
  // be between the completion bookkeeping and its return, touching
  // session state and its shard's mutex and condvar.
  // ~Executor joins the workers, so after this line no runner code is in
  // flight on any shard.
  executor_.reset();
  // Unwind continuations still parked on abandoned rounds (sessions
  // awaiting a user who never answered, or closed while parked): the
  // parked stacks hold live learner frames whose destructors must run.
  // Safe on this thread — the workers are joined, so no runner owns any
  // session anymore. Collect under the locks (uncontended now, but they
  // keep the guarded-field discipline uniform), unwind outside them:
  // UnwindFiber switches into the parked stack, and the rank checker
  // forbids holding a lock across that.
  std::vector<SessionState*> parked;
  for (const auto& owned : shards_) {
    Shard& shard = *owned;
    MutexLock lock(&shard.mutex);
    for (auto& [id, state] : shard.sessions) {
      if (state->fiber != nullptr) parked.push_back(state.get());
    }
  }
  for (SessionState* state : parked) UnwindFiber(state);
}

void SessionRouter::UnwindFiber(SessionState* state) {
  state->pending_backend->cancel = true;
  state->fiber->Resume();
  QHORN_CHECK_MSG(state->fiber->finished(),
                  "cancelled fiber parked again instead of unwinding");
  state->fiber.reset();
}

SessionRouter::Shard* SessionRouter::ShardOf(SessionId id) const {
  // Ids ≤ 0 land on some shard too; no session is ever stored under one,
  // so every call with such an id finds nothing there.
  return shards_[static_cast<uint64_t>(id) % shards_.size()].get();
}

SessionRouter::SessionState* SessionRouter::Shard::Find(SessionId id) {
  auto it = sessions.find(id);
  return it == sessions.end() ? nullptr : it->second.get();
}

SessionRouter::SessionId SessionRouter::AddSession(
    SessionId id, int n, MembershipOracle* user,
    std::unique_ptr<MembershipOracle> owned_backend,
    PendingOracle* pending_backend) {
  if (id < 0 || n < 1 || n > kMaxVars) return 0;
  auto state = std::make_unique<SessionState>();
  state->session = std::make_unique<QuerySession>(n, user, options_.session);
  state->owned_backend = std::move(owned_backend);
  state->pending_backend = pending_backend;
  if (id == 0) id = next_id_.fetch_add(1, std::memory_order_relaxed);
  Shard* shard = ShardOf(id);
  MutexLock lock(&shard->mutex);
  if (!shard->sessions.try_emplace(id, std::move(state)).second) return 0;
  return id;
}

SessionRouter::SessionId SessionRouter::Open(int n, MembershipOracle* user) {
  QHORN_CHECK(user != nullptr);
  return AddSession(0, n, user, nullptr, nullptr);
}

SessionRouter::SessionId SessionRouter::OpenSimulated(const Query& intended,
                                                      EvalOptions opts) {
  auto backend = std::make_unique<QueryOracle>(cache_.Get(intended, opts));
  MembershipOracle* user = backend.get();
  return AddSession(0, intended.n(), user, std::move(backend), nullptr);
}

SessionRouter::SessionId SessionRouter::OpenPending(int n, SessionId id) {
  auto backend = std::make_unique<PendingOracle>();
  PendingOracle* pending = backend.get();
  return AddSession(id, n, pending, std::move(backend), pending);
}

void SessionRouter::Shard::Park(SessionId id, SessionState* state) {
  QHORN_DCHECK(!state->pending_round.has_value());
  state->pending_round =
      PendingRound{id, state->answered_rounds,
                   std::move(state->pending_backend->questions)};
  state->awaiting_slot = awaiting.size();
  awaiting.push_back(state);
}

void SessionRouter::Shard::Unpark(SessionState* state) {
  QHORN_DCHECK(state->pending_round.has_value());
  QHORN_DCHECK(awaiting[state->awaiting_slot] == state);
  SessionState* last = awaiting.back();
  awaiting[state->awaiting_slot] = last;
  last->awaiting_slot = state->awaiting_slot;
  awaiting.pop_back();
  state->pending_round.reset();
}

void SessionRouter::Shard::CompleteJobs(SessionState* state,
                                        size_t jobs_run) {
  for (; state->jobs_completed < jobs_run; ++state->jobs_completed) {
    ++jobs_done;
    --runnable_jobs;
    switch (state->job_log[state->jobs_completed].kind) {
      case JobKind::kLearn:
        ++learns;
        break;
      case JobKind::kVerify:
        ++verifies;
        break;
      case JobKind::kRevise:
        ++revisions;
        break;
      case JobKind::kOther:
        break;
    }
  }
  const QuerySession& session = *state->session;
  const SessionCounters now{session.questions_asked(),
                            session.oracle_stats().batched_questions,
                            session.rounds(), session.cache_hits(),
                            session.user_questions_replayed()};
  session_counters.questions += now.questions - state->folded.questions;
  session_counters.batched_questions +=
      now.batched_questions - state->folded.batched_questions;
  session_counters.rounds += now.rounds - state->folded.rounds;
  session_counters.cache_hits += now.cache_hits - state->folded.cache_hits;
  session_counters.replayed_questions +=
      now.replayed_questions - state->folded.replayed_questions;
  state->folded = now;
}

bool SessionRouter::Submit(SessionId id, Job job) {
  return SubmitJob(id, std::move(job), JobKind::kOther);
}

bool SessionRouter::SubmitJob(SessionId id, Job job, JobKind kind) {
  QHORN_CHECK(job != nullptr);
  Shard* shard = ShardOf(id);
  SessionState* state = nullptr;
  bool start_runner = false;
  {
    MutexLock lock(&shard->mutex);
    state = shard->Find(id);
    if (state == nullptr || state->closed) return false;
    state->job_log.push_back(JobRecord{std::move(job), kind});
    // A session blocked on its user cannot progress: the job waits in the
    // log, uncounted, until ProvideAnswers makes it runnable. Only pending
    // sessions ever block.
    if (!state->pending_round.has_value()) {
      ++shard->runnable_jobs;
      start_runner = !state->running;
      state->running = true;
    }
  }
  // Post outside the lock: at concurrency 1 the executor runs the task
  // inline, and the runner re-acquires the mutex.
  if (start_runner) {
    executor_->Post([this, shard, id, state] { RunSession(shard, id, state); });
  }
  return true;
}

void SessionRouter::RunSession(Shard* shard, SessionId id,
                               SessionState* state) {
  // One job loop for both kinds of session. It fetches each job under the
  // shard mutex (the log may grow while it runs) and advances the
  // runner-owned cursor `jobs_run`. A direct session runs it inline and
  // never parks. A pending session runs it on a Fiber whose wait-site
  // parks (switches back here), so a resume re-enters the exact frame that
  // asked: no rebuild, no replay. Every piece of completion bookkeeping
  // happens below, on this side of the switch and under the shard mutex.
  PendingOracle* wait = state->pending_backend;
  for (;;) {
    // Only this runner writes the cursor while it owns the session.
    const size_t start = state->jobs_completed;
    state->jobs_run = start;
    auto run_jobs = [shard, state, start] {
      for (size_t i = start;; ++i) {
        JobRecord job;
        {
          MutexLock lock(&shard->mutex);
          if (i >= state->job_log.size()) return;
          job = state->job_log[i];  // copy: a restart re-runs the log
        }
        job.fn(*state->session);
        state->jobs_run = i + 1;
      }
    };
    if (wait == nullptr) {
      run_jobs();
    } else if (state->fiber == nullptr) {
      // Fresh attempt. Once a job has completed, the session's stack reflects
      // every completed job and new jobs run on it directly; with none
      // completed (first run, or a correction restart) it is rebuilt, with
      // a correction's prefix replayed — the only quadratic path, paid
      // once per correction rather than once per round. The session builds
      // the prefix from its own answers, off the shard mutex: this runner
      // owns it, and any parked stack has unwound.
      if (start == 0) {
        state->session->ResetWithUserReplay(
            std::exchange(state->correction, std::nullopt));
      }
      state->fiber = std::make_unique<Fiber>([wait, run_jobs] {
        try {
          run_jobs();
        } catch (const JobSuspended&) {
          // Cancel unwind (correction, close, shutdown): the learner
          // frames above are gone.
        }
        wait->fiber = nullptr;  // a round outside an attempt aborts again
      });
      wait->fiber = state->fiber.get();
      wait->cancel = false;
      state->fiber->Resume();
    } else if (state->correction.has_value()) {
      // A correction abandoned this parked stack (it was built over the
      // flipped answer). Unwind it; the log, restarted from job 0, then
      // runs again on a fresh attempt that replays the corrected prefix.
      UnwindFiber(state);
    } else {
      // O(1) resume: ProvideAnswers staged the answered round's bits at
      // the wait-site under the shard mutex, before posting this runner.
      state->fiber->Resume();
    }
    const size_t jobs_run = state->jobs_run;
    if (state->fiber == nullptr || state->fiber->finished()) {
      // The log ran out (or a racing Submit will re-post). Fold the
      // completed jobs into the counters; release ownership in the same
      // critical section that lets Drain return.
      state->fiber.reset();
      bool idle = false;
      {
        MutexLock lock(&shard->mutex);
        shard->CompleteJobs(state, jobs_run);
        // Jobs arrived while the loop was finishing, or a correction
        // restarted the log.
        if (state->jobs_completed < state->job_log.size()) continue;
        state->running = false;
        idle = shard->runnable_jobs == 0;
      }
      if (idle) shard->idle_cv.NotifyAll();
      return;
    }
    // Parked on a user round: publish it and free the lane. The parked
    // stack is the session's resume state; trim the cold region below the
    // parked frame back to the kernel (madvise) and report what actually
    // stays resident-able while the user thinks. Safe before the lock:
    // this runner still owns the session and nothing else touches a
    // parked fiber.
    const size_t resident = state->fiber->TrimColdStack();
    bool idle = false;
    for (bool unwound = false;; unwound = true) {
      {
        MutexLock lock(&shard->mutex);
        if (!state->closed || unwound) {
          shard->CompleteJobs(state, jobs_run);
          ++state->suspensions;
          ++shard->suspensions;
          // Everything this session still owes can no longer progress
          // without the user; Drain must not wait for it.
          shard->runnable_jobs -= static_cast<int64_t>(
              state->job_log.size() - state->jobs_completed);
          idle = shard->runnable_jobs == 0;
          if (!state->closed) {
            // Published in the same critical section as runnable_jobs's
            // decrement, so Drain-then-poll observes every parked round.
            shard->Park(id, state);
            state->snapshot_bytes = resident;
          }
          state->running = false;
          break;
        }
      }
      // Closed mid-run: abandon the round; the session never resumes. Its
      // parked stack unwinds here, before the bookkeeping above lets Drain
      // return, so no code of a drained router's sessions is still running
      // (the unwind rolls session counters back). Safe off-lock: closed
      // sessions reject Submit/ProvideAnswers/CorrectAnswer, so no other
      // runner can be posted.
      UnwindFiber(state);
    }
    if (idle) shard->idle_cv.NotifyAll();
    return;  // ← the lane is free while the user thinks
  }
}

bool SessionRouter::SubmitLearn(SessionId id) {
  return SubmitJob(
      id, [](QuerySession& session) { session.Learn(); }, JobKind::kLearn);
}

bool SessionRouter::SubmitVerify(SessionId id, Query candidate) {
  return SubmitJob(
      id,
      [candidate = std::move(candidate)](QuerySession& session) {
        session.Verify(candidate);
      },
      JobKind::kVerify);
}

bool SessionRouter::SubmitRevise(SessionId id, Query candidate) {
  return SubmitJob(
      id,
      [candidate = std::move(candidate)](QuerySession& session) {
        session.Revise(candidate);
      },
      JobKind::kRevise);
}

std::vector<PendingRound> SessionRouter::PendingRounds() {
  std::vector<PendingRound> rounds;
  for (const auto& owned : shards_) {
    Shard& shard = *owned;
    MutexLock lock(&shard.mutex);
    for (const SessionState* state : shard.awaiting) {
      rounds.push_back(*state->pending_round);
    }
  }
  std::sort(rounds.begin(), rounds.end(),
            [](const PendingRound& a, const PendingRound& b) {
              return a.session_id < b.session_id;
            });
  return rounds;
}

namespace {

bool CommitUnconditionally() { return true; }

/// A commit hook runs under exactly one shard mutex: a hook reaching into
/// a second shard dies on the same-rank check instead.
bool RunCommitHook(SessionRouter::CommitHook commit) {
  LockRankChecker::AssertHeldCountAtRank(LockRank::kRouterShard, 1,
                                         "a DurableRouter commit hook");
  return commit();
}

}  // namespace

ProvideOutcome SessionRouter::ProvideAnswers(SessionId id, int64_t round_id,
                                             BitSpan answers) {
  return ProvideAnswers(id, round_id, answers, CommitUnconditionally);
}

ProvideOutcome SessionRouter::ProvideAnswers(SessionId id, int64_t round_id,
                                             BitSpan answers,
                                             CommitHook commit) {
  Shard* shard = ShardOf(id);
  SessionState* state = nullptr;
  {
    MutexLock lock(&shard->mutex);
    state = shard->Find(id);
    if (state == nullptr) return ProvideOutcome::kUnknownSession;
    if (state->closed) return ProvideOutcome::kSessionClosed;
    if (!state->pending_round.has_value()) {
      return ProvideOutcome::kNotAwaiting;
    }
    const PendingRound& round = *state->pending_round;
    if (round_id != round.round_id) return ProvideOutcome::kStaleRound;
    if (answers.size() != round.questions.size()) {
      return ProvideOutcome::kAnswerCountMismatch;
    }
    // Validations passed — the write-ahead barrier runs here, under the
    // shard mutex, so the logged record and the fold it authorizes are
    // one atomic step as seen by every other router call. A veto leaves
    // the session exactly as it was (the round stays pending, the same
    // call can be retried once the log is healthy). Holding exactly one
    // shard mutex is what lets the hook append to this session's WAL
    // without cross-shard ordering concerns.
    if (!RunCommitHook(commit)) return ProvideOutcome::kLogWriteFailed;
    // Accepted: stage the bits at the parked wait-site and make the
    // session runnable again. No runner owns a parked session, so the
    // wait-site is this call's to write until the Post hands it over.
    std::vector<bool>& staged = state->pending_backend->staged;
    staged.assign(answers.size(), false);
    for (size_t i = 0; i < answers.size(); ++i) staged[i] = answers.Get(i);
    ++state->answered_rounds;
    shard->Unpark(state);
    shard->runnable_jobs += static_cast<int64_t>(state->job_log.size() -
                                                 state->jobs_completed);
    state->running = true;
  }
  executor_->Post([this, shard, id, state] { RunSession(shard, id, state); });
  return ProvideOutcome::kResumed;
}

ProvideOutcome SessionRouter::CorrectAnswer(SessionId id, size_t entry_index) {
  Shard* shard = ShardOf(id);
  SessionState* state = nullptr;
  {
    MutexLock lock(&shard->mutex);
    state = shard->Find(id);
    if (state == nullptr) return ProvideOutcome::kUnknownSession;
    if (state->closed) return ProvideOutcome::kSessionClosed;
    if (!state->pending_round.has_value()) {
      return ProvideOutcome::kNotAwaiting;
    }
    // No runner owns a parked session: its O(1) answer count is safe here.
    if (entry_index >= state->session->user_answers()) {
      return ProvideOutcome::kAnswerCountMismatch;
    }
    // The runner unwinds the stack parked over the old answer (learner
    // destructors run) and builds the prefix, off this lock. The answers it
    // keeps re-align: their questions depend only on answers before the flip.
    state->correction = entry_index;
    // Restart the whole job log. The abandoned round's id is retired, so
    // the restarted session's next round gets a fresh id and a stale
    // ProvideAnswers against the abandoned round reports kStaleRound.
    ++state->answered_rounds;
    state->snapshot_bytes = 0;
    state->jobs_completed = 0;
    shard->Unpark(state);
    shard->runnable_jobs += static_cast<int64_t>(state->job_log.size());
    state->running = true;
    ++shard->corrections;
  }
  executor_->Post([this, shard, id, state] { RunSession(shard, id, state); });
  return ProvideOutcome::kResumed;
}

std::optional<PendingRound> SessionRouter::pending_round(SessionId id) const {
  Shard* shard = ShardOf(id);
  MutexLock lock(&shard->mutex);
  const SessionState* state = shard->Find(id);
  if (state == nullptr) return std::nullopt;
  return state->pending_round;
}

bool SessionRouter::Close(SessionId id) {
  return Close(id, CommitUnconditionally);
}

bool SessionRouter::Close(SessionId id, CommitHook commit) {
  Shard* shard = ShardOf(id);
  MutexLock lock(&shard->mutex);
  SessionState* state = shard->Find(id);
  if (state == nullptr || state->closed) return false;
  // Same write-ahead barrier as ProvideAnswers: only a close that takes
  // effect is logged, and two racing closes log once.
  if (!RunCommitHook(commit)) return false;
  state->closed = true;
  // The user will never answer; abandon any pending round. The session's
  // uncompleted jobs were uncounted at suspension, so nothing waits.
  if (state->pending_round.has_value()) shard->Unpark(state);
  return true;
}

std::optional<SessionStatus> SessionRouter::status(SessionId id) const {
  Shard* shard = ShardOf(id);
  MutexLock lock(&shard->mutex);
  const SessionState* state = shard->Find(id);
  if (state == nullptr) return std::nullopt;
  if (state->pending_round.has_value()) return SessionStatus::kAwaitingUser;
  if (state->running) return SessionStatus::kRunning;
  return SessionStatus::kIdle;
}

int64_t SessionRouter::suspensions(SessionId id) const {
  Shard* shard = ShardOf(id);
  MutexLock lock(&shard->mutex);
  const SessionState* state = shard->Find(id);
  return state == nullptr ? -1 : state->suspensions;
}

void SessionRouter::Drain() {
  // One pass suffices: a job never creates work on another shard.
  for (const auto& owned : shards_) {
    Shard& shard = *owned;
    MutexLock lock(&shard.mutex);
    // Explicit predicate loop (not a wait(pred) lambda) so the guarded
    // read of runnable_jobs happens in a scope thread-safety analysis can
    // see holds the mutex.
    while (shard.runnable_jobs != 0) {
      shard.idle_cv.Wait(&shard.mutex);
    }
  }
}

QuerySession& SessionRouter::session(SessionId id) {
  Shard* shard = ShardOf(id);
  MutexLock lock(&shard->mutex);
  SessionState* state = shard->Find(id);
  QHORN_CHECK_MSG(state != nullptr, "no session " << id);
  return *state->session;
}

ServiceStats SessionRouter::stats() {
  ServiceStats stats;
  for (const auto& owned : shards_) {
    Shard& shard = *owned;
    MutexLock lock(&shard.mutex);
    stats.sessions += static_cast<int64_t>(shard.sessions.size());
    stats.jobs += shard.jobs_done;
    stats.learns += shard.learns;
    stats.verifies += shard.verifies;
    stats.revisions += shard.revisions;
    stats.suspensions += shard.suspensions;
    stats.corrections += shard.corrections;
    stats.awaiting_sessions += static_cast<int64_t>(shard.awaiting.size());
    for (const SessionState* state : shard.awaiting) {
      stats.snapshot_bytes += static_cast<int64_t>(state->snapshot_bytes);
    }
    stats.questions += shard.session_counters.questions;
    stats.batched_questions += shard.session_counters.batched_questions;
    stats.rounds += shard.session_counters.rounds;
    stats.cache_hits += shard.session_counters.cache_hits;
    stats.replayed_questions += shard.session_counters.replayed_questions;
  }
  stats.compiled_hits = cache_.hits();
  stats.compiled_misses = cache_.misses();
  return stats;
}

}  // namespace qhorn
