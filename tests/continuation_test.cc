// Pending-round session continuations: the PendingOracle backend, the
// router's kIdle/kRunning/kAwaitingUser state machine, the
// PendingRounds()/ProvideAnswers embedding-server protocol, and the
// park-and-resume determinism contract.
//
// The load-bearing properties:
//   * a session blocked on a real user holds no lane (another session can
//     run on a one-lane router while the first waits),
//   * a resume continues the parked frame with the user's answers, so
//     after the final resume every observable is bit-identical to a
//     synchronous run over the same answers,
//   * malformed ProvideAnswers calls (stale round id, wrong answer count,
//     unknown/closed session) are rejected without touching the session.
//
// Runs under the tsan preset in CI (ctest label: continuation).

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/core/normalize.h"
#include "src/core/random_query.h"
#include "src/learn/pac.h"
#include "src/oracle/pending.h"
#include "src/session/router.h"
#include "src/util/bit_span.h"
#include "src/util/fiber.h"
#include "tests/session_fingerprint.h"

namespace qhorn {
namespace {

// ---------------------------------------------------------------------------
// PendingOracle unit behaviour.

TEST(PendingOracleTest, NonEmptyRoundRecordsQuestionsAndSuspends) {
  // The backend as the router drives it: the rounds run on a fiber, each
  // one parks through the yield hook, and a resume hands back the staged
  // answers.
  PendingOracle oracle;
  oracle.set_session_id(42);
  oracle.BeginAttempt(/*next_round_id=*/3);
  Rng rng(1);
  std::vector<TupleSet> questions = {RandomObject(4, rng, 3),
                                     RandomObject(4, rng, 3)};
  BitVec bits;
  BitSpan span = bits.Prepare(2);
  bool single = false;
  Fiber fiber([&] {
    oracle.IsAnswerBatch(questions, span);
    single = oracle.IsAnswer(questions[0]);
  });
  oracle.InstallYieldHook([&fiber] { fiber.Yield(); });
  fiber.Resume();
  ASSERT_FALSE(fiber.finished());
  ASSERT_TRUE(oracle.has_pending());
  PendingRound round = oracle.TakePending();
  EXPECT_EQ(round.session_id, 42);
  EXPECT_EQ(round.round_id, 3);
  ASSERT_EQ(round.questions.size(), 2u);
  EXPECT_EQ(round.questions[0], questions[0]);
  EXPECT_EQ(round.questions[1], questions[1]);
  EXPECT_FALSE(oracle.has_pending());
  EXPECT_EQ(oracle.suspensions(), 1);

  // The resumed batch returns the staged bits; the single-question path is
  // then a one-question round carrying the next id.
  oracle.StageResumeAnswers({true, false});
  fiber.Resume();
  EXPECT_TRUE(span.Get(0));
  EXPECT_FALSE(span.Get(1));
  ASSERT_FALSE(fiber.finished());
  round = oracle.TakePending();
  EXPECT_EQ(round.round_id, 4);
  ASSERT_EQ(round.questions.size(), 1u);
  oracle.StageResumeAnswers({true});
  fiber.Resume();
  EXPECT_TRUE(fiber.finished());
  EXPECT_TRUE(single);
  EXPECT_EQ(oracle.suspensions(), 2);
}

TEST(PendingOracleDeathTest, RoundWithoutYieldHookAborts) {
  // Parking is the only way a pending round suspends: a round reaching a
  // backend that no fiber runner has hooked is a runner bug, refused
  // before the round is recorded.
  PendingOracle oracle;
  oracle.BeginAttempt(0);
  Rng rng(1);
  std::vector<TupleSet> questions = {RandomObject(4, rng, 3)};
  BitVec bits;
  EXPECT_DEATH(oracle.IsAnswerBatch(questions, bits.Prepare(1)),
               "no yield hook");
}

TEST(PendingOracleTest, EmptyRoundIsANoOpNotASuspension) {
  PendingOracle oracle;
  oracle.BeginAttempt(0);
  BitVec bits;
  EXPECT_NO_THROW(oracle.IsAnswerBatch({}, bits.Prepare(0)));
  EXPECT_FALSE(oracle.has_pending());
  EXPECT_EQ(oracle.suspensions(), 0);
}

// ---------------------------------------------------------------------------
// Driving a pending session to completion: the embedding-server loop.

/// Answers every pending round from the per-session ground truth until no
/// session is awaiting; returns the number of rounds answered.
int64_t AnswerAllPending(
    SessionRouter& router,
    const std::map<SessionRouter::SessionId, QueryOracle*>& truths) {
  int64_t answered = 0;
  for (;;) {
    router.Drain();
    std::vector<PendingRound> rounds = router.PendingRounds();
    if (rounds.empty()) return answered;
    for (PendingRound& round : rounds) {
      QueryOracle* truth = truths.at(round.session_id);
      BitVec bits;
      BitSpan span = bits.Prepare(round.questions.size());
      truth->IsAnswerBatch(round.questions, span);
      EXPECT_EQ(router.ProvideAnswers(round.session_id, round.round_id, span),
                ProvideOutcome::kResumed);
      ++answered;
    }
  }
}

Query SmallTarget(int n, uint64_t seed) {
  Rng rng(seed);
  RpOptions opts;
  opts.num_heads = 1;
  opts.theta = 2;
  opts.num_conjunctions = 2;
  opts.conj_size_max = std::min(3, n);
  return RandomRolePreserving(n, rng, opts);
}

TEST(ContinuationTest, PendingLearnMatchesSynchronousRunBitForBit) {
  Query target = SmallTarget(6, 11);
  for (int lanes : {1, 4}) {
    // Pending arm: every user round suspends; the test plays the human.
    SessionRouter::Options opts;
    opts.threads = lanes;
    SessionRouter pending_router(opts);
    SessionRouter::SessionId pid = pending_router.OpenPending(6);
    QueryOracle truth(target);
    EXPECT_TRUE(pending_router.SubmitLearn(pid));
    int64_t rounds_answered = AnswerAllPending(pending_router, {{pid, &truth}});
    EXPECT_GT(rounds_answered, 1);
    EXPECT_EQ(pending_router.status(pid), SessionStatus::kIdle);
    EXPECT_EQ(pending_router.suspensions(pid), rounds_answered);

    // Synchronous arm: the identical user answering inline, one lane.
    SessionRouter::Options sync_opts;
    sync_opts.threads = 1;
    SessionRouter sync_router(sync_opts);
    QueryOracle sync_truth(target);
    SessionRouter::SessionId sid = sync_router.Open(6, &sync_truth);
    sync_router.SubmitLearn(sid);
    sync_router.Drain();

    EXPECT_EQ(SessionFingerprint(pending_router.session(pid)),
              SessionFingerprint(sync_router.session(sid)))
        << "pending continuation diverged from the synchronous run at "
        << lanes << " lanes";
    ASSERT_TRUE(pending_router.session(pid).current_query().has_value());
    EXPECT_TRUE(
        Equivalent(*pending_router.session(pid).current_query(), target));
  }
}

TEST(ContinuationTest, MultiJobSessionCountsEachJobOnce) {
  // Learn + verify + revise on one pending session: every resume re-runs
  // the job log from the start, but completions are counted exactly once.
  Query target = SmallTarget(5, 3);
  SessionRouter::Options opts;
  opts.threads = 2;
  SessionRouter router(opts);
  SessionRouter::SessionId id = router.OpenPending(5);
  QueryOracle truth(target);
  EXPECT_TRUE(router.SubmitLearn(id));
  EXPECT_TRUE(router.SubmitVerify(id, target));
  EXPECT_TRUE(router.SubmitRevise(id, target));
  AnswerAllPending(router, {{id, &truth}});
  ServiceStats stats = router.stats();
  EXPECT_EQ(stats.jobs, 3);
  EXPECT_EQ(stats.learns, 1);
  EXPECT_EQ(stats.verifies, 1);
  EXPECT_EQ(stats.revisions, 1);
  EXPECT_GE(stats.suspensions, 2);
  EXPECT_EQ(stats.awaiting_sessions, 0);
  EXPECT_TRUE(Equivalent(*router.session(id).current_query(), target));
}

TEST(ContinuationTest, BlockedSessionYieldsItsOnlyLane) {
  // One lane, two pending sessions. A suspends first and stays blocked;
  // B must be able to run — and fully complete — on the lane A released.
  Query target_a = SmallTarget(5, 7);
  Query target_b = SmallTarget(5, 8);
  SessionRouter::Options opts;
  opts.threads = 1;
  SessionRouter router(opts);
  SessionRouter::SessionId a = router.OpenPending(5);
  SessionRouter::SessionId b = router.OpenPending(5);
  QueryOracle truth_b(target_b);
  router.SubmitLearn(a);
  router.SubmitLearn(b);
  router.Drain();
  EXPECT_EQ(router.status(a), SessionStatus::kAwaitingUser);
  EXPECT_EQ(router.status(b), SessionStatus::kAwaitingUser);

  // Answer only B until it completes; A's user never replies.
  for (;;) {
    router.Drain();
    std::vector<PendingRound> rounds = router.PendingRounds();
    bool b_pending = false;
    for (PendingRound& round : rounds) {
      if (round.session_id != b) continue;
      b_pending = true;
      BitVec bits;
      BitSpan span = bits.Prepare(round.questions.size());
      truth_b.IsAnswerBatch(round.questions, span);
      ASSERT_EQ(router.ProvideAnswers(b, round.round_id, span),
                ProvideOutcome::kResumed);
    }
    if (!b_pending) break;
  }
  EXPECT_EQ(router.status(b), SessionStatus::kIdle);
  EXPECT_TRUE(Equivalent(*router.session(b).current_query(), target_b));
  EXPECT_EQ(router.status(a), SessionStatus::kAwaitingUser)
      << "A must still be parked — without a thread — while B finished";
  (void)target_a;
}

TEST(ContinuationTest, StatusReportsIdleThenAwaitingUser) {
  SessionRouter::Options opts;
  opts.threads = 1;  // synchronous: transitions are observable deterministically
  SessionRouter router(opts);
  SessionRouter::SessionId id = router.OpenPending(4);
  EXPECT_EQ(router.status(id), SessionStatus::kIdle);
  router.SubmitLearn(id);  // runs inline at one lane, suspends immediately
  EXPECT_EQ(router.status(id), SessionStatus::kAwaitingUser);
  std::vector<PendingRound> rounds = router.PendingRounds();
  ASSERT_EQ(rounds.size(), 1u);
  EXPECT_EQ(rounds[0].session_id, id);
  EXPECT_EQ(rounds[0].round_id, 0);
  EXPECT_FALSE(rounds[0].questions.empty());
}

// ---------------------------------------------------------------------------
// Edge cases: malformed submissions and replies must reject, not corrupt.

TEST(ContinuationEdgeTest, SubmitToUnknownOrClosedSessionIsRejected) {
  SessionRouter::Options opts;
  opts.threads = 2;
  SessionRouter router(opts);
  EXPECT_FALSE(router.Submit(999, [](QuerySession&) {}));
  EXPECT_FALSE(router.SubmitLearn(999));
  EXPECT_EQ(router.status(999), std::nullopt)
      << "dashboard calls tolerate garbage ids like the rest of the protocol";
  EXPECT_EQ(router.suspensions(999), -1);

  Query target = SmallTarget(4, 1);
  SessionRouter::SessionId id = router.OpenSimulated(target);
  EXPECT_TRUE(router.SubmitLearn(id));
  router.Drain();
  EXPECT_TRUE(router.Close(id));
  EXPECT_FALSE(router.Close(id)) << "second close reports failure";
  EXPECT_FALSE(router.SubmitLearn(id)) << "closed sessions reject jobs";
  // The session object stays inspectable after Close.
  EXPECT_TRUE(router.session(id).current_query().has_value());
}

TEST(ContinuationEdgeTest, MalformedProvideAnswersRejectsWithoutCorruption) {
  Query target = SmallTarget(5, 21);
  SessionRouter::Options opts;
  opts.threads = 1;
  SessionRouter router(opts);
  SessionRouter::SessionId id = router.OpenPending(5);
  QueryOracle truth(target);
  router.SubmitLearn(id);
  router.Drain();
  ASSERT_EQ(router.status(id), SessionStatus::kAwaitingUser);
  std::vector<PendingRound> rounds = router.PendingRounds();
  ASSERT_EQ(rounds.size(), 1u);
  const PendingRound& round = rounds[0];

  BitVec bits;
  // Unknown session.
  EXPECT_EQ(router.ProvideAnswers(12345, round.round_id,
                                  bits.Prepare(round.questions.size())),
            ProvideOutcome::kUnknownSession);
  // Stale (future and past) round ids.
  EXPECT_EQ(router.ProvideAnswers(id, round.round_id + 1,
                                  bits.Prepare(round.questions.size())),
            ProvideOutcome::kStaleRound);
  EXPECT_EQ(router.ProvideAnswers(id, round.round_id - 1,
                                  bits.Prepare(round.questions.size())),
            ProvideOutcome::kStaleRound);
  // Wrong answer count.
  EXPECT_EQ(router.ProvideAnswers(id, round.round_id,
                                  bits.Prepare(round.questions.size() + 3)),
            ProvideOutcome::kAnswerCountMismatch);
  // Still awaiting, round unchanged: the rejects touched nothing.
  ASSERT_EQ(router.status(id), SessionStatus::kAwaitingUser);
  std::vector<PendingRound> after = router.PendingRounds();
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(after[0].round_id, round.round_id);
  EXPECT_EQ(after[0].questions.size(), round.questions.size());

  // A well-formed reply after the garbage completes the session with the
  // exact synchronous-run observables — the transcript was not corrupted.
  AnswerAllPending(router, {{id, &truth}});
  QueryOracle sync_truth(target);
  SessionRouter::Options sync_opts;
  sync_opts.threads = 1;
  SessionRouter sync_router(sync_opts);
  SessionRouter::SessionId sid = sync_router.Open(5, &sync_truth);
  sync_router.SubmitLearn(sid);
  sync_router.Drain();
  EXPECT_EQ(SessionFingerprint(router.session(id)),
            SessionFingerprint(sync_router.session(sid)));

  // Answers for a session that is not awaiting.
  EXPECT_EQ(router.ProvideAnswers(id, 0, bits.Prepare(1)),
            ProvideOutcome::kNotAwaiting);
}

TEST(ContinuationEdgeTest, CloseAbandonsAPendingRound) {
  SessionRouter::Options opts;
  opts.threads = 1;
  SessionRouter router(opts);
  SessionRouter::SessionId id = router.OpenPending(4);
  router.SubmitLearn(id);
  router.Drain();
  ASSERT_EQ(router.status(id), SessionStatus::kAwaitingUser);
  ASSERT_EQ(router.PendingRounds().size(), 1u);
  EXPECT_TRUE(router.Close(id));
  EXPECT_TRUE(router.PendingRounds().empty());
  BitVec bits;
  EXPECT_EQ(router.ProvideAnswers(id, 0, bits.Prepare(1)),
            ProvideOutcome::kSessionClosed);
  // Drain returns immediately: the abandoned jobs are not runnable.
  router.Drain();
  ServiceStats stats = router.stats();
  EXPECT_EQ(stats.jobs, 0);
  EXPECT_EQ(stats.awaiting_sessions, 0);
}

TEST(ContinuationEdgeTest, SubmitWhileAwaitingQueuesBehindTheAnswer) {
  Query target = SmallTarget(5, 31);
  SessionRouter::Options opts;
  opts.threads = 2;
  SessionRouter router(opts);
  SessionRouter::SessionId id = router.OpenPending(5);
  QueryOracle truth(target);
  router.SubmitLearn(id);
  router.Drain();
  ASSERT_EQ(router.status(id), SessionStatus::kAwaitingUser);
  // A verify submitted while blocked must wait for the user, then run.
  EXPECT_TRUE(router.SubmitVerify(id, target));
  router.Drain();  // still blocked: the verify is not runnable yet
  EXPECT_EQ(router.status(id), SessionStatus::kAwaitingUser);
  AnswerAllPending(router, {{id, &truth}});
  ServiceStats stats = router.stats();
  EXPECT_EQ(stats.jobs, 2);
  EXPECT_EQ(stats.learns, 1);
  EXPECT_EQ(stats.verifies, 1);
  EXPECT_TRUE(Equivalent(*router.session(id).current_query(), target));
}

TEST(ContinuationEdgeTest, OutOfOrderAndDuplicateDeliveryAcrossPendingRounds) {
  // Three sessions, all suspended concurrently. Answers arrive in reverse
  // session order (out of order with respect to PendingRounds' ordering),
  // interleaved with duplicate and stale deliveries — every duplicate or
  // stale round id must reject without touching any session, and the
  // final observables must still equal the synchronous replay.
  SessionRouter::Options opts;
  opts.threads = 1;  // inline: each resume runs to its next suspension
  SessionRouter router(opts);
  std::vector<Query> targets;
  std::vector<SessionRouter::SessionId> ids;
  std::vector<std::unique_ptr<QueryOracle>> truths;
  std::map<SessionRouter::SessionId, QueryOracle*> truth_of;
  for (uint64_t s = 0; s < 3; ++s) {
    targets.push_back(SmallTarget(5, 61 + s));
    ids.push_back(router.OpenPending(5));
    truths.push_back(std::make_unique<QueryOracle>(targets.back()));
    truth_of[ids.back()] = truths.back().get();
    router.SubmitLearn(ids.back());
  }
  router.Drain();
  std::vector<PendingRound> rounds = router.PendingRounds();
  ASSERT_EQ(rounds.size(), 3u) << "all three sessions must be pending at once";

  // Reverse delivery order; after each accepted answer, re-deliver the
  // same round (duplicate) and the already-consumed round id (stale).
  BitVec bits;
  for (size_t i = rounds.size(); i > 0; --i) {
    PendingRound& round = rounds[i - 1];
    BitSpan span = bits.Prepare(round.questions.size());
    truth_of.at(round.session_id)->IsAnswerBatch(round.questions, span);
    ASSERT_EQ(router.ProvideAnswers(round.session_id, round.round_id, span),
              ProvideOutcome::kResumed);
    // Snapshot the session's state after the resume (at one lane the
    // resume ran inline: the session is idle or pending its next round).
    std::optional<SessionStatus> before = router.status(round.session_id);
    int64_t suspensions_before = router.suspensions(round.session_id);
    // Duplicate of the just-answered round: the session either finished
    // (kNotAwaiting) or pends round_id+1 (kStaleRound) — never kResumed.
    ProvideOutcome dup = router.ProvideAnswers(
        round.session_id, round.round_id, bits.Prepare(round.questions.size()));
    EXPECT_TRUE(dup == ProvideOutcome::kNotAwaiting ||
                dup == ProvideOutcome::kStaleRound)
        << "duplicate delivery resumed a session twice";
    // A round id from the future must also bounce.
    ProvideOutcome future = router.ProvideAnswers(
        round.session_id, round.round_id + 7,
        bits.Prepare(round.questions.size()));
    EXPECT_TRUE(future == ProvideOutcome::kNotAwaiting ||
                future == ProvideOutcome::kStaleRound);
    // Neither garbage delivery changed anything observable.
    EXPECT_EQ(router.status(round.session_id), before);
    EXPECT_EQ(router.suspensions(round.session_id), suspensions_before);
  }

  // Drive everything home (answers keep arriving in reverse order).
  for (;;) {
    router.Drain();
    std::vector<PendingRound> live = router.PendingRounds();
    if (live.empty()) break;
    for (size_t i = live.size(); i > 0; --i) {
      PendingRound& round = live[i - 1];
      BitSpan span = bits.Prepare(round.questions.size());
      truth_of.at(round.session_id)->IsAnswerBatch(round.questions, span);
      ASSERT_EQ(router.ProvideAnswers(round.session_id, round.round_id, span),
                ProvideOutcome::kResumed);
    }
  }

  // Bit-identical to the synchronous run despite the hostile delivery.
  SessionRouter::Options sync_opts;
  sync_opts.threads = 1;
  SessionRouter sync_router(sync_opts);
  for (size_t s = 0; s < 3; ++s) {
    QueryOracle sync_truth(targets[s]);
    SessionRouter::SessionId sid = sync_router.Open(5, &sync_truth);
    sync_router.SubmitLearn(sid);
    sync_router.Drain();
    EXPECT_EQ(SessionFingerprint(router.session(ids[s])),
              SessionFingerprint(sync_router.session(sid)))
        << "session " << s << " diverged after out-of-order delivery";
    EXPECT_TRUE(Equivalent(*router.session(ids[s]).current_query(),
                           targets[s]));
  }
}

TEST(ContinuationEdgeTest, CloseRacesProvideAnswersCleanly) {
  // Close and ProvideAnswers racing on the same suspended session (the
  // only pinned race so far was Open vs Drain). Whatever the
  // interleaving, the outcome must be one of exactly two clean states —
  // the close won (reply rejected, transcript untouched) or the resume
  // won (answers folded, session then closed) — never a torn transcript,
  // a hang, or a crash. Runs under the tsan preset in CI.
  for (int iteration = 0; iteration < 25; ++iteration) {
    Query target = SmallTarget(5, 71 + static_cast<uint64_t>(iteration));
    SessionRouter::Options opts;
    opts.threads = 2;
    SessionRouter router(opts);
    QueryOracle truth(target);
    SessionRouter::SessionId id = router.OpenPending(5);
    router.SubmitLearn(id);
    router.Drain();
    ASSERT_EQ(router.status(id), SessionStatus::kAwaitingUser);
    std::vector<PendingRound> rounds = router.PendingRounds();
    ASSERT_EQ(rounds.size(), 1u);
    const PendingRound& round = rounds[0];
    std::string fingerprint_before = SessionFingerprint(router.session(id));

    BitVec bits;
    BitSpan span = bits.Prepare(round.questions.size());
    truth.IsAnswerBatch(round.questions, span);
    ProvideOutcome outcome = ProvideOutcome::kResumed;
    bool closed = false;
    std::thread closer([&] { closed = router.Close(id); });
    std::thread answerer(
        [&] { outcome = router.ProvideAnswers(id, round.round_id, span); });
    closer.join();
    answerer.join();

    EXPECT_TRUE(closed) << "the session was open and awaiting: Close wins";
    EXPECT_TRUE(outcome == ProvideOutcome::kResumed ||
                outcome == ProvideOutcome::kSessionClosed)
        << "race produced outcome " << static_cast<int>(outcome);
    // Whichever side won, the router must settle without external input:
    // a resumed-then-closed session abandons its next round instead of
    // re-surfacing it.
    router.Drain();
    EXPECT_TRUE(router.PendingRounds().empty())
        << "a closed session re-surfaced a pending round";
    EXPECT_EQ(router.ProvideAnswers(id, round.round_id + 1, span),
              ProvideOutcome::kSessionClosed);
    if (outcome == ProvideOutcome::kSessionClosed) {
      // Clean close: the reply bounced, so the transcript is exactly the
      // suspension-time state — not one answer leaked in.
      EXPECT_EQ(SessionFingerprint(router.session(id)), fingerprint_before)
          << "a rejected reply mutated the transcript";
    }
  }
}

TEST(ContinuationEdgeTest, CorrectAnswerRewindsASuspendedSession) {
  // The §5 correction workflow, now *supported* mid-suspension through the
  // router (this replaces the old blanket-refusal death test — the refusal
  // survives only at the QuerySession level, pinned below). The user
  // answers the first round with one flipped bit, lets the session suspend
  // on the mislearned path, then corrects the flipped entry: the session
  // must restart, replay the corrected prefix without re-asking it, and
  // converge to the exact observables of a user who answered truthfully
  // from the start. The parked stack built over the flipped answer is
  // cancelled and unwound before the fresh full-prefix attempt.
  Query target = SmallTarget(5, 97);
  SessionRouter::Options opts;
  opts.threads = 1;  // inline: each resume runs to its next suspension
  SessionRouter router(opts);
  QueryOracle truth(target);
  SessionRouter::SessionId id = router.OpenPending(5);
  router.SubmitLearn(id);
  router.Drain();
  ASSERT_EQ(router.status(id), SessionStatus::kAwaitingUser);
  std::vector<PendingRound> rounds = router.PendingRounds();
  ASSERT_EQ(rounds.size(), 1u);
  const PendingRound round0 = rounds[0];

  // Round 0 goes back with its first answer flipped.
  BitVec bits;
  BitSpan span = bits.Prepare(round0.questions.size());
  truth.IsAnswerBatch(round0.questions, span);
  span.Set(0, !span.Get(0));
  ASSERT_EQ(router.ProvideAnswers(id, round0.round_id, span),
            ProvideOutcome::kResumed);
  ASSERT_EQ(router.status(id), SessionStatus::kAwaitingUser)
      << "one flipped bit cannot complete a learn at n=5";
  std::vector<PendingRound> mislearned = router.PendingRounds();
  ASSERT_EQ(mislearned.size(), 1u);
  const PendingRound abandoned = mislearned[0];

  // Garbage corrections first: they must reject without touching state.
  EXPECT_EQ(router.CorrectAnswer(id + 999, 0),
            ProvideOutcome::kUnknownSession);
  EXPECT_EQ(router.CorrectAnswer(id, round0.questions.size() + 50),
            ProvideOutcome::kAnswerCountMismatch);
  EXPECT_EQ(router.status(id), SessionStatus::kAwaitingUser);

  // The real correction: flip entry 0 back to the truthful answer. The
  // session restarts its job log; the corrected prefix is replayed (the
  // user is not re-asked), and the session re-suspends on the question
  // stream a truthful round 0 produces.
  ASSERT_EQ(router.CorrectAnswer(id, 0), ProvideOutcome::kResumed);
  router.Drain();
  ASSERT_EQ(router.status(id), SessionStatus::kAwaitingUser);
  // The abandoned round's id was retired: a stale reply to it bounces.
  EXPECT_EQ(router.ProvideAnswers(id, abandoned.round_id,
                                  bits.Prepare(abandoned.questions.size())),
            ProvideOutcome::kStaleRound);

  // Answer truthfully to completion; every observable must equal a
  // clean synchronous run over the truthful answer stream.
  AnswerAllPending(router, {{id, &truth}});
  EXPECT_EQ(router.status(id), SessionStatus::kIdle);
  EXPECT_EQ(router.stats().corrections, 1);
  EXPECT_TRUE(Equivalent(*router.session(id).current_query(), target));

  SessionRouter::Options sync_opts;
  sync_opts.threads = 1;
  SessionRouter sync_router(sync_opts);
  QueryOracle sync_truth(target);
  SessionRouter::SessionId sid = sync_router.Open(5, &sync_truth);
  sync_router.SubmitLearn(sid);
  sync_router.Drain();
  EXPECT_EQ(SessionFingerprint(router.session(id)),
            SessionFingerprint(sync_router.session(sid)))
      << "corrected session diverged from the truthful run";

  // Corrections require a parked round: an idle session reports
  // kNotAwaiting, a closed one kSessionClosed.
  EXPECT_EQ(router.CorrectAnswer(id, 0), ProvideOutcome::kNotAwaiting);
  EXPECT_TRUE(router.Close(id));
  EXPECT_EQ(router.CorrectAnswer(id, 0), ProvideOutcome::kSessionClosed);
}

TEST(ContinuationEdgeTest, CorrectionIndexBoundCountsTheReplayedHead) {
  // A correction of an entry that is not the last of its round restarts
  // onto a park whose round the replay began serving: the round's head up
  // to the corrected entry is answered (replayed), its tail is pending.
  // The head counts as answered: with A answers counting it, CorrectAnswer
  // accepts A - 1 and refuses A.
  Query target = SmallTarget(5, 97);
  SessionRouter::Options opts;
  opts.threads = 1;
  SessionRouter router(opts);
  QueryOracle truth(target);
  SessionRouter::SessionId id = router.OpenPending(5);
  router.SubmitLearn(id);
  size_t answered = 0;
  size_t round_start = 0;
  size_t round_size = 0;
  for (;;) {
    router.Drain();
    std::optional<PendingRound> round = router.pending_round(id);
    ASSERT_TRUE(round.has_value()) << "no round of two or more questions";
    BitVec bits;
    BitSpan span = bits.Prepare(round->questions.size());
    truth.IsAnswerBatch(round->questions, span);
    if (round->questions.size() >= 2) {
      round_start = answered;
      round_size = round->questions.size();
      span.Set(0, !span.Get(0));  // the round's first entry, not its last
    }
    answered += round->questions.size();
    ASSERT_EQ(router.ProvideAnswers(id, round->round_id, span),
              ProvideOutcome::kResumed);
    if (round_size != 0) break;
  }
  router.Drain();
  ASSERT_EQ(router.status(id), SessionStatus::kAwaitingUser);
  ASSERT_EQ(router.CorrectAnswer(id, round_start), ProvideOutcome::kResumed);
  router.Drain();
  // The mixed park: one replayed question, the rest of the round pending.
  std::optional<PendingRound> mixed = router.pending_round(id);
  ASSERT_TRUE(mixed.has_value());
  EXPECT_EQ(mixed->questions.size(), round_size - 1);
  const size_t answers = round_start + 1;
  EXPECT_EQ(router.CorrectAnswer(id, answers),
            ProvideOutcome::kAnswerCountMismatch);
  EXPECT_EQ(router.status(id), SessionStatus::kAwaitingUser);
  ASSERT_EQ(router.CorrectAnswer(id, answers - 1), ProvideOutcome::kResumed);
  router.Drain();
  // The same park again; correcting the entry back restores the truthful
  // answers, and the session ends as a truthful synchronous run does.
  mixed = router.pending_round(id);
  ASSERT_TRUE(mixed.has_value());
  EXPECT_EQ(mixed->questions.size(), round_size - 1);
  ASSERT_EQ(router.CorrectAnswer(id, answers - 1), ProvideOutcome::kResumed);
  AnswerAllPending(router, {{id, &truth}});
  EXPECT_EQ(router.stats().corrections, 3);

  SessionRouter sync_router(opts);
  QueryOracle sync_truth(target);
  SessionRouter::SessionId sid = sync_router.Open(5, &sync_truth);
  sync_router.SubmitLearn(sid);
  sync_router.Drain();
  EXPECT_EQ(SessionFingerprint(router.session(id)),
            SessionFingerprint(sync_router.session(sid)));
}

TEST(ContinuationEdgeTest, OpenRefusesAnOutOfRangeArity) {
  // An arity outside 1..kMaxVars is refused like a taken caller id: 0 is
  // returned and no id is used up.
  SessionRouter router;
  QueryOracle truth(SmallTarget(5, 97));
  EXPECT_EQ(router.OpenPending(0), 0);
  EXPECT_EQ(router.OpenPending(kMaxVars + 1), 0);
  EXPECT_EQ(router.OpenPending(-3, 7), 0);
  EXPECT_EQ(router.Open(0, &truth), 0);
  EXPECT_EQ(router.Open(kMaxVars + 1, &truth), 0);
  EXPECT_EQ(router.OpenPending(5), 1);
  EXPECT_EQ(router.Open(kMaxVars, &truth), 2);
  EXPECT_EQ(router.stats().sessions, 2);
}

TEST(ContinuationTest, FiberResumeMatchesSynchronousAndReplaysNothing) {
  // A learn + verify session resumed round by round must end
  // observationally indistinguishable from a synchronous run over the
  // same user — and, since each resume feeds the answers straight into
  // the parked frame, without a single question re-served by a replay
  // stage.
  Query target = SmallTarget(6, 13);
  SessionRouter::Options opts;
  opts.threads = 1;
  SessionRouter router(opts);
  EXPECT_EQ(router.resume_mode(), ResumeMode::kFiber);
  QueryOracle truth(target);
  SessionRouter::SessionId id = router.OpenPending(6);
  router.SubmitLearn(id);
  router.SubmitVerify(id, target);
  int64_t resumes = 0;
  for (;;) {
    router.Drain();
    std::vector<PendingRound> rounds = router.PendingRounds();
    if (rounds.empty()) break;
    ASSERT_EQ(rounds.size(), 1u);
    BitVec bits;
    BitSpan span = bits.Prepare(rounds[0].questions.size());
    truth.IsAnswerBatch(rounds[0].questions, span);
    ++resumes;
    ASSERT_EQ(router.ProvideAnswers(id, rounds[0].round_id, span),
              ProvideOutcome::kResumed);
  }
  EXPECT_GT(resumes, 1) << "a multi-round session must resume repeatedly";
  EXPECT_EQ(router.suspensions(id), resumes);
  EXPECT_EQ(router.stats().replayed_questions, 0)
      << "fiber resume re-served questions despite the parked stack";

  SessionRouter sync_router(opts);
  QueryOracle sync_truth(target);
  SessionRouter::SessionId sid = sync_router.Open(6, &sync_truth);
  sync_router.SubmitLearn(sid);
  sync_router.SubmitVerify(sid, target);
  sync_router.Drain();
  EXPECT_EQ(SessionFingerprint(router.session(id)),
            SessionFingerprint(sync_router.session(sid)))
      << "resumed session diverged from the synchronous run";
}

TEST(ContinuationTest, AwaitingSessionReportsItsSnapshotBytes) {
  // A parked session holds its live stack; the service surfaces that
  // residency (the stack's mapped size after the cold trim) so operators
  // can budget memory — and drops it once the session stops awaiting.
  const Query target = SmallTarget(5, 97);
  SessionRouter::Options opts;
  opts.threads = 1;
  SessionRouter router(opts);
  SessionRouter::SessionId id = router.OpenPending(5);
  router.SubmitLearn(id);
  router.Drain();
  ASSERT_EQ(router.status(id), SessionStatus::kAwaitingUser);
  ServiceStats stats = router.stats();
  EXPECT_EQ(stats.awaiting_sessions, 1);
  EXPECT_GT(stats.snapshot_bytes, 0)
      << "a parked fiber must account for its stack";

  QueryOracle truth(target);
  AnswerAllPending(router, {{id, &truth}});
  ASSERT_EQ(router.status(id), SessionStatus::kIdle);
  stats = router.stats();
  EXPECT_EQ(stats.awaiting_sessions, 0);
  EXPECT_EQ(stats.snapshot_bytes, 0);
}

TEST(ContinuationEdgeTest, CorrectAndRelearnIsRefusedInContinuationMode) {
  // A §5 correction invalidates the suffix of the answered rounds the
  // resume protocol replays — the session could only re-suspend on the
  // same question forever. The precondition fails loudly instead.
  // (Thread-free: a plain QuerySession, no router.)
  Query target = SmallTarget(4, 51);
  QueryOracle truth(target);
  QuerySession session(4, &truth);
  session.Learn();
  session.ResetWithUserReplay({});
  EXPECT_DEATH(session.CorrectAndRelearn(0),
               "not supported on pending-round");
}

// ---------------------------------------------------------------------------
// Open racing Drain: opening and submitting from one thread while another
// drains must neither crash nor lose jobs (run under the tsan preset).

TEST(ContinuationEdgeTest, OpenRacesDrain) {
  Query target = SmallTarget(5, 41);
  SessionRouter::Options opts;
  opts.threads = 4;
  SessionRouter router(opts);
  std::vector<SessionRouter::SessionId> ids;
  std::atomic<bool> done{false};
  std::thread opener([&] {
    for (int i = 0; i < 24; ++i) {
      SessionRouter::SessionId id = router.OpenSimulated(target);
      router.SubmitLearn(id);
      ids.push_back(id);
    }
    done.store(true, std::memory_order_release);
  });
  while (!done.load(std::memory_order_acquire)) {
    router.Drain();
  }
  opener.join();
  router.Drain();
  ServiceStats stats = router.stats();
  EXPECT_EQ(stats.sessions, 24);
  EXPECT_EQ(stats.learns, 24);
  for (SessionRouter::SessionId id : ids) {
    EXPECT_TRUE(Equivalent(*router.session(id).current_query(), target));
  }
}

}  // namespace
}  // namespace qhorn
