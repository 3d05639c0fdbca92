// The pending-round continuation stress contract: 256 sessions over real
// (pending) user oracles on a 4-lane router, every session suspending at
// least twice, answers provided out of order and in partial sweeps — all
// sessions complete, no thread is ever parked per blocked session (the
// router's executor is the only thread pool: ≤ 5 threads total), and
// every per-session observable is bit-identical to a single-threaded
// synchronous replay of the same jobs over the same answers. The shard
// variant drives the same fleet through a router of 1, 2 and 8 shards and
// pins its fingerprints to the synchronous arm too; the
// correction variant restarts every session once mid-run and pins its
// fingerprints to a 1-lane run of the same corrections.
//
// Runs under the tsan preset with QHORN_THREADS=8 in CI (the router's
// lane count is pinned to 4 explicitly; QHORN_THREADS exercises the
// executor default elsewhere). CTest label: continuation.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/core/normalize.h"
#include "src/core/random_query.h"
#include "src/session/router.h"
#include "src/util/bit_span.h"
#include "tests/session_fingerprint.h"

namespace qhorn {
namespace {

struct SessionPlan {
  Query target;
  // 0 = learn, 1 = verify(target), 2 = revise(target).
  std::vector<int> jobs;
};

SessionPlan MakePlan(int n, uint64_t seed) {
  Rng rng(seed);
  RpOptions opts;
  opts.num_heads = static_cast<int>(rng.Range(0, 1));
  opts.theta = 2;
  opts.num_conjunctions = static_cast<int>(rng.Range(1, 2));
  opts.conj_size_max = std::min(3, n);
  SessionPlan plan;
  plan.target = RandomRolePreserving(n, rng, opts);
  plan.jobs.push_back(0);  // always learn first
  if (rng.Chance(0.5)) {
    plan.jobs.push_back(1 + static_cast<int>(rng.Range(0, 1)));
  }
  return plan;
}

void SubmitPlan(SessionRouter& router, SessionRouter::SessionId id,
                const SessionPlan& plan) {
  for (int job : plan.jobs) {
    switch (job) {
      case 0:
        ASSERT_TRUE(router.SubmitLearn(id));
        break;
      case 1:
        ASSERT_TRUE(router.SubmitVerify(id, plan.target));
        break;
      default:
        ASSERT_TRUE(router.SubmitRevise(id, plan.target));
        break;
    }
  }
}

TEST(ContinuationStressTest, TwoHundredFiftySixSessionsOnFourLanes) {
  constexpr int kSessions = 256;
  constexpr int kLanes = 4;
  const int n = 6;

  std::vector<SessionPlan> plans;
  plans.reserve(kSessions);
  for (int s = 0; s < kSessions; ++s) {
    plans.push_back(MakePlan(n, 5000 + static_cast<uint64_t>(s)));
  }

  SessionRouter::Options opts;
  opts.threads = kLanes;
  SessionRouter router(opts);
  ASSERT_EQ(router.executor()->concurrency(), kLanes + 1)
      << "the router's pool is lanes + the draining caller, nothing more";

  // Ground truth per session — also the answer source for the sync arm,
  // so both arms see the exact same labelling of every question.
  std::vector<std::unique_ptr<QueryOracle>> truths;
  std::map<SessionRouter::SessionId, size_t> plan_of;
  std::vector<SessionRouter::SessionId> ids;
  // Thread-parking audit: every thread that ever runs a session job. A
  // raw job is re-run on every resume attempt, so inserting into a set is
  // naturally idempotent.
  std::mutex thread_ids_mutex;
  std::set<std::thread::id> job_threads;
  for (int s = 0; s < kSessions; ++s) {
    const SessionPlan& plan = plans[static_cast<size_t>(s)];
    truths.push_back(std::make_unique<QueryOracle>(plan.target));
    SessionRouter::SessionId id = router.OpenPending(n);
    plan_of[id] = static_cast<size_t>(s);
    ids.push_back(id);
    router.Submit(id, [&thread_ids_mutex, &job_threads](QuerySession&) {
      std::lock_guard<std::mutex> lock(thread_ids_mutex);
      job_threads.insert(std::this_thread::get_id());
    });
    SubmitPlan(router, id, plan);
  }

  // The embedding-server loop, adversarially scheduled: each sweep
  // shuffles the pending rounds and answers only a random ~2/3 of them
  // (at least one), so sessions resume out of order and interleave with
  // sessions that are still blocked.
  Rng sched(99);
  int64_t sweeps = 0;
  for (;;) {
    router.Drain();
    std::vector<PendingRound> rounds = router.PendingRounds();
    if (rounds.empty()) break;
    for (size_t i = rounds.size(); i > 1; --i) {
      std::swap(rounds[i - 1],
                rounds[static_cast<size_t>(sched.Range(
                    0, static_cast<int>(i) - 1))]);
    }
    size_t take = std::max<size_t>(1, (rounds.size() * 2) / 3);
    for (size_t i = 0; i < take; ++i) {
      PendingRound& round = rounds[i];
      QueryOracle* truth = truths[plan_of.at(round.session_id)].get();
      BitVec bits;
      BitSpan span = bits.Prepare(round.questions.size());
      truth->IsAnswerBatch(round.questions, span);
      ASSERT_EQ(router.ProvideAnswers(round.session_id, round.round_id, span),
                ProvideOutcome::kResumed);
    }
    ++sweeps;
  }
  EXPECT_GT(sweeps, 2);

  // Everything completed, nobody is blocked, and no session ever had a
  // thread parked for it: the only threads that ever ran jobs are the
  // executor's own lanes (4 workers; the draining test thread makes 5).
  ServiceStats stats = router.stats();
  EXPECT_EQ(stats.sessions, kSessions);
  EXPECT_EQ(stats.awaiting_sessions, 0);
  EXPECT_GE(stats.suspensions, 2 * kSessions);
  {
    std::lock_guard<std::mutex> lock(thread_ids_mutex);
    EXPECT_LE(job_threads.size(), static_cast<size_t>(kLanes + 1))
        << "blocked sessions must not spawn or park threads";
  }
  for (SessionRouter::SessionId id : ids) {
    EXPECT_EQ(router.status(id), SessionStatus::kIdle);
    EXPECT_GE(router.suspensions(id), 2)
        << "session " << id << " must have yielded its lane at least twice";
  }

  // Single-threaded synchronous replay: the same jobs over the same
  // answers, the user answering inline. Bit-identical observables.
  SessionRouter::Options sync_opts;
  sync_opts.threads = 1;
  SessionRouter sync_router(sync_opts);
  std::vector<std::unique_ptr<QueryOracle>> sync_truths;
  std::vector<SessionRouter::SessionId> sync_ids;
  for (int s = 0; s < kSessions; ++s) {
    const SessionPlan& plan = plans[static_cast<size_t>(s)];
    sync_truths.push_back(std::make_unique<QueryOracle>(plan.target));
    SessionRouter::SessionId id =
        sync_router.Open(n, sync_truths.back().get());
    sync_ids.push_back(id);
    sync_router.Submit(id, [](QuerySession&) {});
    SubmitPlan(sync_router, id, plan);
  }
  sync_router.Drain();

  for (int s = 0; s < kSessions; ++s) {
    QuerySession& pending_session =
        router.session(ids[static_cast<size_t>(s)]);
    QuerySession& sync_session =
        sync_router.session(sync_ids[static_cast<size_t>(s)]);
    ASSERT_EQ(SessionFingerprint(pending_session),
              SessionFingerprint(sync_session))
        << "session " << s << " diverged from its synchronous replay";
    ASSERT_TRUE(pending_session.current_query().has_value());
    EXPECT_TRUE(Equivalent(*pending_session.current_query(),
                           plans[static_cast<size_t>(s)].target));
  }
}

TEST(ContinuationStressTest, RouterShardsMatchSynchronousAcrossShardCounts) {
  // The same 256-session plan fleet, adversarially scheduled, driven
  // through a router of 1, 2 and 8 shards — ids and round merges cross
  // the shard placement, the per-shard polls, and the shared executor.
  // Every arm's per-session fingerprints must be bit-identical to a
  // single-threaded synchronous replay: shard count is a throughput knob,
  // never an observable.
  constexpr int kSessions = 256;
  constexpr int kLanes = 4;
  const int n = 6;

  std::vector<SessionPlan> plans;
  plans.reserve(kSessions);
  for (int s = 0; s < kSessions; ++s) {
    plans.push_back(MakePlan(n, 6000 + static_cast<uint64_t>(s)));
  }

  // Synchronous reference arm: inline answers, one thread, one shard.
  SessionRouter::Options sync_opts;
  sync_opts.threads = 1;
  SessionRouter sync_router(sync_opts);
  std::vector<std::unique_ptr<QueryOracle>> sync_truths;
  std::vector<std::string> reference;
  for (int s = 0; s < kSessions; ++s) {
    const SessionPlan& plan = plans[static_cast<size_t>(s)];
    sync_truths.push_back(std::make_unique<QueryOracle>(plan.target));
    SessionRouter::SessionId id =
        sync_router.Open(n, sync_truths.back().get());
    SubmitPlan(sync_router, id, plan);
    sync_router.Drain();
    reference.push_back(SessionFingerprint(sync_router.session(id)));
  }

  for (int shards : {1, 2, 8}) {
    SessionRouter::Options opts;
    opts.shards = shards;
    opts.threads = kLanes;
    SessionRouter router(opts);

    std::vector<std::unique_ptr<QueryOracle>> truths;
    std::map<SessionRouter::SessionId, size_t> plan_of;
    std::vector<SessionRouter::SessionId> ids;
    for (int s = 0; s < kSessions; ++s) {
      const SessionPlan& plan = plans[static_cast<size_t>(s)];
      truths.push_back(std::make_unique<QueryOracle>(plan.target));
      SessionRouter::SessionId id = router.OpenPending(n);
      plan_of[id] = static_cast<size_t>(s);
      ids.push_back(id);
      SubmitPlan(router, id, plan);
    }

    // Same adversarial sweep as the 1-shard stress: shuffled rounds,
    // only ~2/3 answered per sweep, resumes racing still-parked sessions.
    Rng sched(131 + static_cast<uint64_t>(shards));
    for (;;) {
      router.Drain();
      std::vector<PendingRound> rounds = router.PendingRounds();
      if (rounds.empty()) break;
      for (size_t i = rounds.size(); i > 1; --i) {
        std::swap(rounds[i - 1],
                  rounds[static_cast<size_t>(sched.Range(
                      0, static_cast<int>(i) - 1))]);
      }
      size_t take = std::max<size_t>(1, (rounds.size() * 2) / 3);
      for (size_t i = 0; i < take; ++i) {
        PendingRound& round = rounds[i];
        QueryOracle* truth = truths[plan_of.at(round.session_id)].get();
        BitVec bits;
        BitSpan span = bits.Prepare(round.questions.size());
        truth->IsAnswerBatch(round.questions, span);
        ASSERT_EQ(
            router.ProvideAnswers(round.session_id, round.round_id, span),
            ProvideOutcome::kResumed);
      }
    }

    ServiceStats stats = router.stats();
    EXPECT_EQ(stats.sessions, kSessions);
    EXPECT_EQ(stats.awaiting_sessions, 0);
    for (int s = 0; s < kSessions; ++s) {
      ASSERT_EQ(SessionFingerprint(router.session(ids[static_cast<size_t>(s)])),
                reference[static_cast<size_t>(s)])
          << "session " << s << " diverged from the synchronous arm at "
          << shards << " shards";
    }
  }
}

TEST(ContinuationStressTest, ResumeDepthReplaysNothingUnderFiberResume) {
  // The O(1)-per-resume gate. 256 pending learn sessions on 4 lanes, every
  // answered round a separate suspension: each resume feeds the answers
  // into the parked frame, so not one question crosses a user-boundary
  // replay stage over a session's whole lifetime, however deep it goes.
  constexpr int kSessions = 256;
  constexpr int kLanes = 4;
  const int n = 8;

  SessionRouter::Options opts;
  opts.threads = kLanes;
  SessionRouter router(opts);
  std::vector<Query> targets;
  std::vector<std::unique_ptr<QueryOracle>> truths;
  std::vector<SessionRouter::SessionId> ids;
  std::map<SessionRouter::SessionId, size_t> index_of;
  for (int s = 0; s < kSessions; ++s) {
    Rng rng(7000 + static_cast<uint64_t>(s));
    RpOptions qopts;
    qopts.num_heads = 1;
    qopts.theta = 2;
    qopts.num_conjunctions = 3;
    qopts.conj_size_max = 4;
    targets.push_back(RandomRolePreserving(n, rng, qopts));
    truths.push_back(std::make_unique<QueryOracle>(targets.back()));
    SessionRouter::SessionId id = router.OpenPending(n);
    index_of[id] = static_cast<size_t>(s);
    ids.push_back(id);
    EXPECT_TRUE(router.SubmitLearn(id));
  }
  for (;;) {
    router.Drain();
    std::vector<PendingRound> rounds = router.PendingRounds();
    if (rounds.empty()) break;
    for (PendingRound& round : rounds) {
      BitVec bits;
      BitSpan span = bits.Prepare(round.questions.size());
      truths[index_of.at(round.session_id)]->IsAnswerBatch(round.questions,
                                                           span);
      EXPECT_EQ(router.ProvideAnswers(round.session_id, round.round_id, span),
                ProvideOutcome::kResumed);
    }
  }

  int64_t total_suspensions = 0;
  for (int s = 0; s < kSessions; ++s) {
    size_t idx = static_cast<size_t>(s);
    QuerySession& session = router.session(ids[idx]);
    EXPECT_EQ(router.status(ids[idx]), SessionStatus::kIdle);
    EXPECT_TRUE(Equivalent(*session.current_query(), targets[idx]));
    ASSERT_EQ(session.user_questions_replayed(), 0)
        << "session " << s << " replayed questions despite a parked stack";
    const int64_t suspensions = router.suspensions(ids[idx]);
    EXPECT_GE(suspensions, 8)
        << "session " << s << " must suspend per user round, many times";
    total_suspensions += suspensions;
  }
  // Deep sessions on average (≥ 64 rounds mean): a protocol that re-served
  // its prefix per resume would show up here as tens of thousands of
  // replayed questions, not zero.
  EXPECT_GE(total_suspensions, 64 * kSessions);
}

// What one arm of the correction stress run observed.
struct CorrectionArm {
  std::vector<std::string> fingerprints;
  int64_t corrections = 0;
  int64_t recorrected_sessions = 0;  // sessions that corrected twice more
};

// Drives the plan fleet over pending users on `lanes` lanes. Each session
// answers one seeded round with one seeded bit flipped and corrects that
// entry back at its very next suspension; every other round is answered
// truthfully. When the flipped bit is not the last of its round, the
// restart's replay serves the round up to it and parks on the rest; about
// half of those sessions, picked by their seeds, then correct a seeded
// entry of that replayed head at that park, and correct it back at the
// next one (the same round again), so they end on the truthful answers
// too. The schedule is a pure function of the session's own seed and its
// own round count, so every arm applies the same corrections.
CorrectionArm RunCorrectionArm(const std::vector<SessionPlan>& plans, int n,
                               int lanes) {
  struct Driver {
    std::unique_ptr<QueryOracle> truth;
    int64_t rounds_answered = 0;
    int64_t flip_round = 0;
    uint64_t flip_pick = 0;
    bool recorrect = false;
    uint64_t recorrect_pick = 0;
    size_t entries_answered = 0;
    size_t flipped_entry = 0;
    size_t round_start = 0;  // the flipped round's first entry …
    size_t round_end = 0;    // … and one past its last
    bool flipped = false;
    bool corrected = false;
    int recorrections = 0;
    size_t recorrected_entry = 0;
  };
  SessionRouter::Options opts;
  opts.threads = lanes;
  SessionRouter router(opts);
  std::vector<Driver> drivers(plans.size());
  std::vector<SessionRouter::SessionId> ids;
  std::map<SessionRouter::SessionId, size_t> index_of;
  for (size_t s = 0; s < plans.size(); ++s) {
    Rng rng(9100 + s);
    drivers[s].truth = std::make_unique<QueryOracle>(plans[s].target);
    drivers[s].flip_round = rng.Range(0, 2);
    drivers[s].flip_pick = rng.Next();
    drivers[s].recorrect = rng.Chance(0.5);
    drivers[s].recorrect_pick = rng.Next();
    SessionRouter::SessionId id = router.OpenPending(n);
    index_of[id] = s;
    ids.push_back(id);
    SubmitPlan(router, id, plans[s]);
  }
  // No Drain between calls inside a sweep: a correction's restart and the
  // other sessions' resumes run on the lanes while the sweep goes on.
  Rng sched(4242);
  for (;;) {
    router.Drain();
    std::vector<PendingRound> rounds = router.PendingRounds();
    if (rounds.empty()) break;
    sched.Shuffle(&rounds);
    for (PendingRound& round : rounds) {
      Driver& d = drivers[index_of.at(round.session_id)];
      if (d.flipped && !d.corrected) {
        EXPECT_EQ(router.CorrectAnswer(round.session_id, d.flipped_entry),
                  ProvideOutcome::kResumed);
        d.corrected = true;
        continue;
      }
      if (d.corrected && d.recorrect && d.flipped_entry + 1 < d.round_end &&
          d.recorrections < 2) {
        // A park the replay began serving: only the round's fresh tail
        // after the last replayed entry reached the user.
        const size_t replayed_end = d.recorrections == 0
                                        ? d.flipped_entry + 1
                                        : d.recorrected_entry + 1;
        EXPECT_EQ(round.questions.size(), d.round_end - replayed_end);
        if (d.recorrections == 0) {
          d.recorrected_entry =
              d.round_start +
              d.recorrect_pick % (d.flipped_entry - d.round_start + 1);
        }
        EXPECT_EQ(router.CorrectAnswer(round.session_id, d.recorrected_entry),
                  ProvideOutcome::kResumed);
        ++d.recorrections;
        continue;
      }
      BitVec bits;
      BitSpan span = bits.Prepare(round.questions.size());
      d.truth->IsAnswerBatch(round.questions, span);
      if (!d.flipped && d.rounds_answered == d.flip_round) {
        const size_t bit = d.flip_pick % round.questions.size();
        span.Set(bit, !span.Get(bit));
        d.flipped_entry = d.entries_answered + bit;
        d.round_start = d.entries_answered;
        d.round_end = d.entries_answered + round.questions.size();
        d.flipped = true;
      }
      EXPECT_EQ(router.ProvideAnswers(round.session_id, round.round_id, span),
                ProvideOutcome::kResumed);
      ++d.rounds_answered;
      d.entries_answered += round.questions.size();
    }
  }
  CorrectionArm arm;
  for (SessionRouter::SessionId id : ids) {
    EXPECT_EQ(router.status(id), SessionStatus::kIdle);
    arm.fingerprints.push_back(SessionFingerprint(router.session(id)));
  }
  for (const Driver& d : drivers) {
    arm.recorrected_sessions += d.recorrections == 2;
  }
  arm.corrections = router.stats().corrections;
  return arm;
}

TEST(ContinuationStressTest, CorrectionsUnderConcurrencyMatchOneLane) {
  // The restart path under load. A correction is the only caller of the
  // full-prefix replay with a non-empty prefix: it unwinds the parked
  // stack and restarts the session's job log on a fresh fiber. 64 plan
  // sessions on 4 lanes each correct one answered entry at a seeded
  // point while the others keep resuming around them, and some correct
  // twice more at parks their replay began serving, where the corrected
  // prefix comes partly from the replay stage of whichever lane ran the
  // restart. Per-session fingerprints must equal a 1-lane run applying
  // the same corrections — and, since the corrections end on the
  // truthful answers, a synchronous run over a truthful user.
  constexpr int kSessions = 64;
  constexpr int kLanes = 4;
  const int n = 8;
  std::vector<SessionPlan> plans;
  for (int s = 0; s < kSessions; ++s) {
    plans.push_back(MakePlan(n, 8100 + static_cast<uint64_t>(s)));
    // A trailing verification always asks the user something, so a
    // session whose flipped answer ends its learn early still suspends
    // once more and reaches its correction.
    plans.back().jobs.push_back(1);
  }

  CorrectionArm concurrent = RunCorrectionArm(plans, n, kLanes);
  CorrectionArm one_lane = RunCorrectionArm(plans, n, 1);
  EXPECT_EQ(concurrent.corrections,
            kSessions + 2 * concurrent.recorrected_sessions)
      << "every session must reach its corrections";
  EXPECT_EQ(one_lane.corrections, concurrent.corrections);
  EXPECT_EQ(one_lane.recorrected_sessions, concurrent.recorrected_sessions);
  EXPECT_GE(concurrent.recorrected_sessions, 8)
      << "too few sessions corrected at a park their replay began serving";

  SessionRouter::Options sync_opts;
  sync_opts.threads = 1;
  SessionRouter sync_router(sync_opts);
  std::vector<std::unique_ptr<QueryOracle>> sync_truths;
  std::vector<SessionRouter::SessionId> sync_ids;
  for (const SessionPlan& plan : plans) {
    sync_truths.push_back(std::make_unique<QueryOracle>(plan.target));
    sync_ids.push_back(sync_router.Open(n, sync_truths.back().get()));
    SubmitPlan(sync_router, sync_ids.back(), plan);
  }
  sync_router.Drain();

  for (size_t s = 0; s < plans.size(); ++s) {
    ASSERT_EQ(concurrent.fingerprints[s], one_lane.fingerprints[s])
        << "session " << s << " diverged from its 1-lane correction run";
    ASSERT_EQ(concurrent.fingerprints[s],
              SessionFingerprint(sync_router.session(sync_ids[s])))
        << "session " << s << " diverged from the truthful synchronous run";
  }
}

}  // namespace
}  // namespace qhorn
