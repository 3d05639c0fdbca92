// SessionRouter's shards (Options::shards), plus the CompiledQueryCache
// every shard shares and the parked-fiber cold-stack trim.
//
// The load-bearing property is the shard contract: a session's
// observables depend only on its own job and answer sequence, never on
// the shard count — 2- and 8-shard runs produce fingerprints equal to the
// 1-shard run session for session. One id space: id i lives on shard
// i % shards under id i itself. The locked poll (each shard's index of
// awaiting sessions, walked under that shard's mutex) is raced against
// live suspensions and resumes under TSan, checked against a brute-force
// scan of every session, and its rounds' shared questions are held past
// the router's teardown.
//
// Runs under the tsan preset in CI (ctest label: continuation).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <latch>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/core/normalize.h"
#include "src/oracle/oracle.h"
#include "src/session/router.h"
#include "src/util/bit_span.h"
#include "src/util/fiber.h"
#include "src/util/rng.h"
#include "tests/session_fingerprint.h"

namespace qhorn {
namespace {

// ---------------------------------------------------------------------------
// Shared drive helper: verification fleets over the pending protocol.

/// Opens `count` pending sessions, submits one verification of `target`
/// to each, answers every surfaced round from ground truth, and returns
/// the per-session fingerprints in open order.
std::vector<std::string> DriveVerifyFleet(SessionRouter& router,
                                          const Query& target, int count) {
  QueryOracle truth(target);
  std::vector<int64_t> ids;
  for (int i = 0; i < count; ++i) {
    int64_t id = router.OpenPending(target.n());
    EXPECT_TRUE(router.SubmitVerify(id, target));
    ids.push_back(id);
  }
  BitVec bits;
  for (;;) {
    router.Drain();
    std::vector<PendingRound> rounds = router.PendingRounds();
    if (rounds.empty()) break;
    for (const PendingRound& round : rounds) {
      BitSpan span = bits.Prepare(round.questions.size());
      truth.IsAnswerBatch(round.questions, span);
      EXPECT_EQ(router.ProvideAnswers(round.session_id, round.round_id, span),
                ProvideOutcome::kResumed);
    }
  }
  std::vector<std::string> prints;
  prints.reserve(ids.size());
  for (int64_t id : ids) {
    prints.push_back(SessionFingerprint(router.session(id)));
  }
  return prints;
}

Query TestTarget() { return Query::Parse("∀x1x2→x4 ∃x3", 4); }

/// Verification candidates over TestTarget's schema. Each asks questions
/// the others do not, so a second verification still reaches the user
/// past the session's question cache.
std::vector<Query> TestCandidates() {
  std::vector<Query> candidates;
  for (const char* text : {"∀x1x2→x4 ∃x3", "∃x1x2x3 ∃x4", "∃x1x2 ∃x3",
                           "∀x2→x1", "∃x1x2 ∃x2x3 ∃x4", "∀x3 ∀x1→x4 ∃x2"}) {
    candidates.push_back(Query::Parse(text, 4));
  }
  return candidates;
}

// ---------------------------------------------------------------------------
// Shard-count equivalence.

TEST(RouterShardTest, FingerprintsBitIdenticalAcrossShardCounts) {
  const Query target = TestTarget();
  SessionRouter::Options base;
  base.shards = 1;
  base.threads = 1;
  SessionRouter one(base);
  std::vector<std::string> reference = DriveVerifyFleet(one, target, 16);

  for (int shards : {2, 8}) {
    SessionRouter::Options sopts;
    sopts.shards = shards;
    sopts.threads = 4;
    SessionRouter router(sopts);
    std::vector<std::string> prints = DriveVerifyFleet(router, target, 16);
    ASSERT_EQ(prints.size(), reference.size());
    for (size_t i = 0; i < prints.size(); ++i) {
      EXPECT_EQ(prints[i], reference[i])
          << "session " << i << " diverged at " << shards << " shards";
    }
  }
}

// ---------------------------------------------------------------------------
// One id space and garbage tolerance.

TEST(RouterShardTest, PinnedOpensLandOnTheirShardAndGarbageIdsBounce) {
  SessionRouter::Options sopts;
  sopts.shards = 4;
  sopts.threads = 1;
  SessionRouter router(sopts);

  // Caller-assigned ids (the durable layer's path) pin placement: id i
  // lands on shard i % 4 and is stored there under i itself.
  for (int64_t id : {5, 6, 7, 8, 13, 22, 31, 40}) {
    EXPECT_EQ(router.OpenPending(3, id), id);
    EXPECT_EQ(router.status(id), SessionStatus::kIdle);
  }
  EXPECT_EQ(router.OpenPending(3, 13), 0) << "a taken id must be refused";
  EXPECT_EQ(router.OpenPending(3, -7), 0) << "a negative id must be refused";

  // Garbage ids: zero, negative, and ids nobody opened (one below the
  // pinned range, one far above it). All rejected without a crash.
  for (int64_t garbage : {int64_t{0}, int64_t{-7}, int64_t{3}, int64_t{4004}}) {
    EXPECT_EQ(router.status(garbage), std::nullopt) << garbage;
    EXPECT_FALSE(router.Close(garbage)) << garbage;
    EXPECT_EQ(router.suspensions(garbage), -1) << garbage;
    BitVec bits;
    EXPECT_EQ(router.ProvideAnswers(garbage, 0, bits.Prepare(1)),
              ProvideOutcome::kUnknownSession)
        << garbage;
  }
}

TEST(RouterShardTest, PendingRoundsMergeCarriesExternalIdsSorted) {
  const Query target = TestTarget();
  SessionRouter::Options sopts;
  sopts.shards = 4;
  sopts.threads = 2;
  SessionRouter router(sopts);

  std::vector<int64_t> ids;
  for (int i = 0; i < 12; ++i) {
    int64_t id = router.OpenPending(target.n());
    ASSERT_TRUE(router.SubmitVerify(id, target));
    ids.push_back(id);
  }
  // Ids 1..12 in open order, spread round-robin over the shards.
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(ids[i], static_cast<int64_t>(i + 1));
  }
  router.Drain();
  std::vector<PendingRound> rounds = router.PendingRounds();
  ASSERT_EQ(rounds.size(), ids.size());
  for (size_t i = 0; i < rounds.size(); ++i) {
    // Merged across four shards, sorted by id: exactly 1..12.
    EXPECT_EQ(rounds[i].session_id, ids[i]);
    // The per-id view speaks the same ids as the merged poll.
    std::optional<PendingRound> single =
        router.pending_round(rounds[i].session_id);
    ASSERT_TRUE(single.has_value());
    EXPECT_EQ(single->session_id, rounds[i].session_id);
    EXPECT_EQ(single->round_id, rounds[i].round_id);
  }
  for (int64_t id : ids) router.Close(id);
}

TEST(RouterShardTest, StatsSumShardsButCountTheSharedCacheOnce) {
  const Query target = TestTarget();
  SessionRouter::Options sopts;
  sopts.shards = 4;
  sopts.threads = 2;
  SessionRouter router(sopts);
  for (int i = 0; i < 8; ++i) {
    int64_t id = router.OpenSimulated(target);
    ASSERT_TRUE(router.SubmitVerify(id, target));
  }
  router.Drain();
  ServiceStats stats = router.stats();
  EXPECT_EQ(stats.sessions, 8);
  EXPECT_EQ(stats.verifies, 8);
  // All eight simulated opens share one compiled-query cache across the
  // four shards: one compile, seven hits — not 4× either number.
  EXPECT_EQ(stats.compiled_misses, 1);
  EXPECT_EQ(stats.compiled_hits, 7);
}

// ---------------------------------------------------------------------------
// The locked poll, raced against live suspensions and resumes (TSan).

TEST(RouterShardTest, PollRacesSuspensionsAndResumes) {
  const Query target = TestTarget();
  SessionRouter::Options sopts;
  sopts.shards = 2;
  sopts.threads = 4;
  SessionRouter router(sopts);

  std::atomic<bool> stop{false};
  // The racing poller: hammers PendingRounds with no synchronization
  // against the driver below. Its rounds may be answered by the time it
  // looks at them; it must never crash or return a malformed round.
  std::thread poller([&] {
    while (!stop.load(std::memory_order_acquire)) {
      std::vector<PendingRound> rounds = router.PendingRounds();
      for (const PendingRound& round : rounds) {
        if (round.session_id <= 0) {
          ADD_FAILURE() << "malformed polled round id " << round.session_id;
          return;
        }
      }
    }
  });

  std::vector<std::string> prints = DriveVerifyFleet(router, target, 24);
  stop.store(true, std::memory_order_release);
  poller.join();

  // The drive loop itself used the same poll; the sessions must all
  // have finished their verification exactly once.
  EXPECT_EQ(prints.size(), 24u);
  ServiceStats stats = router.stats();
  EXPECT_EQ(stats.verifies, 24);
  EXPECT_GE(stats.suspensions, 24);
  EXPECT_EQ(stats.awaiting_sessions, 0);
}

// ---------------------------------------------------------------------------
// The awaiting index: a poll walks only the sessions with a pending round.

/// The poll against a brute-force scan of pending_round over every id ever
/// opened: the same rounds, in id order, and stats() counting as many
/// awaiting sessions. Call after Drain.
void ExpectPollMatchesScan(SessionRouter& router,
                           const std::vector<int64_t>& opened) {
  std::vector<PendingRound> polled = router.PendingRounds();
  std::vector<PendingRound> scanned;
  for (int64_t id : opened) {  // opened is in id order
    std::optional<PendingRound> round = router.pending_round(id);
    EXPECT_EQ(round.has_value(),
              router.status(id) == SessionStatus::kAwaitingUser)
        << "session " << id;
    if (round.has_value()) scanned.push_back(*round);
  }
  ASSERT_EQ(polled.size(), scanned.size());
  for (size_t i = 0; i < polled.size(); ++i) {
    EXPECT_EQ(polled[i].session_id, scanned[i].session_id) << i;
    EXPECT_EQ(polled[i].round_id, scanned[i].round_id) << i;
    EXPECT_EQ(polled[i].questions, scanned[i].questions) << i;
  }
  EXPECT_EQ(router.stats().awaiting_sessions,
            static_cast<int64_t>(polled.size()));
}

/// Asserts that stats()'s per-session counters are the sums of the
/// sessions' own, over every session opened, closed ones included. Call
/// after Drain.
void ExpectStatsSumTheSessions(SessionRouter& router,
                               const std::vector<int64_t>& opened) {
  ServiceStats sum;
  for (int64_t id : opened) {
    QuerySession& session = router.session(id);
    sum.questions += session.questions_asked();
    sum.batched_questions += session.oracle_stats().batched_questions;
    sum.rounds += session.rounds();
    sum.cache_hits += session.cache_hits();
    sum.replayed_questions += session.user_questions_replayed();
  }
  const ServiceStats stats = router.stats();
  EXPECT_EQ(stats.questions, sum.questions);
  EXPECT_EQ(stats.batched_questions, sum.batched_questions);
  EXPECT_EQ(stats.rounds, sum.rounds);
  EXPECT_EQ(stats.cache_hits, sum.cache_hits);
  EXPECT_EQ(stats.replayed_questions, sum.replayed_questions);
}

TEST(RouterShardTest, PollListsExactlyTheAwaitingSessions) {
  // A seeded mix of every transition in and out of the awaiting index:
  // opens, submits, answers, stale answers, corrections, and closes of
  // parked and of running sessions. After every step the poll matches a
  // scan of every session, and stats() sums the sessions' own counters.
  // Learner sessions only ever get truthful answers; corrections go to
  // verifier sessions, whose jobs stay finite whatever the user says.
  //
  // The mix is a pure function of the seed. Each step's actions read one
  // poll taken after Drain, and an action skips a session an earlier
  // action of the same step already touched, so no action ever reads
  // state that a lane is still changing. A close "while running" holds a
  // job on a latch, so the session is running when the close lands.
  const Query target = TestTarget();
  const std::vector<Query> candidates = TestCandidates();
  QueryOracle truth(target);
  for (int shards : {1, 4}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    SessionRouter::Options sopts;
    sopts.shards = shards;
    sopts.threads = 3;
    SessionRouter router(sopts);
    Rng rng(1700 + static_cast<uint64_t>(shards));
    std::vector<int64_t> opened;
    std::vector<bool> learner;  // by open index
    BitVec bits;
    int answered = 0;
    int corrected = 0;
    int closed_parked = 0;
    int closed_running = 0;
    size_t most_awaiting = 0;
    auto index_of = [&](int64_t id) {
      return static_cast<size_t>(
          std::lower_bound(opened.begin(), opened.end(), id) -
          opened.begin());
    };
    auto submit = [&](int64_t id) {
      if (learner[index_of(id)]) {
        router.SubmitLearn(id);
      } else {
        router.SubmitVerify(id, rng.Pick(candidates));
      }
    };
    // Closes a session no action of this step has touched: a parked one
    // as it is, an idle one behind a job held on a latch.
    auto close = [&](int64_t id) {
      if (router.status(id) == SessionStatus::kAwaitingUser) {
        closed_parked += router.Close(id);
        return;
      }
      // Idle, or closed already (which refuses the job).
      auto latch = std::make_shared<std::latch>(1);
      if (!router.Submit(id, [latch](QuerySession&) { latch->wait(); })) {
        return;
      }
      EXPECT_EQ(router.status(id), SessionStatus::kRunning);
      closed_running += router.Close(id);
      latch->count_down();
    };
    for (int step = 0; step < 300; ++step) {
      const std::vector<PendingRound> rounds = router.PendingRounds();
      most_awaiting = std::max(most_awaiting, rounds.size());
      std::set<int64_t> touched;
      const int actions = static_cast<int>(rng.Range(1, 4));
      for (int a = 0; a < actions; ++a) {
        const int64_t kind = rng.Range(0, 9);
        if (opened.empty() || kind == 0) {
          const int64_t id = router.OpenPending(target.n());
          ASSERT_GT(id, 0);
          opened.push_back(id);
          learner.push_back(rng.Chance(0.5));
          submit(id);
          touched.insert(id);
          continue;
        }
        const int64_t id =
            opened[static_cast<size_t>(rng.Below(opened.size()))];
        if (kind <= 2) {
          submit(id);
          touched.insert(id);
          continue;
        }
        if (kind == 9) {  // close, parked or running
          if (touched.insert(id).second) close(id);
          continue;
        }
        if (rounds.empty()) continue;
        const PendingRound& round =
            rounds[static_cast<size_t>(rng.Below(rounds.size()))];
        if (!touched.insert(round.session_id).second) continue;
        const bool round_learns = learner[index_of(round.session_id)];
        if (kind <= 4) {  // answer, then maybe close while it runs
          BitSpan span = bits.Prepare(round.questions.size());
          truth.IsAnswerBatch(round.questions, span);
          EXPECT_EQ(
              router.ProvideAnswers(round.session_id, round.round_id, span),
              ProvideOutcome::kResumed);
          ++answered;
          // Races the resumed runner, which may be re-parking: whichever
          // wins, the poll after Drain must not list the session.
          if (rng.Chance(0.2)) {
            EXPECT_TRUE(router.Close(round.session_id));
          }
        } else if (kind == 5) {  // stale: a round id that is not pending
          BitSpan span = bits.Prepare(round.questions.size());
          const int64_t stale = round.round_id + (rng.Chance(0.5) ? 1 : -1);
          EXPECT_EQ(router.ProvideAnswers(round.session_id, stale, span),
                    ProvideOutcome::kStaleRound);
        } else if (!round_learns) {  // correct an answered entry
          const size_t entry = static_cast<size_t>(rng.Below(4));
          corrected += router.CorrectAnswer(round.session_id, entry) ==
                       ProvideOutcome::kResumed;
        }
      }
      if (::testing::Test::HasFatalFailure()) return;
      router.Drain();
      ExpectPollMatchesScan(router, opened);
      ExpectStatsSumTheSessions(router, opened);
      if (::testing::Test::HasFatalFailure()) return;
    }
    // The mix reached every transition it is meant to test.
    EXPECT_GE(opened.size(), 10u);
    EXPECT_GT(answered, 0);
    EXPECT_GT(corrected, 0);
    EXPECT_GT(closed_parked, 0);
    EXPECT_GT(closed_running, 0);
    EXPECT_GE(most_awaiting, 10u);
  }
}

TEST(RouterShardTest, PolledRoundsOutliveResumeCloseAndTeardown) {
  // The rounds of one poll share their questions with the sessions. After
  // the sessions answer, correct and close them, and after the router is
  // gone, the held rounds must still read exactly what they read when
  // polled.
  const Query target = TestTarget();
  const std::vector<Query> candidates = TestCandidates();
  QueryOracle truth(target);
  std::vector<PendingRound> held;
  std::vector<std::vector<TupleSet>> copies;
  {
    SessionRouter::Options sopts;
    sopts.shards = 2;
    sopts.threads = 3;
    SessionRouter router(sopts);
    std::vector<int64_t> ids;
    for (int i = 0; i < 9; ++i) {
      int64_t id = router.OpenPending(target.n());
      ASSERT_TRUE(router.SubmitVerify(id, candidates[0]));
      ASSERT_TRUE(router.SubmitVerify(id, candidates[1 + i % 5]));
      ids.push_back(id);
    }
    // Answer every first round, so the second one has an entry to correct.
    BitVec bits;
    router.Drain();
    for (const PendingRound& round : router.PendingRounds()) {
      BitSpan span = bits.Prepare(round.questions.size());
      truth.IsAnswerBatch(round.questions, span);
      ASSERT_EQ(router.ProvideAnswers(round.session_id, round.round_id, span),
                ProvideOutcome::kResumed);
    }
    router.Drain();
    held = router.PendingRounds();
    ASSERT_EQ(held.size(), ids.size());
    for (const PendingRound& round : held) {
      copies.emplace_back(round.questions.begin(), round.questions.end());
    }
    for (size_t i = 0; i < held.size(); ++i) {
      const PendingRound& round = held[i];
      switch (i % 3) {
        case 0: {
          BitSpan span = bits.Prepare(round.questions.size());
          truth.IsAnswerBatch(round.questions, span);
          EXPECT_EQ(
              router.ProvideAnswers(round.session_id, round.round_id, span),
              ProvideOutcome::kResumed);
          break;
        }
        case 1:
          EXPECT_EQ(router.CorrectAnswer(round.session_id, 0),
                    ProvideOutcome::kResumed);
          break;
        default:
          EXPECT_TRUE(router.Close(round.session_id));
          break;
      }
    }
    router.Drain();
    for (int64_t id : ids) router.Close(id);
  }
  ASSERT_EQ(held.size(), copies.size());
  for (size_t i = 0; i < held.size(); ++i) {
    ASSERT_EQ(held[i].questions.size(), copies[i].size()) << i;
    for (size_t q = 0; q < copies[i].size(); ++q) {
      EXPECT_EQ(held[i].questions[q], copies[i][q]) << i << "/" << q;
    }
  }
}

// ---------------------------------------------------------------------------
// The shared CompiledQueryCache under concurrent Get.

TEST(CompiledQueryCacheTest, StripedGetIsCoherentUnderConcurrentHammer) {
  CompiledQueryCache cache;
  constexpr int kDistinct = 16;
  constexpr int kThreads = 8;
  constexpr int kGetsPerThread = 64;
  std::vector<Query> queries;
  for (int i = 0; i < kDistinct; ++i) {
    std::string body = "∃";
    for (int v = 1; v <= i + 1; ++v) body += "x" + std::to_string(v);
    queries.push_back(Query::Parse(body, kDistinct));
  }
  EvalOptions opts;
  std::vector<std::vector<std::shared_ptr<const CompiledQuery>>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kGetsPerThread; ++i) {
        got[static_cast<size_t>(t)].push_back(
            cache.Get(queries[static_cast<size_t>((i + t) % kDistinct)], opts));
      }
    });
  }
  for (auto& th : threads) th.join();

  // Coherence: every thread's Get for one query must have returned the
  // same shared compiled form (first insert wins; losers adopt it).
  std::vector<const CompiledQuery*> canonical(kDistinct, nullptr);
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kGetsPerThread; ++i) {
      size_t q = static_cast<size_t>((i + t) % kDistinct);
      const CompiledQuery* p = got[static_cast<size_t>(t)][static_cast<size_t>(i)].get();
      if (canonical[q] == nullptr) canonical[q] = p;
      EXPECT_EQ(canonical[q], p) << "query " << q << " compiled twice visibly";
    }
  }
  // Counter accounting: every Get was a hit or a miss; racing first-time
  // compiles may each count a miss, but at least one per distinct key.
  const int64_t total = int64_t{kThreads} * kGetsPerThread;
  EXPECT_EQ(cache.hits() + cache.misses(), total);
  EXPECT_GE(cache.misses(), kDistinct);
  EXPECT_LE(cache.misses(), int64_t{kDistinct} * kThreads);
}

// ---------------------------------------------------------------------------
// Parked-fiber cold-stack trim.

#if defined(__linux__) && defined(__x86_64__)

__attribute__((noinline)) int DeepTouch(int depth) {
  volatile char buf[4096];
  buf[0] = static_cast<char>(depth);
  buf[sizeof(buf) - 1] = 1;
  if (depth == 0) return buf[0];
  return DeepTouch(depth - 1) + buf[sizeof(buf) - 1];
}

TEST(FiberTrimTest, TrimReleasesColdPagesAndTheFiberStillResumes) {
  int deep_sum = 0;
  bool finished_cleanly = false;
  Fiber* self = nullptr;
  Fiber fiber([&] {
    deep_sum += DeepTouch(40);  // dirty ~160 KiB of stack, then pop it all
    self->Yield();              // park shallow
    deep_sum += DeepTouch(40);  // re-dirty the trimmed region after resume
    finished_cleanly = true;
  });
  self = &fiber;
  fiber.Resume();  // runs to the Yield
  ASSERT_FALSE(fiber.finished());

  size_t resident = fiber.TrimColdStack();
  // Parked at shallow depth, nearly the whole 512 KiB stack below the
  // parked frame is cold; the trim must reclaim at least the ~160 KiB the
  // deep recursion dirtied.
  EXPECT_GT(fiber.trimmed_bytes(), size_t{160} * 1024);
  EXPECT_EQ(resident, fiber.stack_bytes() - fiber.trimmed_bytes());
  EXPECT_LT(resident, fiber.stack_bytes());

  // The proof that the trim was safe: the resumed continuation recurses
  // straight back through the madvised region and completes.
  fiber.Resume();
  EXPECT_TRUE(fiber.finished());
  EXPECT_TRUE(finished_cleanly);
  EXPECT_EQ(fiber.trimmed_bytes(), 0u);  // reset on resume
}

TEST(FiberTrimTest, RouterReportsTrimmedResidencyForParkedSessions) {
  const Query target = TestTarget();
  SessionRouter::Options ropts;
  ropts.threads = 1;
  SessionRouter router(ropts);
  int64_t id = router.OpenPending(target.n());
  ASSERT_TRUE(router.SubmitVerify(id, target));
  router.Drain();
  ASSERT_EQ(router.status(id), SessionStatus::kAwaitingUser);
  ServiceStats stats = router.stats();
  EXPECT_EQ(stats.awaiting_sessions, 1);
  // Resident, not mapped: more than zero (the parked frame itself) but
  // well under the 512 KiB the pre-trim accounting used to report.
  EXPECT_GT(stats.snapshot_bytes, 0);
  EXPECT_LT(stats.snapshot_bytes, 256 * 1024);
  router.Close(id);
}

#endif  // __linux__ && __x86_64__

}  // namespace
}  // namespace qhorn
