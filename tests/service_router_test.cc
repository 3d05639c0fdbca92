// The concurrent session service: Executor, CompiledQueryCache and
// SessionRouter.
//
// The load-bearing property is determinism under concurrency: a session's
// transcript depends only on its own job sequence, never on scheduling.
// The stress tests drive 8–64 concurrent sessions over mixed
// learn/verify/revise workloads on a multi-lane router and assert every
// per-session observable equals a single-threaded replay of the same jobs.
// Run under the tsan preset in CI.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <latch>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "src/core/normalize.h"
#include "src/core/random_query.h"
#include "src/learn/pac.h"
#include "src/session/router.h"
#include "src/util/executor.h"
#include "tests/session_fingerprint.h"

namespace qhorn {
namespace {

// ---------------------------------------------------------------------------
// Executor.

TEST(ExecutorTest, PostRunsInlineAtConcurrencyOne) {
  Executor executor(1);
  bool ran = false;
  executor.Post([&] { ran = true; });
  EXPECT_TRUE(ran) << "a 1-lane executor is synchronous";
}

TEST(ExecutorTest, TaskPostedFromARunningTaskRunsBeforeDestruction) {
  for (int round = 0; round < 20; ++round) {
    std::atomic<bool> inner_ran{false};
    {
      Executor executor(4);
      executor.Post([&] {
        // Still running when the destructor starts: the other workers may
        // already have found the queue empty and exited.
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        executor.Post([&] { inner_ran.store(true); });
      });
    }
    EXPECT_TRUE(inner_ran.load()) << "round " << round;
  }
}

TEST(ExecutorTest, OneWorkerRunsTasksInPostOrder) {
  std::vector<int> order;
  {
    Executor executor(2);  // one worker thread
    for (int i = 0; i < 100; ++i) {
      executor.Post([&order, i] { order.push_back(i); });
    }
  }
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(ExecutorTest, QhornThreadsOverridesDefaultConcurrency) {
  // The override is read per call, so the test can set it temporarily.
  setenv("QHORN_THREADS", "3", /*overwrite=*/1);
  EXPECT_EQ(Executor::DefaultConcurrency(), 3);
  setenv("QHORN_THREADS", "not-a-number", 1);
  EXPECT_GE(Executor::DefaultConcurrency(), 1);
  unsetenv("QHORN_THREADS");
  EXPECT_GE(Executor::DefaultConcurrency(), 1);
}

// ---------------------------------------------------------------------------
// CompiledQueryCache.

TEST(CompiledQueryCacheTest, EquivalentQueriesShareOneCompile) {
  CompiledQueryCache cache;
  // R3: ∃x1x3 absorbs the implied head x2, so these two queries share a
  // canonical form and must share one compiled entry.
  Query a = Query::Parse("∀x1→x2 ∃x1x3", 3);
  Query b = Query::Parse("∀x1→x2 ∃x1x2x3", 3);
  ASSERT_TRUE(Equivalent(a, b));
  auto ca = cache.Get(a, EvalOptions());
  auto cb = cache.Get(b, EvalOptions());
  EXPECT_EQ(ca.get(), cb.get());
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(cache.misses(), 1);
}

TEST(CompiledQueryCacheTest, GuaranteeModesDoNotAlias) {
  CompiledQueryCache cache;
  // Relaxed evaluation ignores guarantee clauses, so the two modes answer
  // differently for this query ({} is an answer iff guarantees are off) —
  // they must compile separately.
  Query q = Query::Parse("∀x1→x2", 2);
  EvalOptions strict;
  EvalOptions relaxed;
  relaxed.require_guarantees = false;
  auto cs = cache.Get(q, strict);
  auto cr = cache.Get(q, relaxed);
  EXPECT_NE(cs.get(), cr.get());
  TupleSet empty;
  EXPECT_FALSE(cs->Evaluate(empty));
  EXPECT_TRUE(cr->Evaluate(empty));

  // Equal *strict* canonical forms are not enough under relaxed
  // semantics: ∀x1→x2 and ∀x1→x2 ∃x1x2 are strictly equivalent (the
  // explicit conjunction is the guarantee clause), yet differ relaxed —
  // the relaxed key must separate them.
  Query e = Query::Parse("∀x1→x2 ∃x1x2", 2);
  ASSERT_TRUE(Equivalent(q, e));  // strict-mode semantic equivalence
  auto ce = cache.Get(e, relaxed);
  EXPECT_NE(cr.get(), ce.get());
  EXPECT_FALSE(ce->Evaluate(empty));
}

TEST(CompiledQueryCacheTest, CachedCompileAnswersLikeAFreshOne) {
  CompiledQueryCache cache;
  Rng rng(5);
  for (int i = 0; i < 20; ++i) {
    RpOptions opts;
    opts.num_heads = 1 + static_cast<int>(rng.Range(0, 1));
    opts.theta = 2;
    opts.num_conjunctions = 2;
    Query q = RandomRolePreserving(8, rng, opts);
    auto shared = cache.Get(q, EvalOptions());
    CompiledQuery fresh(q);
    for (int j = 0; j < 50; ++j) {
      TupleSet object = RandomObject(8, rng, 6);
      ASSERT_EQ(shared->Evaluate(object), fresh.Evaluate(object))
          << q.ToString() << " on " << object.ToString(8);
    }
  }
}

// ---------------------------------------------------------------------------
// SessionRouter: ordering, stats, aggregate behaviour.

TEST(SessionRouterTest, JobsOfOneSessionRunInSubmissionOrder) {
  SessionRouter::Options opts;
  opts.threads = 4;
  SessionRouter router(opts);
  Query target = Query::Parse("∀x1x2→x4 ∃x3", 4);
  SessionRouter::SessionId id = router.OpenSimulated(target);
  std::vector<int> order;
  std::mutex order_mutex;
  for (int i = 0; i < 16; ++i) {
    router.Submit(id, [i, &order, &order_mutex](QuerySession&) {
      std::lock_guard<std::mutex> lock(order_mutex);
      order.push_back(i);
    });
  }
  router.Drain();
  ASSERT_EQ(order.size(), 16u);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(SessionRouterTest, JobSubmittedFromARunningJobRuns) {
  // A job may Submit to its own session: the session's runner is still
  // live, so the second job joins the same run instead of a second runner.
  // Direct and pending sessions alike, inline (1 lane) and on workers.
  for (bool pending : {false, true}) {
    for (int lanes : {1, 4}) {
      SessionRouter::Options opts;
      opts.threads = lanes;
      SessionRouter router(opts);
      SessionRouter::SessionId id =
          pending ? router.OpenPending(4)
                  : router.OpenSimulated(Query::Parse("∀x1x2→x4 ∃x3", 4));
      std::vector<int> order;
      std::mutex order_mutex;
      auto record = [&order, &order_mutex](int job) {
        std::lock_guard<std::mutex> lock(order_mutex);
        order.push_back(job);
      };
      ASSERT_TRUE(router.Submit(id, [&router, id, record](QuerySession&) {
        record(1);
        EXPECT_TRUE(
            router.Submit(id, [record](QuerySession&) { record(2); }));
      }));
      router.Drain();
      EXPECT_EQ(order, (std::vector<int>{1, 2}))
          << (pending ? "pending" : "direct") << " session, " << lanes
          << " lanes";
      EXPECT_EQ(router.status(id), SessionStatus::kIdle);
      EXPECT_EQ(router.stats().jobs, 2);
    }
  }
}

TEST(SessionRouterTest, ClosedDirectSessionDrainsItsQueuedJobs) {
  // Close stops new jobs, not queued ones: a direct session closed while
  // its first job runs still runs the job queued behind it.
  SessionRouter::Options opts;
  opts.threads = 2;
  SessionRouter router(opts);
  SessionRouter::SessionId id =
      router.OpenSimulated(Query::Parse("∀x1x2→x4 ∃x3", 4));
  std::latch release(1);
  std::atomic<int> ran{0};
  ASSERT_TRUE(router.Submit(id, [&release, &ran](QuerySession&) {
    release.wait();
    ++ran;
  }));
  ASSERT_TRUE(router.Submit(id, [&ran](QuerySession&) { ++ran; }));
  EXPECT_TRUE(router.Close(id));
  EXPECT_FALSE(router.Submit(id, [&ran](QuerySession&) { ran += 100; }));
  release.count_down();
  router.Drain();
  EXPECT_EQ(ran.load(), 2);
  EXPECT_EQ(router.status(id), SessionStatus::kIdle);
  EXPECT_EQ(router.stats().jobs, 2);
}

TEST(SessionRouterTest, StatsIsReadableWhileJobsRun) {
  // stats() is a legal call on a live service: one thread polls it while
  // learn jobs run on 4 lanes. Learning only adds questions, so every poll
  // reads counters between zero and the drained totals, never falling.
  SessionRouter::Options opts;
  opts.threads = 4;
  SessionRouter router(opts);
  std::atomic<bool> done{false};
  std::atomic<int64_t> polls{0};
  std::thread poller([&] {
    int64_t last_questions = 0;
    int64_t last_rounds = 0;
    while (!done.load()) {
      const ServiceStats stats = router.stats();
      EXPECT_GE(stats.questions, last_questions);
      EXPECT_GE(stats.rounds, last_rounds);
      last_questions = stats.questions;
      last_rounds = stats.rounds;
      ++polls;
    }
  });
  Rng rng(41);
  RpOptions qopts;
  qopts.theta = 2;
  qopts.num_conjunctions = 2;
  std::vector<SessionRouter::SessionId> ids;
  for (int s = 0; s < 24; ++s) {
    qopts.num_heads = s % 3;
    ids.push_back(
        router.OpenSimulated(RandomRolePreserving(8 + s % 4, rng, qopts)));
    ASSERT_TRUE(router.SubmitLearn(ids.back()));
  }
  router.Drain();
  // Let the poller see the drained service at least once.
  const int64_t polls_at_drain = polls.load();
  while (polls.load() < polls_at_drain + 2) std::this_thread::yield();
  done = true;
  poller.join();

  const ServiceStats stats = router.stats();
  int64_t questions = 0;
  int64_t rounds = 0;
  for (SessionRouter::SessionId id : ids) {
    questions += router.session(id).questions_asked();
    rounds += router.session(id).rounds();
  }
  EXPECT_EQ(stats.learns, 24);
  EXPECT_GT(questions, 0);
  EXPECT_EQ(stats.questions, questions);
  EXPECT_EQ(stats.rounds, rounds);
}

TEST(SessionRouterTest, LearnVerifyReviseAcrossSessions) {
  SessionRouter::Options opts;
  opts.threads = 4;
  SessionRouter router(opts);
  Query target = Query::Parse("∀x1x2→x5 ∃x3x4", 5);
  std::vector<SessionRouter::SessionId> ids;
  for (int s = 0; s < 12; ++s) {
    ids.push_back(router.OpenSimulated(target));
  }
  for (size_t s = 0; s < ids.size(); ++s) {
    switch (s % 3) {
      case 0:
        router.SubmitLearn(ids[s]);
        break;
      case 1:
        router.SubmitVerify(ids[s], target);
        break;
      default:
        router.SubmitRevise(ids[s], Query::Parse("∀x1x2→x5 ∃x3x4x5", 5));
        break;
    }
  }
  router.Drain();
  ServiceStats stats = router.stats();
  EXPECT_EQ(stats.sessions, 12);
  EXPECT_EQ(stats.jobs, 12);
  EXPECT_EQ(stats.learns, 4);
  EXPECT_EQ(stats.verifies, 4);
  EXPECT_EQ(stats.revisions, 4);
  EXPECT_EQ(stats.compiled_misses, 1) << "12 sessions share one compile";
  EXPECT_EQ(stats.compiled_hits, 11);
  EXPECT_GT(stats.questions, 0);
  EXPECT_GT(stats.rounds, 0);
  for (SessionRouter::SessionId id : ids) {
    ASSERT_TRUE(router.session(id).current_query().has_value());
    EXPECT_TRUE(Equivalent(*router.session(id).current_query(), target));
  }
}

// ---------------------------------------------------------------------------
// The stress test (the router's contract): per-session transcripts under a
// many-lane router equal their single-threaded replays, job for job.

struct SessionPlan {
  Query target;
  // 0 = learn, 1 = verify(correct), 2 = verify(wrong), 3 = revise(close).
  std::vector<int> jobs;
  Query wrong;
  Query close;
};

SessionPlan MakePlan(int n, uint64_t seed) {
  Rng rng(seed);
  RpOptions opts;
  opts.num_heads = static_cast<int>(rng.Range(0, 2));
  opts.theta = 2;
  opts.num_conjunctions = static_cast<int>(rng.Range(1, 3));
  opts.conj_size_max = std::min(4, n);
  SessionPlan plan;
  plan.target = RandomRolePreserving(n, rng, opts);
  plan.wrong = RandomRolePreserving(n, rng, opts);
  plan.close = plan.target;  // revise from the target itself: quick + valid
  size_t job_count = 1 + static_cast<size_t>(rng.Range(0, 2));
  plan.jobs.push_back(0);  // always start with a learn
  for (size_t j = 1; j < job_count; ++j) {
    plan.jobs.push_back(static_cast<int>(rng.Range(0, 3)));
  }
  return plan;
}

void SubmitPlan(SessionRouter& router, SessionRouter::SessionId id,
                const SessionPlan& plan) {
  for (int job : plan.jobs) {
    switch (job) {
      case 0:
        router.SubmitLearn(id);
        break;
      case 1:
        router.SubmitVerify(id, plan.target);
        break;
      case 2:
        router.SubmitVerify(id, plan.wrong);
        break;
      default:
        router.SubmitRevise(id, plan.close);
        break;
    }
  }
}

class RouterStressTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(RouterStressTest, TranscriptsEqualSingleThreadedReplay) {
  auto [sessions, threads] = GetParam();
  int n = 8;

  std::vector<SessionPlan> plans;
  for (int s = 0; s < sessions; ++s) {
    plans.push_back(MakePlan(n, 1000 + static_cast<uint64_t>(s)));
  }

  auto run = [&](int lanes) {
    std::vector<std::string> fingerprints;
    SessionRouter::Options opts;
    opts.threads = lanes;
    SessionRouter router(opts);
    std::vector<SessionRouter::SessionId> ids;
    for (int s = 0; s < sessions; ++s) {
      ids.push_back(router.OpenSimulated(plans[static_cast<size_t>(s)].target));
    }
    for (int s = 0; s < sessions; ++s) {
      SubmitPlan(router, ids[static_cast<size_t>(s)],
                 plans[static_cast<size_t>(s)]);
    }
    router.Drain();
    for (int s = 0; s < sessions; ++s) {
      fingerprints.push_back(
          SessionFingerprint(router.session(ids[static_cast<size_t>(s)])));
    }
    return fingerprints;
  };

  std::vector<std::string> concurrent = run(threads);
  std::vector<std::string> replay = run(1);
  ASSERT_EQ(concurrent.size(), replay.size());
  for (size_t s = 0; s < concurrent.size(); ++s) {
    EXPECT_EQ(concurrent[s], replay[s])
        << "session " << s << " diverged under " << threads << " lanes";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RouterStressTest,
    ::testing::Values(std::make_tuple(8, 4), std::make_tuple(16, 4),
                      std::make_tuple(32, 8), std::make_tuple(64, 8)));

}  // namespace
}  // namespace qhorn
