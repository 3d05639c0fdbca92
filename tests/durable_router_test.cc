// DurableRouter: log-before-ack, typed refusal on a failed commit, and
// recovery that is observably a service that never crashed.
//
// The kLogWriteFailed pin lives here: a refused durable append must
// surface as a typed outcome with the session — pending round included —
// untouched, and the identical retried call must succeed. The crash
// differential (durable_crash_test.cc) exercises the same paths under a
// seeded failing machine; this suite pins each path in isolation.
//
// CTest label: durable.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/durable/durable_router.h"
#include "src/durable/fs.h"
#include "src/durable/session_log.h"
#include "src/oracle/oracle.h"
#include "src/util/bit_span.h"
#include "src/workload/fingerprint.h"
#include "src/workload/workload.h"

namespace qhorn {
namespace {

constexpr char kLogDir[] = "qlog";

DurableRouterOptions Opts(int shards = 2) {
  DurableRouterOptions opts;
  opts.router.threads = 1;  // synchronous lanes: simplest deterministic base
  opts.log.fsync_policy = FsyncPolicy::kEveryAppend;
  opts.shards = shards;
  return opts;
}

/// Clean (reliable, completing) specs drawn from a generated fleet, so the
/// sessions exercised here are the same shapes the fuzz fleets produce.
std::vector<SessionSpec> CleanSpecs(size_t want) {
  std::vector<SessionSpec> out;
  for (uint64_t seed = 1; out.size() < want; ++seed) {
    Fleet fleet = GenerateFleet(WorkloadSpec::FromSeed(seed));
    for (const SessionSpec& s : fleet.sessions) {
      if (!s.noisy() && !s.abandon && !s.jobs.empty()) out.push_back(s);
      if (out.size() == want) break;
    }
  }
  return out;
}

/// Answers every pending round of `id` with ground truth until the session
/// runs out of jobs. Returns rounds answered.
int64_t DriveToCompletion(DurableRouter& dr, DurableRouter::SessionId id,
                          const SessionSpec& spec) {
  QueryOracle truth(spec.target);
  BitVec bits;
  int64_t answered = 0;
  for (;;) {
    dr.Drain();
    std::vector<PendingRound> rounds = dr.PendingRounds();
    const PendingRound* mine = nullptr;
    for (const PendingRound& r : rounds) {
      if (r.session_id == id) mine = &r;
    }
    if (mine == nullptr) break;
    BitSpan span = bits.Prepare(mine->questions.size());
    truth.IsAnswerBatch(mine->questions, span);
    ProvideOutcome out = dr.ProvideAnswers(id, mine->round_id, span);
    if (out != ProvideOutcome::kResumed) {
      ADD_FAILURE() << "ProvideAnswers: " << ToString(out);
      break;
    }
    ++answered;
  }
  return answered;
}

TEST(DurableRouterTest, CreateWritesShardHeadersUpFront) {
  MemFs mem;
  std::string error;
  auto dr = DurableRouter::Create(&mem, kLogDir, Opts(/*shards=*/3), &error);
  ASSERT_NE(dr, nullptr) << error;
  EXPECT_EQ(dr->records_logged(), 0);
  for (int s = 0; s < 3; ++s) {
    std::string path = DurableRouter::ShardPath(kLogDir, s);
    EXPECT_TRUE(mem.FileExists(path)) << path;
    EXPECT_EQ(mem.DurableSize(path), SessionLog::kHeaderSize) << path;
  }
}

TEST(DurableRouterTest, EveryProtocolCallIsLoggedBeforeAck) {
  MemFs mem;
  std::string error;
  auto dr = DurableRouter::Create(&mem, kLogDir, Opts(), &error);
  ASSERT_NE(dr, nullptr) << error;

  SessionSpec spec = CleanSpecs(1)[0];
  DurableRouter::SessionId id = dr->OpenPending(spec);
  EXPECT_EQ(id, 1) << "session ids are sequential from 1";
  EXPECT_EQ(dr->records_logged(), 1);

  int64_t rounds = 0;
  { SCOPED_TRACE("drive"); rounds = DriveToCompletion(*dr, id, spec); }
  EXPECT_GT(rounds, 0) << "a clean spec with jobs must ask something";
  EXPECT_EQ(dr->records_logged(), 1 + rounds);

  EXPECT_TRUE(dr->Close(id));
  EXPECT_EQ(dr->records_logged(), 2 + rounds);
  // A refused close is not logged: the close record is appended from the
  // router's commit hook, which runs only for a close that takes effect.
  EXPECT_FALSE(dr->Close(id));
  EXPECT_EQ(dr->records_logged(), 2 + rounds)
      << "refused calls must not leave records behind";

  // The shard really carries the session: opened first, closed last.
  std::string path = DurableRouter::ShardPath(kLogDir, /*shard=*/id % 2);
  LogReadResult r = ReadLog(&mem, path);
  ASSERT_EQ(r.status, LogReadStatus::kOk) << r.error;
  ASSERT_EQ(r.records.size(), static_cast<size_t>(2 + rounds));
  EXPECT_EQ(r.records.front().type, LogRecordType::kSessionOpened);
  EXPECT_EQ(r.records.back().type, LogRecordType::kSessionClosed);
}

TEST(DurableRouterTest, SessionsShardByExternalId) {
  MemFs mem;
  std::string error;
  auto dr = DurableRouter::Create(&mem, kLogDir, Opts(/*shards=*/2), &error);
  ASSERT_NE(dr, nullptr) << error;
  std::vector<SessionSpec> specs = CleanSpecs(3);
  for (const SessionSpec& s : specs) ASSERT_GT(dr->OpenPending(s), 0);

  // External ids 1, 2, 3 over 2 shards: shard-1 gets two opens, shard-0 one.
  LogReadResult s0 = ReadLog(&mem, DurableRouter::ShardPath(kLogDir, 0));
  LogReadResult s1 = ReadLog(&mem, DurableRouter::ShardPath(kLogDir, 1));
  ASSERT_EQ(s0.status, LogReadStatus::kOk);
  ASSERT_EQ(s1.status, LogReadStatus::kOk);
  ASSERT_EQ(s0.records.size(), 1u);
  ASSERT_EQ(s1.records.size(), 2u);
  EXPECT_EQ(s0.records[0].session_id, 2);
  EXPECT_EQ(s1.records[0].session_id, 1);
  EXPECT_EQ(s1.records[1].session_id, 3);
}

// Concurrent opens race on id assignment: each must log, open and return
// an id no other open got, and recovery must find one session per id.
TEST(DurableRouterTest, ConcurrentOpensGetDistinctIds) {
  constexpr int kThreads = 4;
  constexpr int kOpensPerThread = 256;
  constexpr int kSessions = kThreads * kOpensPerThread;
  MemFs mem;
  std::string error;
  auto dr = DurableRouter::Create(&mem, kLogDir, Opts(), &error);
  ASSERT_NE(dr, nullptr) << error;
  const std::vector<SessionSpec> specs = CleanSpecs(8);

  std::vector<std::vector<DurableRouter::SessionId>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kOpensPerThread; ++i) {
        got[static_cast<size_t>(t)].push_back(
            dr->OpenPending(specs[static_cast<size_t>(i) % specs.size()]));
      }
    });
  }
  for (std::thread& th : threads) th.join();

  std::set<DurableRouter::SessionId> ids;
  for (const auto& per_thread : got) ids.insert(per_thread.begin(), per_thread.end());
  ASSERT_EQ(ids.size(), static_cast<size_t>(kSessions)) << "an id was handed out twice";
  EXPECT_EQ(*ids.begin(), 1);
  EXPECT_EQ(*ids.rbegin(), kSessions);
  dr->Drain();
  for (DurableRouter::SessionId id : ids) {
    EXPECT_TRUE(dr->status(id).has_value()) << "session " << id;
  }
  dr.reset();

  RecoveryReport report;
  auto rec = DurableRouter::Recover(&mem, kLogDir, Opts(), &report, &error);
  ASSERT_NE(rec, nullptr) << error;
  EXPECT_EQ(report.sessions_recovered, kSessions);
  EXPECT_EQ(report.duplicate_records_skipped, 0);
}

TEST(DurableRouterTest, GarbageIdsAreRefusedNotLogged) {
  MemFs mem;
  std::string error;
  auto dr = DurableRouter::Create(&mem, kLogDir, Opts(), &error);
  ASSERT_NE(dr, nullptr) << error;

  BitVec bits;
  EXPECT_EQ(dr->ProvideAnswers(42, 0, bits.Prepare(1)),
            ProvideOutcome::kUnknownSession);
  EXPECT_FALSE(dr->Close(42));
  EXPECT_EQ(dr->status(42), std::nullopt);
  EXPECT_EQ(dr->records_logged(), 0)
      << "refused calls must not leave records behind";
}

// Repeated closes must not grow the log: only the close that takes effect
// is logged, also when several callers race to close one session.
TEST(DurableRouterTest, RepeatedClosesLeaveTheLogFlat) {
  MemFs mem;
  std::string error;
  auto dr = DurableRouter::Create(&mem, kLogDir, Opts(), &error);
  ASSERT_NE(dr, nullptr) << error;
  std::vector<SessionSpec> specs = CleanSpecs(2);

  DurableRouter::SessionId id = dr->OpenPending(specs[0]);
  ASSERT_EQ(dr->records_logged(), 1);
  EXPECT_TRUE(dr->Close(id));
  EXPECT_EQ(dr->records_logged(), 2);
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(dr->Close(id));
    EXPECT_EQ(dr->records_logged(), 2) << "repeat close " << i << " logged";
  }

  DurableRouter::SessionId raced = dr->OpenPending(specs[1]);
  dr->Drain();
  const int64_t before = dr->records_logged();
  std::atomic<int> closed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      if (dr->Close(raced)) closed.fetch_add(1);
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(closed.load(), 1);
  EXPECT_EQ(dr->records_logged(), before + 1);
}

/// Specs a router cannot run: n = 0, n past kMaxVars, and a verify job
/// whose target has the wrong arity. Each would abort the open.
std::vector<SessionSpec> UnrunnableSpecs() {
  const SessionSpec base = CleanSpecs(1)[0];
  SessionSpec empty = base;
  empty.n = 0;
  SessionSpec wide = base;
  wide.n = kMaxVars + 1;
  SessionSpec mismatched = base;
  mismatched.target = Query(base.n + 1);
  mismatched.jobs = {WorkloadJob::kVerifyTarget};
  return {empty, wide, mismatched};
}

TEST(DurableRouterTest, UnrunnableSpecsAreRefusedBeforeTheLog) {
  MemFs mem;
  std::string error;
  {
    auto dr = DurableRouter::Create(&mem, kLogDir, Opts(), &error);
    ASSERT_NE(dr, nullptr) << error;
    for (const SessionSpec& spec : UnrunnableSpecs()) {
      EXPECT_EQ(dr->OpenPending(spec), 0) << "n=" << spec.n;
    }
    EXPECT_EQ(dr->records_logged(), 0)
        << "refused calls must not leave records behind";
  }
  mem.CrashAll();

  RecoveryReport report;
  auto rec = DurableRouter::Recover(&mem, kLogDir, Opts(), &report, &error);
  ASSERT_NE(rec, nullptr) << error;
  EXPECT_EQ(report.records_read, 0);
  EXPECT_EQ(report.sessions_recovered, 0);
  // The refusals consumed no id.
  EXPECT_EQ(rec->OpenPending(CleanSpecs(1)[0]), 1);
}

// A log that carries an unrunnable spec anyway (appended below the
// durable layer) is refused with a typed error instead of aborting.
TEST(DurableRouterTest, RecoverRefusesALoggedUnrunnableSpec) {
  for (const SessionSpec& spec : UnrunnableSpecs()) {
    MemFs mem;
    std::string error;
    ASSERT_NE(DurableRouter::Create(&mem, kLogDir, Opts(), &error), nullptr)
        << error;
    {
      auto log = SessionLog::Open(&mem, DurableRouter::ShardPath(kLogDir, 1),
                                  Opts().log, &error);
      ASSERT_NE(log, nullptr) << error;
      ASSERT_TRUE(log->AppendSessionOpened(1, spec));
    }
    mem.CrashAll();

    RecoveryReport report;
    auto rec = DurableRouter::Recover(&mem, kLogDir, Opts(), &report, &error);
    EXPECT_EQ(rec, nullptr) << "recovered a log opening n=" << spec.n;
    EXPECT_FALSE(error.empty()) << "n=" << spec.n;
  }
}

TEST(DurableRouterTest, RecoverOnEmptyLogsIsAFreshService) {
  MemFs mem;
  std::string error;
  { ASSERT_NE(DurableRouter::Create(&mem, kLogDir, Opts(), &error), nullptr); }
  RecoveryReport report;
  auto dr = DurableRouter::Recover(&mem, kLogDir, Opts(), &report, &error);
  ASSERT_NE(dr, nullptr) << error;
  EXPECT_EQ(report.records_read, 0);
  EXPECT_EQ(report.sessions_recovered, 0);
  EXPECT_GT(dr->OpenPending(CleanSpecs(1)[0]), 0);
}

// The tentpole contract: kill the service mid-fleet, recover from the log
// alone, and the observable state — pending rounds, round ids, and the
// final fingerprints after the fleet finishes — is bit-identical to a
// service that never crashed.
TEST(DurableRouterTest, RecoveryIsObservablyIdenticalMidSession) {
  std::vector<SessionSpec> specs = CleanSpecs(3);

  // Reference arm: same specs, no crash.
  std::vector<std::string> want_prints(specs.size());
  {
    MemFs ref_mem;
    std::string error;
    auto ref = DurableRouter::Create(&ref_mem, kLogDir, Opts(), &error);
    ASSERT_NE(ref, nullptr) << error;
    for (size_t i = 0; i < specs.size(); ++i) {
      DurableRouter::SessionId id = ref->OpenPending(specs[i]);
      ASSERT_EQ(id, static_cast<DurableRouter::SessionId>(i + 1));
      DriveToCompletion(*ref, id, specs[i]);
      want_prints[i] = SessionFingerprint(ref->session(id));
    }
  }

  // Crash arm: open everything, answer exactly one round each, die.
  MemFs mem;
  std::string error;
  auto dr = DurableRouter::Create(&mem, kLogDir, Opts(), &error);
  ASSERT_NE(dr, nullptr) << error;
  for (const SessionSpec& s : specs) ASSERT_GT(dr->OpenPending(s), 0);
  dr->Drain();
  std::vector<PendingRound> before = dr->PendingRounds();
  ASSERT_EQ(before.size(), specs.size());
  BitVec bits;
  for (const PendingRound& r : before) {
    QueryOracle truth(specs[r.session_id - 1].target);
    BitSpan span = bits.Prepare(r.questions.size());
    truth.IsAnswerBatch(r.questions, span);
    ASSERT_EQ(dr->ProvideAnswers(r.session_id, r.round_id, span),
              ProvideOutcome::kResumed);
  }
  dr->Drain();
  std::vector<PendingRound> acked = dr->PendingRounds();

  dr.reset();      // the process dies…
  mem.CrashAll();  // …and every unsynced byte dies with it

  RecoveryReport report;
  auto rec = DurableRouter::Recover(&mem, kLogDir, Opts(), &report, &error);
  ASSERT_NE(rec, nullptr) << error;
  EXPECT_EQ(report.sessions_recovered,
            static_cast<int64_t>(specs.size()));
  EXPECT_EQ(report.sessions_closed, 0);
  EXPECT_EQ(report.rounds_replayed, static_cast<int64_t>(specs.size()));

  // Acknowledged answers survived: the rounds pending now are exactly the
  // rounds that were pending at the moment of death.
  rec->Drain();
  std::vector<PendingRound> after = rec->PendingRounds();
  ASSERT_EQ(after.size(), acked.size());
  for (size_t i = 0; i < after.size(); ++i) {
    EXPECT_EQ(after[i].session_id, acked[i].session_id);
    EXPECT_EQ(after[i].round_id, acked[i].round_id);
    EXPECT_EQ(after[i].questions, acked[i].questions);
  }

  // One id across layers: the recovered router stores each session under
  // the id the durable layer logged, and its rounds carry that id.
  ASSERT_FALSE(after.empty());
  for (size_t i = 0; i < specs.size(); ++i) {
    const auto id = static_cast<DurableRouter::SessionId>(i + 1);
    EXPECT_EQ(rec->router().status(id), rec->status(id)) << "session " << id;
  }
  for (const PendingRound& r : after) {
    std::optional<PendingRound> round = rec->router().pending_round(r.session_id);
    ASSERT_TRUE(round.has_value()) << "session " << r.session_id;
    EXPECT_EQ(round->session_id, r.session_id);
  }

  // Finish the fleet on the recovered service; observables must match the
  // never-crashed reference bit for bit.
  for (size_t i = 0; i < specs.size(); ++i) {
    DurableRouter::SessionId id = static_cast<DurableRouter::SessionId>(i + 1);
    DriveToCompletion(*rec, id, specs[i]);
    EXPECT_EQ(SessionFingerprint(rec->session(id)), want_prints[i])
        << "session " << id << " diverged after recovery";
  }
}

TEST(DurableRouterTest, RecoverReclosesClosedSessions) {
  MemFs mem;
  std::string error;
  auto dr = DurableRouter::Create(&mem, kLogDir, Opts(), &error);
  ASSERT_NE(dr, nullptr) << error;
  SessionSpec spec = CleanSpecs(1)[0];
  DurableRouter::SessionId id = dr->OpenPending(spec);
  DriveToCompletion(*dr, id, spec);
  ASSERT_TRUE(dr->Close(id));
  dr.reset();
  mem.CrashAll();

  RecoveryReport report;
  auto rec = DurableRouter::Recover(&mem, kLogDir, Opts(), &report, &error);
  ASSERT_NE(rec, nullptr) << error;
  EXPECT_EQ(report.sessions_recovered, 1);
  EXPECT_EQ(report.sessions_closed, 1);
  EXPECT_FALSE(rec->Close(id)) << "the close outlived the crash";
  BitVec bits;
  EXPECT_EQ(rec->ProvideAnswers(id, 0, bits.Prepare(1)),
            ProvideOutcome::kSessionClosed);
}

// A log is recovered only under the shard count it was written with.
// Fewer shards would skip whole files; more would place a session's new
// records in a different file than its history.
TEST(DurableRouterTest, RecoverRefusesADifferentShardCount) {
  MemFs mem;
  std::string error;
  std::vector<SessionSpec> specs = CleanSpecs(8);
  {
    auto dr = DurableRouter::Create(&mem, kLogDir, Opts(/*shards=*/4), &error);
    ASSERT_NE(dr, nullptr) << error;
    for (const SessionSpec& s : specs) ASSERT_GT(dr->OpenPending(s), 0);
    dr->Drain();
  }
  mem.CrashAll();

  RecoveryReport report;
  for (int shards : {2, 8}) {
    auto rec =
        DurableRouter::Recover(&mem, kLogDir, Opts(shards), &report, &error);
    EXPECT_EQ(rec, nullptr) << "recovered a 4-shard log at " << shards
                            << " shards (" << report.sessions_recovered
                            << " sessions)";
    EXPECT_FALSE(error.empty()) << "at " << shards << " shards";
  }
  auto rec = DurableRouter::Recover(&mem, kLogDir, Opts(4), &report, &error);
  ASSERT_NE(rec, nullptr) << error;
  EXPECT_EQ(report.sessions_recovered, static_cast<int64_t>(specs.size()));
}

TEST(DurableRouterTest, TornShardTailIsTruncatedLoudly) {
  MemFs mem;
  std::string error;
  auto dr = DurableRouter::Create(&mem, kLogDir, Opts(), &error);
  ASSERT_NE(dr, nullptr) << error;
  SessionSpec spec = CleanSpecs(1)[0];
  DurableRouter::SessionId id = dr->OpenPending(spec);
  dr->Drain();
  dr.reset();

  // Power loss mid-append: a partial frame lands durably on the session's
  // shard past the last complete record.
  std::string shard = DurableRouter::ShardPath(kLogDir, id % 2);
  auto f = mem.OpenAppend(shard);
  // 3 bytes of a length prefix (explicit length: the bytes include NULs).
  ASSERT_TRUE(f->Append(std::string_view("\x09\x00\x00", 3)));
  ASSERT_TRUE(f->Sync());
  mem.CrashAll();

  RecoveryReport report;
  auto rec = DurableRouter::Recover(&mem, kLogDir, Opts(), &report, &error);
  ASSERT_NE(rec, nullptr) << error;
  EXPECT_EQ(report.torn_tails_truncated, 1);
  EXPECT_EQ(report.torn_bytes_dropped, 3);
  EXPECT_EQ(report.sessions_recovered, 1);
  // The shard file itself was chopped: a second recovery sees a clean log.
  RecoveryReport again;
  rec.reset();
  auto rec2 = DurableRouter::Recover(&mem, kLogDir, Opts(), &again, &error);
  ASSERT_NE(rec2, nullptr) << error;
  EXPECT_EQ(again.torn_tails_truncated, 0);
}

TEST(DurableRouterTest, BitRotMakesRecoveryRefuseTheLog) {
  MemFs mem;
  std::string error;
  auto dr = DurableRouter::Create(&mem, kLogDir, Opts(), &error);
  ASSERT_NE(dr, nullptr) << error;
  SessionSpec spec = CleanSpecs(1)[0];
  DurableRouter::SessionId id = dr->OpenPending(spec);
  dr->Drain();
  dr.reset();

  std::string shard = DurableRouter::ShardPath(kLogDir, id % 2);
  mem.FlipDurableBitForTest(shard, (SessionLog::kHeaderSize + 9) * 8 + 4);

  RecoveryReport report;
  auto rec = DurableRouter::Recover(&mem, kLogDir, Opts(), &report, &error);
  EXPECT_EQ(rec, nullptr)
      << "a log recovery cannot vouch for must never be half-replayed";
  EXPECT_NE(error.find("corrupt"), std::string::npos) << error;
}

// Satellite 6: the typed refusal. A durable append that fails must surface
// as kLogWriteFailed with the session untouched, and the identical call
// must succeed once the log is healthy.
TEST(DurableRouterTest, LogWriteFailedLeavesSessionUntouchedAndRetries) {
  MemFs mem;
  FaultFs faults(&mem, /*seed=*/21);
  std::string error;
  auto dr = DurableRouter::Create(&faults, kLogDir, Opts(), &error);
  ASSERT_NE(dr, nullptr) << error;

  SessionSpec spec = CleanSpecs(1)[0];
  DurableRouter::SessionId id = dr->OpenPending(spec);
  dr->Drain();
  std::vector<PendingRound> rounds = dr->PendingRounds();
  ASSERT_EQ(rounds.size(), 1u);
  PendingRound round = rounds[0];
  int64_t logged_before = dr->records_logged();

  QueryOracle truth(spec.target);
  BitVec bits;
  BitSpan span = bits.Prepare(round.questions.size());
  truth.IsAnswerBatch(round.questions, span);

  // A sync failure refuses the commit (kEveryAppend: un-synced is un-acked).
  faults.ArmSyncFailure(/*after=*/1);
  EXPECT_EQ(dr->ProvideAnswers(id, round.round_id, span),
            ProvideOutcome::kLogWriteFailed);
  EXPECT_EQ(faults.sync_failures_fired(), 1);

  // Nothing mutated: still awaiting, same round, same questions.
  EXPECT_EQ(dr->status(id), SessionStatus::kAwaitingUser);
  std::vector<PendingRound> still = dr->PendingRounds();
  ASSERT_EQ(still.size(), 1u);
  EXPECT_EQ(still[0].round_id, round.round_id);
  EXPECT_EQ(still[0].questions, round.questions);

  // The identical retry goes through (the record is appended again; the
  // duplicate is Recover's to skip).
  EXPECT_EQ(dr->ProvideAnswers(id, round.round_id, span),
            ProvideOutcome::kResumed);
  EXPECT_EQ(dr->records_logged(), logged_before + 2)
      << "retry-after-sync-failure leaves a duplicate record";
  DriveToCompletion(*dr, id, spec);
  std::string print = SessionFingerprint(dr->session(id));

  // And the duplicate folds idempotently on recovery.
  dr.reset();
  mem.CrashAll();
  RecoveryReport report;
  auto rec = DurableRouter::Recover(&mem, kLogDir, Opts(), &report, &error);
  ASSERT_NE(rec, nullptr) << error;
  EXPECT_GE(report.duplicate_records_skipped, 1);
  rec->Drain();
  EXPECT_TRUE(rec->PendingRounds().empty());
  EXPECT_EQ(SessionFingerprint(rec->session(id)), print);
}

TEST(DurableRouterTest, PoisonedLogKeepsRefusingUntilRecovery) {
  MemFs mem;
  FaultFs faults(&mem, /*seed=*/22);
  std::string error;
  auto dr =
      DurableRouter::Create(&faults, kLogDir, Opts(/*shards=*/1), &error);
  ASSERT_NE(dr, nullptr) << error;

  SessionSpec spec = CleanSpecs(1)[0];
  DurableRouter::SessionId id = dr->OpenPending(spec);
  dr->Drain();
  std::vector<PendingRound> rounds = dr->PendingRounds();
  ASSERT_EQ(rounds.size(), 1u);
  QueryOracle truth(spec.target);
  BitVec bits;
  BitSpan span = bits.Prepare(rounds[0].questions.size());
  truth.IsAnswerBatch(rounds[0].questions, span);

  // A torn append poisons the shard: the refusal is sticky — retrying
  // without recovery cannot succeed, unlike the sync-failure case.
  faults.ArmTornAppend(/*after=*/1);
  EXPECT_EQ(dr->ProvideAnswers(id, rounds[0].round_id, span),
            ProvideOutcome::kLogWriteFailed);
  EXPECT_EQ(dr->ProvideAnswers(id, rounds[0].round_id, span),
            ProvideOutcome::kLogWriteFailed);
  EXPECT_EQ(dr->status(id), SessionStatus::kAwaitingUser);
}

}  // namespace
}  // namespace qhorn
