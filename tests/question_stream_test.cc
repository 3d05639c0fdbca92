// Pins the learners' question streams: for fixed wide targets of every
// query class, each learner session's full SessionFingerprint — every
// question it posed, in order, with its answer — must digest to a
// recorded constant. A question count can stay put while the questions
// themselves drift (a reordered lattice walk, a differently built join);
// a fingerprint cannot. The fleet differential compares two arms of one
// binary, so it cannot see such a drift; this suite compares against the
// streams the learners asked when the constants were recorded.
//
// Besides plain learning, two session flows are pinned because they run
// the other stage shapes of the session's oracle stack: a §5 correction
// (the relearn runs with a replay stage at the user boundary) and a
// verify-then-revise session (several phases asking through one question
// store). The correction cases also run through the router's correction,
// which must leave the same fingerprint.
//
// The digest is FNV-1a over the fingerprint's bytes, written out here on
// purpose: it must not move when the library's own hashing does.
//
// Re-recording is for deliberate question-stream changes only: set every
// expected digest to 0, run the suite, and copy the printed actual values.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/core/normalize.h"
#include "src/oracle/oracle.h"
#include "src/oracle/pending.h"
#include "src/session/router.h"
#include "src/session/session.h"
#include "src/util/bit_span.h"
#include "src/workload/fingerprint.h"
#include "src/workload/workload.h"

namespace qhorn {
namespace {

uint64_t DigestBytes(const std::string& text) {
  uint64_t h = 14695981039346656037ULL;
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, v);
  return buf;
}

// How a pinned session is driven once it is opened.
enum class Flow {
  kLearn,              // one Learn()
  kCorrectAndRelearn,  // Learn() with one wrong answer, then the correction
  kVerifyRevise,       // Verify the target and the mutant, Revise the mutant
};

struct PinCase {
  QueryClass query_class;
  int n;
  uint64_t seed;
  bool speculative;  // the learners' round-sparing batched walks
  std::vector<uint64_t> digests;  // one per generated session, in order
  Flow flow = Flow::kLearn;
  // Correction flow only: digests of the history alone (before and after
  // the correction), without the counts, so that a change to how a
  // correction is counted cannot hide a change to what the user was asked.
  std::vector<uint64_t> history_digests = {};
};

constexpr int kSessionsPerCase = 3;

// In the correction flow, the user answers the kFlipAt-th question that
// reaches them wrongly, once. A wrong answer can drive the universal-body
// search into a CHECK failure; this position and the seeds below are ones
// every learner runs through.
constexpr int64_t kFlipAt = 100;

struct FlipOnceOracle : MembershipOracle {
  explicit FlipOnceOracle(MembershipOracle* truth) : truth(truth) {}
  bool IsAnswer(const TupleSet& q) override {
    bool v = truth->IsAnswer(q);
    seen.push_back(q);
    return ++asked == kFlipAt ? !v : v;
  }
  MembershipOracle* truth;
  int64_t asked = 0;
  std::vector<TupleSet> seen;  // every question that reached the user
};

QuerySession::Options SessionOptions(const PinCase& c) {
  QuerySession::Options options;
  options.learner.existential.speculative_batching = c.speculative;
  options.learner.universal.speculative_batching = c.speculative;
  return options;
}

// The first history entry whose answer is wrong: the first asking of the
// question the user answered wrongly.
size_t FirstWrongEntry(const QuerySession& session, MembershipOracle& truth) {
  std::vector<TranscriptEntry> entries = session.history();
  size_t wrong = 0;
  while (wrong < entries.size() &&
         entries[wrong].response == truth.IsAnswer(entries[wrong].question)) {
    ++wrong;
  }
  return wrong;
}

// The history part of SessionFingerprint: every entry, without the counts.
std::string HistoryText(const QuerySession& session) {
  std::string out;
  for (const TranscriptEntry& e : session.history()) {
    out += std::to_string(e.round) + ":" + e.question.ToString(session.n());
    out += e.response ? "+\n" : "-\n";
  }
  return out;
}

// Runs `c.flow` on `session` and returns the fingerprints it is pinned by;
// the correction flow also renders the histories alone into `history`.
std::string RunFlow(const PinCase& c, const SessionSpec& s,
                    QuerySession& session, MembershipOracle& truth,
                    std::string* history) {
  switch (c.flow) {
    case Flow::kLearn:
      session.Learn();
      return SessionFingerprint(session);
    case Flow::kCorrectAndRelearn: {
      session.Learn();
      std::string before = SessionFingerprint(session);
      const size_t wrong = FirstWrongEntry(session, truth);
      EXPECT_LT(wrong, session.history().size()) << "no answer was flipped";
      if (wrong == session.history().size()) return before;
      *history = HistoryText(session);
      session.CorrectAndRelearn(wrong);
      const std::string corrected = "corrected " + std::to_string(wrong) + "\n";
      *history += corrected + HistoryText(session);
      return before + corrected + SessionFingerprint(session);
    }
    case Flow::kVerifyRevise: {
      EXPECT_TRUE(session.Verify(s.target).accepted);
      std::string verified = SessionFingerprint(session);
      session.Verify(s.mutant);
      session.Revise(s.mutant);
      return verified + SessionFingerprint(session);
    }
  }
  return "";
}

// The targets: a single-class fleet at one width, drawn by the workload
// generator exactly as the wide end-to-end workload draws its targets.
std::vector<SessionSpec> Targets(const PinCase& c) {
  WorkloadSpec spec;
  spec.seed = c.seed;
  spec.sessions = kSessionsPerCase;
  spec.n_min = c.n;
  spec.n_max = c.n;
  spec.qhorn1_weight = c.query_class == QueryClass::kQhorn1 ? 1.0 : 0.0;
  spec.rp_existential_weight =
      c.query_class == QueryClass::kRpExistential ? 1.0 : 0.0;
  spec.rp_universal_weight =
      c.query_class == QueryClass::kRpUniversal ? 1.0 : 0.0;
  spec.noisy_fraction = 0.0;
  spec.abandon_fraction = 0.0;
  return GenerateFleet(spec).sessions;
}

void ExpectPinned(const PinCase& c) {
  SCOPED_TRACE(std::string(ToString(c.query_class)) + " n=" +
               std::to_string(c.n) + " seed=" + std::to_string(c.seed) +
               (c.speculative ? " speculative" : " sequential"));
  std::vector<SessionSpec> targets = Targets(c);
  ASSERT_EQ(targets.size(), c.digests.size());
  for (size_t i = 0; i < targets.size(); ++i) {
    const SessionSpec& s = targets[i];
    ASSERT_EQ(s.query_class, c.query_class);
    ASSERT_EQ(s.n, c.n);
    QueryOracle truth(s.target);
    FlipOnceOracle flipping(&truth);
    MembershipOracle* user = &truth;
    if (c.flow == Flow::kCorrectAndRelearn) user = &flipping;
    QuerySession session(s.n, user, SessionOptions(c));
    std::string history;
    const uint64_t digest =
        DigestBytes(RunFlow(c, s, session, truth, &history));
    ASSERT_TRUE(session.current_query().has_value());
    EXPECT_TRUE(Equivalent(*session.current_query(), s.target));
    EXPECT_EQ(Hex(digest), Hex(c.digests[i]))
        << "session " << i << " asked " << session.questions_asked()
        << " questions in " << session.rounds() << " rounds";
    if (c.flow == Flow::kCorrectAndRelearn) {
      ASSERT_EQ(c.history_digests.size(), c.digests.size());
      EXPECT_EQ(Hex(DigestBytes(history)), Hex(c.history_digests[i]))
          << "session " << i << ": history differs";
    }
  }
}

// The pinned plain-learn sessions.
std::vector<PinCase> LearnCases() {
  return {
      {QueryClass::kQhorn1, 24, 11, false,
       {0x72f8dfc5a62920a0, 0x22a80a007bbfbf2c, 0x30eda6e8ea9563df}},
      {QueryClass::kQhorn1, 32, 12, false,
       {0xe6505fe0c9a85511, 0x6785f3ed1c123e26, 0x04ebe513d3a8c9ee}},
      {QueryClass::kRpExistential, 24, 21, false,
       {0x1af9a0f5584e24e9, 0xc5c594f35f277f7a, 0x42d00f4ef25adf69}},
      {QueryClass::kRpExistential, 32, 22, false,
       {0x125892c7334b5e0b, 0x1bcd6e1c2e248cfc, 0x0d4c77217a66c798}},
      {QueryClass::kRpExistential, 24, 23, true,
       {0xb13f17d3a595c048, 0xb25b86cdba71feed, 0x0d3491826a87244b}},
      {QueryClass::kRpUniversal, 24, 31, false,
       {0xca3de81a6bafa056, 0x7ea4e40c623c55ec, 0x44f434adabc4813a}},
      {QueryClass::kRpUniversal, 32, 32, false,
       {0x6c006e2f0e470816, 0x3843090de01bf2a5, 0xba295fa39fc37984}},
      {QueryClass::kRpUniversal, 32, 33, true,
       {0x224656260e98f9a8, 0x09039b1de43eb98a, 0x036ddec1b8b5ce8a}},
  };
}

void ExpectPinnedClass(QueryClass query_class) {
  for (const PinCase& c : LearnCases()) {
    if (c.query_class == query_class) ExpectPinned(c);
  }
}

TEST(QuestionStreamPinTest, Qhorn1TargetsAskTheRecordedQuestions) {
  ExpectPinnedClass(QueryClass::kQhorn1);
}

TEST(QuestionStreamPinTest, RpExistentialTargetsAskTheRecordedQuestions) {
  ExpectPinnedClass(QueryClass::kRpExistential);
}

TEST(QuestionStreamPinTest, RpUniversalTargetsAskTheRecordedQuestions) {
  ExpectPinnedClass(QueryClass::kRpUniversal);
}

// The fingerprint pins only the questions and batched questions of the
// session's OracleStats. All six fields must equal what a counter wrapped
// around the user sees, for every plain-learn target in both batching
// modes: the session counts exactly the questions that reach the user.
TEST(QuestionStreamPinTest, SessionStatsEqualAUserBoundaryCounter) {
  for (PinCase c : LearnCases()) {
    for (bool speculative : {false, true}) {
      c.speculative = speculative;
      SCOPED_TRACE(std::string(ToString(c.query_class)) + " n=" +
                   std::to_string(c.n) + " seed=" + std::to_string(c.seed) +
                   (speculative ? " speculative" : " sequential"));
      for (const SessionSpec& s : Targets(c)) {
        QueryOracle truth(s.target);
        CountingOracle counting_user(&truth);
        QuerySession session(s.n, &counting_user, SessionOptions(c));
        session.Learn();
        const OracleStats& got = session.oracle_stats();
        const OracleStats& want = counting_user.stats();
        EXPECT_GT(want.questions, 0);
        EXPECT_EQ(got.questions, want.questions);
        EXPECT_EQ(got.tuples, want.tuples);
        EXPECT_EQ(got.max_tuples, want.max_tuples);
        EXPECT_EQ(got.answers, want.answers);
        EXPECT_EQ(got.rounds, want.rounds);
        EXPECT_EQ(got.batched_questions, want.batched_questions);
      }
    }
  }
}

// The pinned correction sessions: a user who answers the kFlipAt-th
// question wrongly, then the correction of that answer. The history
// digests were recorded before the session and the router shared one
// correction path, and have not moved since; the full digests were
// re-recorded then, because the counts of a correction changed (the
// replayed prefix is counted where it reaches the user, as the router
// counts it).
std::vector<PinCase> CorrectionCases() {
  return {
      {QueryClass::kQhorn1, 24, 41, false,
       {0x35a8d75c0ef94e56, 0xd0b837b0cc4fb3f0, 0x6531dcaf8ee95f5f},
       Flow::kCorrectAndRelearn,
       {0xb3f569f0a05ceab2, 0x47c787425ec28408, 0xcc42cbd341bf0794}},
      {QueryClass::kRpExistential, 24, 42, false,
       {0x0109395ce0591af2, 0x34730c34f2dedeca, 0xf2d45eba2a6b0738},
       Flow::kCorrectAndRelearn,
       {0xcf350adc3c556d99, 0x32d9346576e91fcb, 0x2c2e771732d9d68a}},
      {QueryClass::kRpUniversal, 24, 45, true,
       {0x5ef2bb934e5281aa, 0x6150116643dba299, 0xa4ed08cc8c348542},
       Flow::kCorrectAndRelearn,
       {0x3c95dc185e06380c, 0x0db66afd6c9d52b9, 0x206080c0c039d003}},
  };
}

TEST(QuestionStreamPinTest, CorrectAndRelearnAsksTheRecordedQuestions) {
  for (const PinCase& c : CorrectionCases()) ExpectPinned(c);
}

// Runs `s` as a pending router session whose user answers the kFlipAt-th
// question wrongly; at the first round parked after that answer, the user
// corrects it with SessionRouter::CorrectAnswer and then answers
// truthfully to the end. Returns the session's fingerprint.
std::string RouterCorrection(const PinCase& c, const SessionSpec& s) {
  SessionRouter::Options options;
  options.threads = 1;
  options.session = SessionOptions(c);
  SessionRouter router(options);
  QueryOracle truth(s.target);
  const SessionRouter::SessionId id = router.OpenPending(s.n);
  router.SubmitLearn(id);
  int64_t answered = 0;
  bool corrected = false;
  for (;;) {
    router.Drain();
    std::optional<PendingRound> round = router.pending_round(id);
    if (!round.has_value()) break;
    if (!corrected && answered >= kFlipAt) {
      EXPECT_EQ(router.CorrectAnswer(id, kFlipAt - 1),
                ProvideOutcome::kResumed);
      corrected = true;
      continue;
    }
    BitVec bits;
    BitSpan answers = bits.Prepare(round->questions.size());
    truth.IsAnswerBatch(round->questions, answers);
    for (size_t i = 0; i < round->questions.size(); ++i) {
      if (++answered == kFlipAt) answers.Set(i, !answers.Get(i));
    }
    EXPECT_EQ(router.ProvideAnswers(id, round->round_id, answers),
              ProvideOutcome::kResumed);
  }
  EXPECT_TRUE(corrected) << "the session finished before the correction";
  EXPECT_EQ(router.stats().corrections, 1);
  return SessionFingerprint(router.session(id));
}

// The session and the router correct one way: QuerySession::
// CorrectAndRelearn(history index) after a finished learn, and
// SessionRouter::CorrectAnswer(user-answer index) on a parked session,
// given the same wrong answer, leave the same fingerprint — history,
// rounds, questions asked and store hits. The session's relearn asks the
// user nothing from the kept prefix again.
TEST(CorrectionDifferentialTest, SessionAndRouterCorrectionsAgree) {
  for (const PinCase& c : CorrectionCases()) {
    SCOPED_TRACE(std::string(ToString(c.query_class)) + " seed=" +
                 std::to_string(c.seed));
    std::vector<SessionSpec> targets = Targets(c);
    for (size_t i = 0; i < targets.size(); ++i) {
      SCOPED_TRACE("session " + std::to_string(i));
      const SessionSpec& s = targets[i];
      QueryOracle truth(s.target);
      FlipOnceOracle user(&truth);
      QuerySession session(s.n, &user, SessionOptions(c));
      session.Learn();
      const size_t wrong = FirstWrongEntry(session, truth);
      ASSERT_LT(wrong, session.history().size());
      const size_t asked_before = user.seen.size();
      session.CorrectAndRelearn(wrong);
      EXPECT_TRUE(Equivalent(*session.current_query(), s.target));
      // The prefix is counted where it reaches the user boundary.
      EXPECT_EQ(session.user_questions_replayed(), kFlipAt);
      EXPECT_EQ(session.questions_asked(),
                kFlipAt + static_cast<int64_t>(user.seen.size() -
                                               asked_before));
      std::set<std::vector<Tuple>> kept;
      for (int64_t k = 0; k < kFlipAt; ++k) kept.insert(user.seen[k].tuples());
      for (size_t k = asked_before; k < user.seen.size(); ++k) {
        EXPECT_FALSE(kept.contains(user.seen[k].tuples()))
            << "the relearn asked kept-prefix question "
            << user.seen[k].ToString(s.n) << " again";
      }
      EXPECT_EQ(SessionFingerprint(session), RouterCorrection(c, s));
    }
  }
}

// Runs `s` as a pending router session on `lanes` lanes through three
// corrections that land on parks mixing replayed and fresh questions.
// From the kFlipAt-th user answer on, the user answers the first round of
// m >= 3 questions (starting at user answer r) with entry e = r + m - 2
// flipped, so e is not the last of its round, and corrects e at the next
// park. The restart's replay serves round r's head r..e and parks on its
// fresh tail; there the user corrects e - 1, inside that head, and at the
// park after it (the same round again) e - 2, before it. Every other
// answer is truthful, so the learner ends with one wrong answer, at e - 2.
// Returns the session's fingerprint.
std::string RouterMixedRoundCorrections(const PinCase& c, const SessionSpec& s,
                                        int lanes) {
  SessionRouter::Options options;
  options.threads = lanes;
  options.session = SessionOptions(c);
  SessionRouter router(options);
  QueryOracle truth(s.target);
  const SessionRouter::SessionId id = router.OpenPending(s.n);
  router.SubmitLearn(id);
  size_t answered = 0;  // user answers so far, the replayed head included
  size_t round_end = 0;  // one past the flipped round's last user answer
  size_t e = 0;
  int corrections = 0;
  for (;;) {
    router.Drain();
    std::optional<PendingRound> round = router.pending_round(id);
    if (!round.has_value()) break;
    if (round_end != 0 && corrections < 3) {
      if (corrections > 0) {
        // A mixed park: the replay served the round up to `answered`.
        EXPECT_EQ(round->questions.size(), round_end - answered);
        EXPECT_EQ(router.CorrectAnswer(id, answered),
                  ProvideOutcome::kAnswerCountMismatch);
      }
      answered = e - static_cast<size_t>(corrections);
      EXPECT_EQ(router.CorrectAnswer(id, answered), ProvideOutcome::kResumed);
      ++answered;
      ++corrections;
      continue;
    }
    const size_t m = round->questions.size();
    BitVec bits;
    BitSpan answers = bits.Prepare(m);
    truth.IsAnswerBatch(round->questions, answers);
    if (round_end == 0 && answered >= static_cast<size_t>(kFlipAt) - 1 &&
        m >= 3) {
      e = answered + m - 2;
      round_end = answered + m;
      answers.Set(m - 2, !answers.Get(m - 2));
    }
    answered += m;
    EXPECT_EQ(router.ProvideAnswers(id, round->round_id, answers),
              ProvideOutcome::kResumed);
  }
  EXPECT_EQ(corrections, 3) << "the session finished before its corrections";
  EXPECT_EQ(router.stats().corrections, 3);
  return SessionFingerprint(router.session(id));
}

// Corrections at parks whose round the restart's replay began serving:
// one lane and three give the same fingerprint, and both equal the
// recorded digest. The digests were recorded while the router still kept
// its own copy of the answered questions, before it read them from the
// session's question store. A wrong answer can abort a learner, so each
// case names one generated session that runs through its wrong answers.
TEST(CorrectionDifferentialTest, MixedRoundCorrectionsMatchAcrossLanes) {
  struct MixedCase {
    PinCase c;
    size_t session;  // index into Targets(c)
    uint64_t digest;
  };
  const std::vector<MixedCase> cases = {
      {{QueryClass::kRpExistential, 24, 42, false, {}}, 2, 0xa250ec1f3f6f6a7b},
      {{QueryClass::kRpExistential, 24, 16, false, {}}, 1, 0xb7b4ed4464a80a3e},
      {{QueryClass::kRpUniversal, 24, 45, true, {}}, 0, 0xea77a40850f2bc6b},
      {{QueryClass::kRpUniversal, 24, 45, true, {}}, 1, 0xdc30a440ca19e0fb},
      {{QueryClass::kQhorn1, 24, 41, true, {}}, 0, 0x624f84855a1c51fa},
  };
  for (const MixedCase& m : cases) {
    SCOPED_TRACE(std::string(ToString(m.c.query_class)) +
                 " seed=" + std::to_string(m.c.seed) +
                 " session=" + std::to_string(m.session));
    const SessionSpec s = Targets(m.c).at(m.session);
    const std::string one_lane = RouterMixedRoundCorrections(m.c, s, 1);
    EXPECT_EQ(one_lane, RouterMixedRoundCorrections(m.c, s, 3));
    EXPECT_EQ(Hex(DigestBytes(one_lane)), Hex(m.digest));
  }
}

TEST(QuestionStreamPinTest, VerifyThenReviseAsksTheRecordedQuestions) {
  ExpectPinned({QueryClass::kQhorn1, 24, 51, false,
                {0xb7014a33b6275b88, 0x5b26bc6febb2e09f, 0xe68af31d8338609f},
                Flow::kVerifyRevise});
  ExpectPinned({QueryClass::kRpExistential, 32, 52, false,
                {0x9bcbe8c09d09f323, 0x67b1f1e4711353a1, 0x485a63734c56334a},
                Flow::kVerifyRevise});
  ExpectPinned({QueryClass::kRpUniversal, 24, 53, true,
                {0x404278d3515b61d6, 0xb2217da97efd909a, 0x568e86025741b3b9},
                Flow::kVerifyRevise});
}

}  // namespace
}  // namespace qhorn
