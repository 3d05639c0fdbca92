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
// (the relearn runs with a replay stage between the transcript and the
// cache) and a verify-then-revise session (several phases asking through
// one transcript and one cache).
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
#include <string>
#include <vector>

#include "src/core/normalize.h"
#include "src/oracle/oracle.h"
#include "src/session/session.h"
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
    return ++asked == kFlipAt ? !v : v;
  }
  MembershipOracle* truth;
  int64_t asked = 0;
};

// Runs `c.flow` on `session` and returns the fingerprints it is pinned by.
std::string RunFlow(const PinCase& c, const SessionSpec& s,
                    QuerySession& session, MembershipOracle& truth) {
  switch (c.flow) {
    case Flow::kLearn:
      session.Learn();
      return SessionFingerprint(session);
    case Flow::kCorrectAndRelearn: {
      session.Learn();
      std::string before = SessionFingerprint(session);
      std::vector<TranscriptEntry> history = session.history();
      size_t wrong = 0;
      while (wrong < history.size() &&
             history[wrong].response ==
                 truth.IsAnswer(history[wrong].question)) {
        ++wrong;
      }
      EXPECT_LT(wrong, history.size()) << "no answer was flipped";
      if (wrong == history.size()) return before;
      session.CorrectAndRelearn(wrong);
      return before + "corrected " + std::to_string(wrong) + "\n" +
             SessionFingerprint(session);
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
    QuerySession::Options options;
    options.learner.existential.speculative_batching = c.speculative;
    options.learner.universal.speculative_batching = c.speculative;
    QuerySession session(s.n, user, options);
    const uint64_t digest = DigestBytes(RunFlow(c, s, session, truth));
    ASSERT_TRUE(session.current_query().has_value());
    EXPECT_TRUE(Equivalent(*session.current_query(), s.target));
    EXPECT_EQ(Hex(digest), Hex(c.digests[i]))
        << "session " << i << " asked " << session.questions_asked()
        << " questions in " << session.rounds() << " rounds";
  }
}

TEST(QuestionStreamPinTest, Qhorn1TargetsAskTheRecordedQuestions) {
  ExpectPinned({QueryClass::kQhorn1, 24, 11, false,
                {0x72f8dfc5a62920a0, 0x22a80a007bbfbf2c, 0x30eda6e8ea9563df}});
  ExpectPinned({QueryClass::kQhorn1, 32, 12, false,
                {0xe6505fe0c9a85511, 0x6785f3ed1c123e26, 0x04ebe513d3a8c9ee}});
}

TEST(QuestionStreamPinTest, RpExistentialTargetsAskTheRecordedQuestions) {
  ExpectPinned({QueryClass::kRpExistential, 24, 21, false,
                {0x1af9a0f5584e24e9, 0xc5c594f35f277f7a, 0x42d00f4ef25adf69}});
  ExpectPinned({QueryClass::kRpExistential, 32, 22, false,
                {0x125892c7334b5e0b, 0x1bcd6e1c2e248cfc, 0x0d4c77217a66c798}});
  ExpectPinned({QueryClass::kRpExistential, 24, 23, true,
                {0xb13f17d3a595c048, 0xb25b86cdba71feed, 0x0d3491826a87244b}});
}

TEST(QuestionStreamPinTest, RpUniversalTargetsAskTheRecordedQuestions) {
  ExpectPinned({QueryClass::kRpUniversal, 24, 31, false,
                {0xca3de81a6bafa056, 0x7ea4e40c623c55ec, 0x44f434adabc4813a}});
  ExpectPinned({QueryClass::kRpUniversal, 32, 32, false,
                {0x6c006e2f0e470816, 0x3843090de01bf2a5, 0xba295fa39fc37984}});
  ExpectPinned({QueryClass::kRpUniversal, 32, 33, true,
                {0x224656260e98f9a8, 0x09039b1de43eb98a, 0x036ddec1b8b5ce8a}});
}

TEST(QuestionStreamPinTest, CorrectAndRelearnAsksTheRecordedQuestions) {
  ExpectPinned({QueryClass::kQhorn1, 24, 41, false,
                {0xcb5a2881a4adf986, 0x92aa1de6a931f9a9, 0x9f12d76b9477b3d5},
                Flow::kCorrectAndRelearn});
  ExpectPinned({QueryClass::kRpExistential, 24, 42, false,
                {0xc54d34a541a8c13a, 0xe3e81de129fdc1af, 0x991163db1dcc95ca},
                Flow::kCorrectAndRelearn});
  ExpectPinned({QueryClass::kRpUniversal, 24, 45, true,
                {0xed6f7098500e909d, 0xbcb2b05369cf7cd5, 0x0e22c663ba06423b},
                Flow::kCorrectAndRelearn});
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
