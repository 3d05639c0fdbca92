// The QuerySession facade: learning, verification, revision, history
// correction, caching behaviour.

#include "src/session/session.h"

#include <gtest/gtest.h>

#include "src/core/normalize.h"
#include "src/core/random_query.h"

namespace qhorn {
namespace {

TEST(SessionTest, LearnProducesTheIntendedQuery) {
  Query intended = Query::Parse("∀x1x2→x4 ∃x3", 4);
  QueryOracle user(intended);
  QuerySession session(4, &user);
  const Query& learned = session.Learn();
  EXPECT_TRUE(Equivalent(learned, intended));
  EXPECT_TRUE(session.current_query().has_value());
  EXPECT_GT(session.questions_asked(), 0);
  EXPECT_FALSE(session.history().empty());
}

TEST(SessionTest, VerifyAcceptsAndInstallsCandidate) {
  Query intended = Query::Parse("∃x1x2 ∃x3", 3);
  QueryOracle user(intended);
  QuerySession session(3, &user);
  VerificationReport report = session.Verify(intended);
  EXPECT_TRUE(report.accepted);
  ASSERT_TRUE(session.current_query().has_value());
  EXPECT_TRUE(Equivalent(*session.current_query(), intended));
}

TEST(SessionTest, VerifyRejectsWrongCandidateWithoutInstalling) {
  QueryOracle user(Query::Parse("∃x1x2 ∃x3", 3));
  QuerySession session(3, &user);
  VerificationReport report = session.Verify(Query::Parse("∃x1 ∃x3", 3));
  EXPECT_FALSE(report.accepted);
  EXPECT_FALSE(session.current_query().has_value());
}

TEST(SessionTest, ReviseConvergesFromACloseGuess) {
  Query intended = Query::Parse("∃x1x2 ∃x4", 4);
  QueryOracle user(intended);
  QuerySession session(4, &user);
  RevisionResult result = session.Revise(Query::Parse("∃x1x2x3 ∃x4", 4));
  EXPECT_TRUE(Equivalent(result.query, intended));
  EXPECT_TRUE(Equivalent(*session.current_query(), intended));
}

TEST(SessionTest, CachingReducesUserQuestions) {
  Query intended = Query::Parse("∀x1x2→x5 ∀x3x4→x5 ∃x1x2x3", 5);
  QueryOracle user1(intended);
  QuerySession with_store(5, &user1);
  with_store.Learn();

  // Without the session's question store: the learner over a bare counter.
  QueryOracle user2(intended);
  CountingOracle without_store(&user2);
  Query learned = LearnRolePreserving(5, &without_store).query;

  EXPECT_LT(with_store.questions_asked(), without_store.stats().questions);
  EXPECT_EQ(with_store.questions_asked() + with_store.cache_hits(),
            without_store.stats().questions);
  EXPECT_TRUE(Equivalent(*with_store.current_query(), learned));
}

TEST(SessionTest, CorrectAndRelearnRecovers) {
  Query intended = Query::Parse("∀x1 ∃x2 ∃x3", 3);
  QueryOracle truth(intended);

  // The user fumbles the 5th question (the first lattice question).
  struct Flaky : MembershipOracle {
    MembershipOracle* inner;
    int64_t at;
    int64_t count = 0;
    bool IsAnswer(const TupleSet& q) override {
      bool v = inner->IsAnswer(q);
      return ++count == at ? !v : v;
    }
  } flaky{};
  flaky.inner = &truth;
  flaky.at = 5;

  QuerySession session(3, &flaky);
  const Query& wrong = session.Learn();
  ASSERT_FALSE(Equivalent(wrong, intended));

  // Find the flipped entry in the history (index 4) and correct it; the
  // user answers truthfully from here on (their mistake was one-off).
  flaky.at = -1;
  const Query& fixed = session.CorrectAndRelearn(4);
  EXPECT_TRUE(Equivalent(fixed, intended)) << fixed.ToString();
  EXPECT_FALSE(session.history().empty());
}

TEST(SessionTest, RandomizedEndToEnd) {
  for (uint64_t seed = 0; seed < 15; ++seed) {
    Rng rng(seed);
    RpOptions opts;
    opts.num_heads = static_cast<int>(rng.Range(0, 2));
    opts.num_conjunctions = static_cast<int>(rng.Range(1, 3));
    Query intended = RandomRolePreserving(6, rng, opts);
    QueryOracle user(intended);
    QuerySession session(6, &user);
    EXPECT_TRUE(Equivalent(session.Learn(), intended));
    EXPECT_TRUE(session.Verify(intended).accepted);
  }
}

TEST(SessionDeathTest, ArityMismatchAborts) {
  QueryOracle user(Query::Parse("∃x1", 2));
  QuerySession session(2, &user);
  EXPECT_DEATH(session.Verify(Query::Parse("∃x1", 3)), "arity");
}

}  // namespace
}  // namespace qhorn
