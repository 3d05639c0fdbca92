// Cross-module integration: learn → verify pipelines, learning through the
// data domain with database-backed questions, caching-oracle transparency,
// and end-to-end reproduction of the paper's workflow.

#include <gtest/gtest.h>

#include "src/core/classify.h"
#include "src/core/enumerate.h"
#include "src/core/normalize.h"
#include "src/core/random_query.h"
#include "src/learn/pac.h"
#include "src/learn/qhorn1_learner.h"
#include "src/learn/rp_learner.h"
#include "src/oracle/transcript.h"
#include "src/relation/chocolate.h"
#include "src/verify/verifier.h"

namespace qhorn {
namespace {

// Learn a query, then verify the learned query against the same user: the
// verification must accept (the learner is exact).
TEST(LearnThenVerifyTest, LearnedQueriesPassVerification) {
  for (uint64_t seed = 0; seed < 25; ++seed) {
    Rng rng(seed);
    RpOptions opts;
    opts.num_heads = static_cast<int>(rng.Range(0, 2));
    opts.theta = static_cast<int>(rng.Range(1, 2));
    opts.num_conjunctions = static_cast<int>(rng.Range(1, 3));
    Query target = RandomRolePreserving(6, rng, opts);
    QueryOracle user(target);

    RpLearnerResult learned = LearnRolePreserving(6, &user);
    ASSERT_TRUE(Equivalent(learned.query, target));
    EXPECT_TRUE(VerifyQuery(learned.query, &user).accepted)
        << learned.query.ToString();
  }
}

// The qhorn-1 learner and the role-preserving learner agree on qhorn-1
// targets (qhorn-1 ⊂ role-preserving qhorn).
TEST(LearnerAgreementTest, BothLearnersRecoverQhorn1Targets) {
  for (uint64_t seed = 0; seed < 15; ++seed) {
    Rng rng(seed);
    Qhorn1Structure target = RandomQhorn1(7, rng);
    Query target_query = target.ToQuery();

    QueryOracle o1(target_query);
    Qhorn1Learner learner1(7, &o1);
    Query via_qhorn1 = learner1.Learn().ToQuery();

    QueryOracle o2(target_query);
    Query via_rp = LearnRolePreserving(7, &o2).query;

    EXPECT_TRUE(Equivalent(via_qhorn1, target_query));
    EXPECT_TRUE(Equivalent(via_rp, target_query));
    EXPECT_TRUE(Equivalent(via_qhorn1, via_rp));
  }
}

// Caching changes question counts but never the learned query.
TEST(CachingTransparencyTest, SameResultFewerUserQuestions) {
  Query target = Query::Parse(
      "∀x1x4→x5 ∀x3x4→x5 ∀x1x2→x6 ∃x1x2x3 ∃x2x3x4 ∃x1x2x5 ∃x2x3x5x6");
  QueryOracle user1(target);
  CountingOracle raw(&user1);
  Query without_cache = LearnRolePreserving(6, &raw).query;

  QueryOracle user2(target);
  CountingOracle counted(&user2);
  QuestionStore store(&counted);
  Query with_cache = LearnRolePreserving(6, &store).query;

  EXPECT_TRUE(Equivalent(without_cache, with_cache));
  EXPECT_LE(counted.stats().questions, raw.stats().questions);
}

// The full DataPlay-style loop: the user answers through materialized
// chocolate boxes drawn from a database, with a response history; the
// learned query passes verification and PAC sampling.
TEST(DataPlayPipelineTest, ChocolateEndToEnd) {
  Query intended = IntroChocolateQuery();
  BooleanBinding binding(ChocolateSchema(), ChocolatePropositions());
  DataDomainOracle data_user(intended, &binding);
  QuestionStore history(&data_user);

  RpLearnerResult learned = LearnRolePreserving(3, &history);
  EXPECT_TRUE(Equivalent(learned.query, intended))
      << learned.query.ToString();
  EXPECT_FALSE(history.entries().empty());

  EXPECT_TRUE(VerifyQuery(learned.query, &data_user).accepted);

  Rng rng(9);
  PacReport pac = PacVerify(learned.query, &data_user, rng);
  EXPECT_TRUE(pac.consistent);
}

// Exhaustive small-world pipeline: for every canonical role-preserving
// query on 2 variables, learn it, verify it, and cross-verify against
// every other query.
TEST(ExhaustivePipelineTest, TwoVariableWorld) {
  std::vector<Query> world = EnumerateRolePreserving(2);
  ASSERT_EQ(world.size(), 7u);
  for (const Query& target : world) {
    QueryOracle user(target);
    Query learned = LearnRolePreserving(2, &user).query;
    ASSERT_TRUE(Equivalent(learned, target));
    for (const Query& other : world) {
      QueryOracle other_user(other);
      EXPECT_EQ(VerifyQuery(learned, &other_user).accepted,
                Equivalent(target, other));
    }
  }
}

// Question sizes stay small (interactive performance, §2.1.2): the
// qhorn-1 learner never builds a question with more than n tuples, the
// role-preserving learner stays within O(n + k).
TEST(QuestionSizeTest, BoundedTuplesPerQuestion) {
  int n = 10;
  Rng rng(21);
  Qhorn1Structure target = RandomQhorn1(n, rng);
  QueryOracle user(target.ToQuery());
  CountingOracle counting(&user);
  Qhorn1Learner learner(n, &counting);
  learner.Learn();
  EXPECT_LE(counting.stats().max_tuples, n);

  RpOptions opts;
  opts.num_conjunctions = 4;
  Query rp_target = RandomRolePreserving(n, rng, opts);
  QueryOracle rp_user(rp_target);
  CountingOracle rp_counting(&rp_user);
  LearnRolePreserving(n, &rp_counting);
  EXPECT_LE(rp_counting.stats().max_tuples,
            n + DominantSize(rp_target) + 2);
}

// Relaxed-guarantee mode (footnote 1): learning still works when the
// oracle accepts empty guarantees, for targets whose semantics differ.
TEST(RelaxedGuaranteeTest, LearnersStillConvergeOnConjunctions) {
  EvalOptions relaxed;
  relaxed.require_guarantees = false;
  Query target = Query::Parse("∃x1x2 ∃x3", 3);  // no universal expressions
  QueryOracle user(target, relaxed);
  Query learned = LearnRolePreserving(3, &user).query;
  EXPECT_TRUE(Equivalent(learned, target));
}

}  // namespace
}  // namespace qhorn
