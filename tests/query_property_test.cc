// Property tests over the query algebra: monotonicity of answers on
// violation-free objects, closure idempotence, canonicalization laws,
// equivalence as an equivalence relation, semantics preservation under
// normalization (cross-checked by brute force).

#include <gtest/gtest.h>

#include <vector>

#include "src/core/normalize.h"
#include "src/core/random_query.h"
#include "src/learn/pac.h"
#include "src/oracle/oracle.h"
#include "src/oracle/transcript.h"
#include "src/util/rng.h"

namespace qhorn {
namespace {

Query RandomQuery(Rng& rng, int n) {
  RpOptions opts;
  opts.num_heads = static_cast<int>(rng.Range(0, std::max(1, n / 3)));
  opts.theta = static_cast<int>(rng.Range(1, 2));
  opts.body_size = static_cast<int>(rng.Range(1, 3));
  opts.num_conjunctions = static_cast<int>(rng.Range(1, 4));
  opts.conj_size_max = std::min(4, n);
  return RandomRolePreserving(n, rng, opts);
}

class QueryPropertyTest : public ::testing::TestWithParam<uint64_t> {};

// Within violation-free tuple sets, adding tuples never turns an answer
// into a non-answer — the monotonicity Algorithm 8's binary search needs.
TEST_P(QueryPropertyTest, AnswerMonotoneOverViolationFreeSets) {
  Rng rng(GetParam());
  int n = 8;
  Query q = RandomQuery(rng, n);
  // Build a violation-free object.
  std::vector<Tuple> pool;
  for (int i = 0; i < 12; ++i) {
    Tuple t = rng.Below(uint64_t{1} << n);
    if (!q.ViolatesUniversal(t)) pool.push_back(t);
  }
  TupleSet small(pool);
  if (!q.Evaluate(small)) return;  // property only binds answers
  for (int i = 0; i < 8; ++i) {
    Tuple extra = rng.Below(uint64_t{1} << n);
    if (q.ViolatesUniversal(extra)) continue;
    TupleSet bigger = small;
    bigger.Add(extra);
    EXPECT_TRUE(q.Evaluate(bigger))
        << q.ToString() << " lost answer on " << bigger.ToString(n);
  }
}

TEST_P(QueryPropertyTest, HornClosureIsIdempotentAndExtensive) {
  Rng rng(GetParam());
  int n = 10;
  Query q = RandomQuery(rng, n);
  VarSet s = rng.Below(uint64_t{1} << n);
  VarSet closed = q.HornClosure(s);
  EXPECT_TRUE(IsSubset(s, closed));                    // extensive
  EXPECT_EQ(q.HornClosure(closed), closed);            // idempotent
  VarSet bigger = closed | rng.Below(uint64_t{1} << n);
  EXPECT_TRUE(IsSubset(closed, q.HornClosure(bigger)));  // monotone
}

TEST_P(QueryPropertyTest, CanonicalizeIsIdempotent) {
  Rng rng(GetParam());
  Query q = RandomQuery(rng, 9);
  Query once = Normalize(q);
  EXPECT_EQ(Canonicalize(once), Canonicalize(q));
  EXPECT_EQ(Canonicalize(Normalize(once)), Canonicalize(once));
}

TEST_P(QueryPropertyTest, DominatedConjunctionsDoNotChangeCanonicalForm) {
  // R1: a conjunction over a subset of an existing conjunction is
  // semantically void.
  Rng rng(GetParam());
  Query q = RandomQuery(rng, 8);
  if (q.existential().empty()) return;
  Query padded = q;
  VarSet vars = q.existential()[0].vars;
  std::vector<int> members = VarsOf(vars);
  padded.AddExistential(VarBit(members[0]));
  EXPECT_EQ(Canonicalize(padded), Canonicalize(q))
      << "q: " << q.ToString() << "\npadded: " << padded.ToString();
}

TEST_P(QueryPropertyTest, DominatedHornLeavesExactlyItsGuarantee) {
  // R2 (as the paper states it): a universal Horn expression dominated by
  // a smaller body is NOT erasable — it reduces to its guarantee clause:
  //   ∀B→h ∀B'→h ≡ ∀B→h ∃(B' ∧ h)   for B ⊂ B'.
  Rng rng(GetParam());
  Query q = RandomQuery(rng, 8);
  if (q.universal().empty()) return;
  const UniversalHorn& u = q.universal()[0];
  VarSet heads = q.UniversalHeadVars();
  VarSet spare = AllTrue(8) & ~heads & ~u.body & ~VarBit(u.head);
  if (spare == 0) return;
  VarSet bigger_body = u.body | (spare & (~spare + 1));

  Query with_dominated = q;
  with_dominated.AddUniversal(bigger_body, u.head);
  Query with_guarantee = q;
  with_guarantee.AddExistential(bigger_body | VarBit(u.head));

  EXPECT_EQ(Canonicalize(with_dominated), Canonicalize(with_guarantee))
      << "q: " << q.ToString();
}

TEST_P(QueryPropertyTest, EquivalenceIsAnEquivalenceRelation) {
  Rng rng(GetParam());
  Query a = RandomQuery(rng, 6);
  Query b = RandomQuery(rng, 6);
  Query c = RandomQuery(rng, 6);
  EXPECT_TRUE(Equivalent(a, a));
  EXPECT_EQ(Equivalent(a, b), Equivalent(b, a));
  if (Equivalent(a, b) && Equivalent(b, c)) {
    EXPECT_TRUE(Equivalent(a, c));
  }
}

TEST_P(QueryPropertyTest, NormalizationPreservesSemanticsBruteForce) {
  Rng rng(GetParam());
  Query q = RandomQuery(rng, 4);
  EXPECT_TRUE(BruteForceEquivalent(q, Normalize(q))) << q.ToString();
}

TEST_P(QueryPropertyTest, NormalizationPreservesSemanticsSampled) {
  Rng rng(GetParam());
  int n = 12;
  Query q = RandomQuery(rng, n);
  Query normalized = Normalize(q);
  for (int i = 0; i < 200; ++i) {
    TupleSet object = RandomObject(n, rng, 6);
    EXPECT_EQ(q.Evaluate(object), normalized.Evaluate(object))
        << q.ToString() << " on " << object.ToString(n);
  }
}

TEST_P(QueryPropertyTest, GuaranteeRelaxationOnlyWeakens) {
  Rng rng(GetParam());
  int n = 8;
  Query q = RandomQuery(rng, n);
  EvalOptions strict;
  EvalOptions relaxed;
  relaxed.require_guarantees = false;
  for (int i = 0; i < 100; ++i) {
    TupleSet object = RandomObject(n, rng, 5);
    if (q.Evaluate(object, strict)) {
      EXPECT_TRUE(q.Evaluate(object, relaxed));
    }
  }
}

// Batched caching invariant: a round containing duplicate questions and
// questions answered in earlier rounds forwards only its unique misses to
// the wrapped oracle, and every served answer matches the ground truth.
TEST_P(QueryPropertyTest, CachingOracleBatchForwardsOnlyUniqueMisses) {
  Rng rng(GetParam());
  int n = 8;
  Query q = RandomQuery(rng, n);
  QueryOracle base(q);
  CountingOracle counting(&base);
  QuestionStore store(&counting);

  // Warm the cache with a few sequential questions.
  std::vector<TupleSet> warm;
  for (int i = 0; i < 4; ++i) warm.push_back(RandomObject(n, rng, 4));
  for (const TupleSet& w : warm) store.IsAnswer(w);

  // A batch mixing fresh questions, in-batch duplicates and re-asks of the
  // warm-up questions.
  std::vector<TupleSet> fresh;
  for (int i = 0; i < 5; ++i) fresh.push_back(RandomObject(n, rng, 4));
  std::vector<TupleSet> batch = {fresh[0], warm[0], fresh[1], fresh[0],
                                 warm[1], fresh[2], fresh[1], fresh[3],
                                 warm[0], fresh[4], fresh[4]};

  // Expected forwards: first occurrences not already answered (the warm-up
  // may collide with a fresh draw by chance, so simulate the cache).
  std::vector<TupleSet> seen = warm;
  int64_t expected_misses = 0;
  for (const TupleSet& b : batch) {
    bool found = false;
    for (const TupleSet& s : seen) {
      if (s == b) {
        found = true;
        break;
      }
    }
    if (!found) {
      ++expected_misses;
      seen.push_back(b);
    }
  }

  int64_t inner_before = counting.stats().questions;
  int64_t rounds_before = counting.stats().rounds;
  BitVec answers;
  store.IsAnswerBatch(batch, answers.Prepare(batch.size()));

  EXPECT_EQ(counting.stats().questions - inner_before, expected_misses)
      << "the wrapped oracle must see each unseen question exactly once";
  EXPECT_LE(counting.stats().rounds - rounds_before, 1)
      << "all forwarded misses must share one round";
  ASSERT_EQ(answers.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(answers.Get(i), q.Evaluate(batch[i])) << "question " << i;
  }
  // Re-asking the whole batch forwards nothing.
  int64_t inner_after = counting.stats().questions;
  store.IsAnswerBatch(batch, answers.Prepare(batch.size()));
  EXPECT_EQ(counting.stats().questions, inner_after);
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueryPropertyTest,
                         ::testing::Range<uint64_t>(0, 25));

}  // namespace
}  // namespace qhorn
