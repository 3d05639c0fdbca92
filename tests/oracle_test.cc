// Oracle decorators: counting, the question store's caching, noise.

#include "src/oracle/oracle.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <memory>
#include <span>
#include <tuple>
#include <vector>

#include "src/oracle/transcript.h"
#include "src/util/bit_span.h"
#include "src/util/rng.h"

namespace qhorn {
namespace {

TEST(QueryOracleTest, AnswersForTheIntendedQuery) {
  QueryOracle oracle(Query::Parse("∀x1 ∃x2", 2));
  EXPECT_TRUE(oracle.IsAnswer(TupleSet::Parse({"11"})));
  EXPECT_FALSE(oracle.IsAnswer(TupleSet::Parse({"01"})));
}

TEST(QueryOracleTest, RelaxedGuaranteesChangeClassification) {
  EvalOptions relaxed;
  relaxed.require_guarantees = false;
  QueryOracle strict(Query::Parse("∀x1", 1));
  QueryOracle loose(Query::Parse("∀x1", 1), relaxed);
  TupleSet empty;
  EXPECT_FALSE(strict.IsAnswer(empty));
  EXPECT_TRUE(loose.IsAnswer(empty));
}

TEST(CountingOracleTest, TracksQuestionAndTupleCounts) {
  QueryOracle inner(Query::Parse("∃x1", 2));
  CountingOracle counting(&inner);
  counting.IsAnswer(TupleSet::Parse({"10", "01"}));
  counting.IsAnswer(TupleSet::Parse({"10"}));
  counting.IsAnswer(TupleSet::Parse({"01"}));
  EXPECT_EQ(counting.stats().questions, 3);
  EXPECT_EQ(counting.stats().tuples, 4);
  EXPECT_EQ(counting.stats().max_tuples, 2);
  EXPECT_EQ(counting.stats().answers, 2);
  counting.ResetStats();
  EXPECT_EQ(counting.stats().questions, 0);
}

TEST(CachingOracleTest, RepeatedQuestionsHitTheCache) {
  QueryOracle inner(Query::Parse("∃x1", 2));
  CountingOracle counting(&inner);
  QuestionStore store(&counting);
  TupleSet q1 = TupleSet::Parse({"10"});
  TupleSet q2 = TupleSet::Parse({"01"});
  EXPECT_TRUE(store.IsAnswer(q1));
  EXPECT_TRUE(store.IsAnswer(q1));
  EXPECT_FALSE(store.IsAnswer(q2));
  EXPECT_FALSE(store.IsAnswer(q2));
  EXPECT_EQ(store.hits(), 2);
  EXPECT_EQ(store.misses(), 2);
  EXPECT_EQ(counting.stats().questions, 2);  // inner asked only twice
}

TEST(CachingOracleTest, CanonicalFormMakesPermutationsHit) {
  QueryOracle inner(Query::Parse("∃x1", 2));
  QuestionStore store(&inner);
  store.IsAnswer(TupleSet::Parse({"10", "01"}));
  store.IsAnswer(TupleSet::Parse({"01", "10"}));  // same object
  EXPECT_EQ(store.hits(), 1);
}

// What a cancelled parked round throws in these tests.
struct Cancelled {};

// Inner oracle for the cache tests: answers by a fixed content rule,
// records every question it answers, and while `cancel` is set throws
// Cancelled instead — after recording the refused round in `cancelled`.
class SpyOracle : public MembershipOracle {
 public:
  static bool Rule(const TupleSet& question) {
    Tuple folded = 0;
    for (Tuple t : question) folded ^= t;
    return std::popcount(folded) % 2 == 1;
  }

  bool IsAnswer(const TupleSet& question) override {
    return Answer({&question, 1}).front();
  }

  void IsAnswerBatch(std::span<const TupleSet> questions,
                     BitSpan answers) override {
    std::vector<bool> bits = Answer(questions);
    for (size_t i = 0; i < bits.size(); ++i) answers.Set(i, bits[i]);
  }

  bool cancel = false;
  std::vector<std::vector<Tuple>> asked;      // answered, in order
  std::vector<std::vector<Tuple>> cancelled;  // refused, in order

 private:
  std::vector<bool> Answer(std::span<const TupleSet> questions) {
    std::vector<bool> bits;
    for (const TupleSet& q : questions) {
      (cancel ? cancelled : asked).push_back(q.tuples());
      bits.push_back(Rule(q));
    }
    if (cancel) throw Cancelled{};
    return bits;
  }
};

TupleSet RandomQuestion(Rng& rng, int n, int min_tuples, int max_tuples) {
  std::vector<Tuple> tuples(
      static_cast<size_t>(rng.Range(min_tuples, max_tuples)));
  for (Tuple& t : tuples) t = rng.Next() & AllTrue(n);
  return TupleSet(std::move(tuples));
}

// Asks `round` as one batch and returns its answers.
std::vector<bool> AskRound(MembershipOracle& oracle,
                           const std::vector<TupleSet>& round) {
  BitVec bits;
  BitSpan answers = bits.Prepare(round.size());
  oracle.IsAnswerBatch(round, answers);
  std::vector<bool> out;
  for (size_t i = 0; i < round.size(); ++i) out.push_back(answers.Get(i));
  return out;
}

TEST(CachingOracleRollbackTest, CancelledQuestionIsForwardedAgain) {
  SpyOracle spy;
  QuestionStore store(&spy);
  TupleSet earlier = TupleSet::Parse({"1100", "0011"});
  TupleSet q = TupleSet::Parse({"1010", "0101", "1111"});
  EXPECT_EQ(store.slot_count(), 0u) << "the table is allocated by an insert";
  store.IsAnswer(earlier);
  spy.cancel = true;
  EXPECT_THROW(store.IsAnswer(q), Cancelled);
  EXPECT_EQ(store.misses(), 1);
  EXPECT_EQ(store.hits(), 0);
  EXPECT_EQ(store.size(), 1u);
  spy.cancel = false;
  EXPECT_EQ(store.IsAnswer(q), SpyOracle::Rule(q));
  ASSERT_EQ(spy.asked.size(), 2u) << "the cancelled question was not re-asked";
  EXPECT_EQ(spy.asked.back(), q.tuples());
  EXPECT_EQ(store.misses(), 2);
  EXPECT_EQ(store.IsAnswer(q), SpyOracle::Rule(q));
  EXPECT_EQ(store.hits(), 1);
  EXPECT_EQ(spy.asked.size(), 2u);
}

TEST(CachingOracleRollbackTest, CancelledRoundRestoresHitsMissesAndEntries) {
  SpyOracle spy;
  QuestionStore store(&spy);
  Rng rng(5);
  std::vector<TupleSet> cached;
  for (int i = 0; i < 5; ++i) {
    cached.push_back(RandomQuestion(rng, 32, 1, 16));
  }
  for (const TupleSet& q : cached) store.IsAnswer(q);
  TupleSet m1 = RandomQuestion(rng, 32, 1, 16);
  TupleSet m2 = RandomQuestion(rng, 32, 1, 16);
  TupleSet m3 = RandomQuestion(rng, 32, 1, 16);
  // Hits between the misses force the gather path; m1 repeats.
  std::vector<TupleSet> round = {m1, cached[0], m2, m1, cached[3], m3};
  const int64_t hits = store.hits();
  const int64_t misses = store.misses();
  const size_t forwarded = spy.asked.size();

  spy.cancel = true;
  EXPECT_THROW(AskRound(store, round), Cancelled);
  EXPECT_EQ(store.hits(), hits);
  EXPECT_EQ(store.misses(), misses);
  EXPECT_EQ(store.size(), cached.size());
  std::vector<std::vector<Tuple>> refused = spy.cancelled;
  ASSERT_EQ(refused.size(), 3u);

  spy.cancel = false;
  for (const TupleSet& q : cached) {
    EXPECT_EQ(store.IsAnswer(q), SpyOracle::Rule(q));
  }
  EXPECT_EQ(store.hits(), hits + static_cast<int64_t>(cached.size()));
  EXPECT_EQ(spy.asked.size(), forwarded) << "a pre-round question missed";

  std::vector<bool> answers = AskRound(store, round);
  for (size_t i = 0; i < round.size(); ++i) {
    EXPECT_EQ(answers[i], SpyOracle::Rule(round[i])) << "question " << i;
  }
  std::vector<std::vector<Tuple>> replayed(spy.asked.begin() + forwarded,
                                           spy.asked.end());
  EXPECT_EQ(replayed, refused);
  EXPECT_EQ(replayed, (std::vector<std::vector<Tuple>>{
                          m1.tuples(), m2.tuples(), m3.tuples()}));
}

TEST(CachingOracleRollbackTest, RollbackMovesDisplacedSlotsBack) {
  // White-box layout: a question's home slot is the low bits of its hash.
  // Every question below has home 12 in the 16-slot first table and home
  // 28 in the doubled one. Seven cached questions fill slots 12..15, 0..2
  // (one short of the half-full growth point); the round's first miss
  // takes slot 3 and its second doubles the table. Growth re-places slots
  // in old-slot order, so the wrapped run 0..3 — the first miss included —
  // lands at 28..31 ahead of the cached questions from 12..15, now at
  // 0..3. Erasing that miss must shift those four back across the hole.
  static_assert(QuestionStore::kInitialSlots == 16);
  Rng rng(9);
  std::vector<TupleSet> colliding;
  while (colliding.size() < 9) {
    TupleSet q = RandomQuestion(rng, 32, 1, 16);
    if ((q.Hash() & 31) == 28) colliding.push_back(q);
  }
  std::vector<TupleSet> cached(colliding.begin(), colliding.begin() + 7);
  std::vector<TupleSet> round(colliding.begin() + 7, colliding.end());

  SpyOracle spy;
  QuestionStore store(&spy);
  for (const TupleSet& q : cached) store.IsAnswer(q);
  ASSERT_EQ(store.slot_count(), 16u);
  spy.cancel = true;
  EXPECT_THROW(AskRound(store, round), Cancelled);
  EXPECT_EQ(store.slot_count(), 32u) << "the round did not double the table";
  EXPECT_EQ(store.size(), cached.size());
  EXPECT_EQ(store.misses(), 7);

  spy.cancel = false;
  for (const TupleSet& q : cached) {
    EXPECT_EQ(store.IsAnswer(q), SpyOracle::Rule(q));
  }
  EXPECT_EQ(store.hits(), 7) << "a cached question became unreachable";
  EXPECT_EQ(spy.asked.size(), 7u);
  AskRound(store, round);
  EXPECT_EQ(spy.asked.size(), 9u);
  EXPECT_EQ(spy.asked[7], round[0].tuples());
  EXPECT_EQ(spy.asked[8], round[1].tuples());
}

// Everything a round cancelled below the store must leave as it was.
struct Observed {
  size_t stored_tuples = 0;
  std::vector<std::tuple<std::vector<Tuple>, bool, int64_t>> entries;
  int64_t rounds = 0;
  size_t stored = 0;
  int64_t hits = 0;
  OracleStats forwarded;
  bool operator==(const Observed&) const = default;
};

Observed Observe(const QuestionStore& store) {
  Observed o{store.stored_tuples(), {},           store.rounds(),
             store.size(),          store.hits(), store.forwarded()};
  for (const TranscriptEntry& e : store.entries()) {
    o.entries.emplace_back(e.question.tuples(), e.response, e.round);
  }
  return o;
}

// A round cancelled below the store (the spy throws) must leave the log,
// the history and the table exactly as they were, in each shape a round
// can take (store → counting → [replay] → spy), the store's forwarded
// counts included; a cancelled question is then forwarded again when
// re-asked, and found once answered.
TEST(CachingOracleRollbackTest, CancelledRoundLeavesTheSharedLogAsItWas) {
  Rng rng(17);
  auto fresh = [&rng] { return RandomQuestion(rng, 32, 1, 16); };
  auto expect_reasked = [](QuestionStore& store, const SpyOracle& spy,
                           const TupleSet& q) {
    const size_t forwarded = spy.asked.size();
    EXPECT_EQ(store.IsAnswer(q), SpyOracle::Rule(q));
    ASSERT_EQ(spy.asked.size(), forwarded + 1)
        << "the cancelled question was not forwarded again";
    EXPECT_EQ(spy.asked.back(), q.tuples());
    const int64_t hits = store.hits();
    EXPECT_EQ(store.IsAnswer(q), SpyOracle::Rule(q));
    EXPECT_EQ(store.hits(), hits + 1) << "the re-asked question missed";
  };

  {
    SCOPED_TRACE("single question");
    SpyOracle spy;
    CountingOracle counting(&spy);
    QuestionStore store(&counting);
    std::vector<TupleSet> earlier = {fresh(), fresh()};
    for (const TupleSet& q : earlier) store.IsAnswer(q);
    AskRound(store, {fresh(), earlier[0]});
    const Observed before = Observe(store);
    TupleSet q = fresh();
    spy.cancel = true;
    EXPECT_THROW(store.IsAnswer(q), Cancelled);
    EXPECT_EQ(Observe(store), before);
    spy.cancel = false;
    expect_reasked(store, spy, q);
  }
  {
    SCOPED_TRACE("batch");
    SpyOracle spy;
    CountingOracle counting(&spy);
    QuestionStore store(&counting);
    std::vector<TupleSet> earlier = {fresh(), fresh(), fresh()};
    AskRound(store, earlier);
    const Observed before = Observe(store);
    TupleSet m1 = fresh();
    TupleSet m2 = fresh();
    spy.cancel = true;
    EXPECT_THROW(AskRound(store, {m1, earlier[1], m2, m1}), Cancelled);
    EXPECT_EQ(Observe(store), before);
    spy.cancel = false;
    expect_reasked(store, spy, m2);
    expect_reasked(store, spy, m1);
  }
  {
    SCOPED_TRACE("batch whose inserts double the table");
    SpyOracle spy;
    CountingOracle counting(&spy);
    QuestionStore store(&counting);
    for (size_t i = 0; i + 1 < QuestionStore::kInitialSlots / 2; ++i) {
      store.IsAnswer(fresh());
    }
    ASSERT_EQ(store.slot_count(), QuestionStore::kInitialSlots);
    const Observed before = Observe(store);
    std::vector<TupleSet> round = {fresh(), fresh(), fresh()};
    spy.cancel = true;
    EXPECT_THROW(AskRound(store, round), Cancelled);
    EXPECT_EQ(store.slot_count(), 2 * QuestionStore::kInitialSlots)
        << "the round did not double the table";
    EXPECT_EQ(Observe(store), before);
    spy.cancel = false;
    for (const TupleSet& q : round) expect_reasked(store, spy, q);
  }
  {
    SCOPED_TRACE("replay serves a prefix and forwards the tail");
    std::vector<TupleSet> recorded = {fresh(), fresh(), fresh()};
    std::vector<TranscriptEntry> prefix;
    for (const TupleSet& q : recorded) prefix.push_back({q, SpyOracle::Rule(q)});
    SpyOracle spy;
    ReplayOracle replay(&spy, std::move(prefix));
    CountingOracle counting(&replay);
    QuestionStore store(&counting);
    store.IsAnswer(recorded[0]);  // served by the replay
    const Observed before = Observe(store);
    TupleSet d = fresh();
    TupleSet e = fresh();
    std::vector<TupleSet> round = {recorded[1], recorded[2], d, e};
    spy.cancel = true;
    // The replay serves recorded[1..2] and forwards {d, e} to the spy.
    EXPECT_THROW(AskRound(store, round), Cancelled);
    EXPECT_EQ(spy.cancelled,
              (std::vector<std::vector<Tuple>>{d.tuples(), e.tuples()}));
    EXPECT_EQ(Observe(store), before);
    EXPECT_EQ(counting.stats().questions, 1);
    EXPECT_EQ(replay.replayed(), 1);
    spy.cancel = false;
    AskRound(store, round);
    EXPECT_EQ(spy.asked,
              (std::vector<std::vector<Tuple>>{d.tuples(), e.tuples()}))
        << "the re-asked round was not served from the recording";
    EXPECT_EQ(replay.replayed(), 3);
    for (const TupleSet& q : round) {
      const int64_t hits = store.hits();
      EXPECT_EQ(store.IsAnswer(q), SpyOracle::Rule(q));
      EXPECT_EQ(store.hits(), hits + 1);
    }
  }
}

TEST(CachingOracleTest, MatchesAReferenceModelThroughManyDoublings) {
  // 20k questions at n = 32, ~30% of them repeats (reordered, so the
  // canonical form must make them hit), some empty, asked one at a time
  // and in rounds of up to 8; every 20th round that reaches the inner
  // oracle is cancelled. The model is
  // a std::map keyed by the canonical tuple list.
  const int kN = 32;
  const size_t kQuestions = 20000;
  SpyOracle spy;
  QuestionStore store(&spy);
  std::map<std::vector<Tuple>, bool> model;
  std::vector<std::vector<Tuple>> model_asked;
  int64_t model_hits = 0;
  int64_t model_misses = 0;
  Rng rng(2024);
  std::vector<TupleSet> history;
  size_t rounds = 0;
  for (size_t asked = 0; asked < kQuestions; ++rounds) {
    size_t width = rng.Chance(0.5) ? 1 : static_cast<size_t>(rng.Range(1, 8));
    std::vector<TupleSet> round;
    for (size_t i = 0; i < width; ++i) {
      if (!history.empty() && rng.Chance(0.3)) {
        std::vector<Tuple> tuples = rng.Pick(history).tuples();
        rng.Shuffle(&tuples);
        round.push_back(TupleSet(std::move(tuples)));
      } else {
        round.push_back(RandomQuestion(rng, kN, 0, 24));
        history.push_back(round.back());
      }
    }
    asked += width;
    bool batch = width > 1 || rng.Chance(0.5);
    bool forwards = std::any_of(round.begin(), round.end(),
                                [&](const TupleSet& q) {
                                  return !model.contains(q.tuples());
                                });
    if (rounds % 20 == 19 && forwards) {
      spy.cancel = true;
      if (batch) {
        EXPECT_THROW(AskRound(store, round), Cancelled);
      } else {
        EXPECT_THROW(store.IsAnswer(round[0]), Cancelled);
      }
      spy.cancel = false;
      continue;
    }
    std::vector<bool> expected;
    for (const TupleSet& q : round) {
      auto it = model.find(q.tuples());
      if (it != model.end()) {
        ++model_hits;
      } else {
        ++model_misses;
        model_asked.push_back(q.tuples());
        it = model.emplace(q.tuples(), SpyOracle::Rule(q)).first;
      }
      expected.push_back(it->second);
    }
    std::vector<bool> got =
        batch ? AskRound(store, round)
              : std::vector<bool>{store.IsAnswer(round[0])};
    ASSERT_EQ(got, expected) << "round " << rounds;
    ASSERT_EQ(store.hits(), model_hits) << "round " << rounds;
    ASSERT_EQ(store.misses(), model_misses) << "round " << rounds;
  }
  EXPECT_EQ(spy.asked, model_asked);
  EXPECT_EQ(store.size(), model.size());
  EXPECT_GT(model_hits, static_cast<int64_t>(kQuestions / 5));
  EXPECT_GE(store.slot_count(), 2 * model.size());
  EXPECT_GE(store.slot_count(), QuestionStore::kInitialSlots << 10)
      << "vacuous: the table never grew through many doublings";
}

TEST(NoisyOracleTest, ZeroNoiseIsTransparent) {
  QueryOracle inner(Query::Parse("∃x1", 1));
  NoisyOracle noisy(&inner, 0.0, /*seed=*/7);
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(noisy.IsAnswer(TupleSet::Parse({"1"})));
  }
  EXPECT_EQ(noisy.flips(), 0);
}

TEST(NoisyOracleTest, FlipRateNearProbability) {
  QueryOracle inner(Query::Parse("∃x1", 1));
  NoisyOracle noisy(&inner, 0.3, /*seed=*/11);
  int wrong = 0;
  for (int i = 0; i < 2000; ++i) {
    if (!noisy.IsAnswer(TupleSet::Parse({"1"}))) ++wrong;
  }
  EXPECT_EQ(wrong, noisy.flips());
  EXPECT_NEAR(static_cast<double>(wrong) / 2000.0, 0.3, 0.05);
}

TEST(NoisyOracleTest, AlwaysFlipInverts) {
  QueryOracle inner(Query::Parse("∃x1", 1));
  NoisyOracle noisy(&inner, 1.0, /*seed=*/3);
  EXPECT_FALSE(noisy.IsAnswer(TupleSet::Parse({"1"})));
  EXPECT_TRUE(noisy.IsAnswer(TupleSet::Parse({"0"})));
}

TEST(NoisyOracleTest, FlipCountStaysWithinBinomialBounds) {
  // Flip counts over a large batch are Binomial(N, p); a seeded draw
  // landing outside ±5σ of the mean indicates a broken noise source
  // (probability < 1e-6 per rate for a faithful one, so the test is
  // deterministic in practice yet sensitive to rate bugs like p/2, p²,
  // or a stuck RNG).
  QueryOracle inner(Query::Parse("∃x1", 1));
  const size_t kN = 20000;
  std::vector<TupleSet> questions(kN, TupleSet::Parse({"1"}));
  for (double p : {0.05, 0.3, 0.5, 0.75}) {
    NoisyOracle noisy(&inner, p, /*seed=*/0x5eedULL + std::llround(p * 100));
    EXPECT_EQ(noisy.flip_prob(), p);
    BitVec bits;
    noisy.IsAnswerBatch(questions, bits.Prepare(kN));
    const double mean = static_cast<double>(kN) * p;
    const double sigma = std::sqrt(static_cast<double>(kN) * p * (1.0 - p));
    EXPECT_NEAR(static_cast<double>(noisy.flips()), mean, 5.0 * sigma)
        << "flip count for p=" << p << " outside Binomial(N,p) ±5σ";
  }
}

TEST(NoisyOracleTest, BatchAndSequentialDecompositionsShareTheFlipSequence) {
  // The documented contract: flip draws happen in question order whether
  // the round arrives as one batch or question by question, so the same
  // seed yields bit-identical answers and the same flip count on either
  // path. (The pending-round replay protocol leans on this — a resumed
  // session re-runs batched what a synchronous session asked piecemeal.)
  QueryOracle inner(Query::Parse("∀x1 ∃x2", 2));
  const size_t kN = 512;
  std::vector<TupleSet> questions;
  questions.reserve(kN);
  const char* shapes[] = {"11", "01", "10", "00"};
  for (size_t i = 0; i < kN; ++i) {
    questions.push_back(TupleSet::Parse({shapes[i % 4], shapes[(i / 4) % 4]}));
  }
  NoisyOracle batched(&inner, 0.25, /*seed=*/99);
  NoisyOracle sequential(&inner, 0.25, /*seed=*/99);
  BitVec bits;
  BitSpan batch_answers = bits.Prepare(kN);
  batched.IsAnswerBatch(questions, batch_answers);
  for (size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(sequential.IsAnswer(questions[i]), batch_answers.Get(i))
        << "answer " << i << " differs between batch and sequential delivery";
  }
  EXPECT_EQ(batched.flips(), sequential.flips());
  EXPECT_GT(batched.flips(), 0) << "vacuous: the noise stream never fired";
}

}  // namespace
}  // namespace qhorn
