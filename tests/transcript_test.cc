// Response history and correction replay (§5 "Noisy Users"): record every
// exchange in the question store, fix a wrong response, restart learning
// from the point of error without re-asking the unchanged prefix.

#include "src/oracle/transcript.h"

#include <gtest/gtest.h>

#include <span>

#include "src/core/normalize.h"
#include "src/learn/rp_learner.h"

namespace qhorn {
namespace {

TEST(TranscriptTest, RecordsEveryExchange) {
  QueryOracle inner(Query::Parse("∃x1", 2));
  QuestionStore transcript(&inner);
  transcript.IsAnswer(TupleSet::Parse({"10"}));
  transcript.IsAnswer(TupleSet::Parse({"01"}));
  transcript.IsAnswer(TupleSet::Parse({"10"}));  // a repeat is recorded too
  ASSERT_EQ(transcript.entries().size(), 3u);
  EXPECT_TRUE(transcript.entries()[0].response);
  EXPECT_FALSE(transcript.entries()[1].response);
  EXPECT_EQ(transcript.entries()[2].question, TupleSet::Parse({"10"}));
  EXPECT_TRUE(transcript.entries()[2].response);
  EXPECT_EQ(transcript.stored_tuples(), 2u) << "the repeat was stored again";
  EXPECT_NE(transcript.ToString(2).find("non-answer"), std::string::npos);
}

TEST(TranscriptTest, CorrectFlipsAndTruncates) {
  QueryOracle inner(Query::Parse("∃x1", 2));
  QuestionStore transcript(&inner);
  transcript.IsAnswer(TupleSet::Parse({"10"}));
  transcript.IsAnswer(TupleSet::Parse({"01"}));
  transcript.IsAnswer(TupleSet::Parse({"11"}));
  ASSERT_EQ(transcript.AnswerIndex(1), 1u);
  std::vector<TranscriptEntry> prefix = transcript.CorrectedUserPrefix(1);
  ASSERT_EQ(prefix.size(), 2u);
  EXPECT_TRUE(prefix[0].response);  // kept
  EXPECT_TRUE(prefix[1].response);  // flipped
  EXPECT_EQ(prefix[1].question, TupleSet::Parse({"01"}));
  EXPECT_EQ(transcript.entries().size(), 3u) << "the history was changed";
}

// The prefix is what reached the user: a repeat the store answered is
// left out, and correcting a repeat flips the answer its first asking got.
TEST(TranscriptTest, CorrectionOfARepeatFlipsItsFirstAsking) {
  QueryOracle inner(Query::Parse("∃x1", 2));
  QuestionStore transcript(&inner);
  TupleSet a = TupleSet::Parse({"10"});
  TupleSet b = TupleSet::Parse({"01"});
  TupleSet c = TupleSet::Parse({"11"});
  std::vector<TupleSet> round = {a, b, a};
  BitVec bits;
  transcript.IsAnswerBatch(round, bits.Prepare(round.size()));
  transcript.IsAnswer(c);
  transcript.IsAnswer(b);
  ASSERT_EQ(transcript.hits(), 2);

  ASSERT_EQ(transcript.AnswerIndex(3), 2u);  // c, after a and b
  std::vector<TranscriptEntry> prefix = transcript.CorrectedUserPrefix(2);
  ASSERT_EQ(prefix.size(), 3u);
  EXPECT_EQ(prefix[0].question, a);
  EXPECT_EQ(prefix[1].question, b);
  EXPECT_EQ(prefix[2].question, c);
  EXPECT_FALSE(prefix[2].response) << "c is an answer; the flip is missing";

  ASSERT_EQ(transcript.AnswerIndex(2), 0u);  // the repeat of a
  prefix = transcript.CorrectedUserPrefix(0);
  ASSERT_EQ(prefix.size(), 1u);
  EXPECT_EQ(prefix[0].question, a);
  EXPECT_FALSE(prefix[0].response);

  ASSERT_EQ(transcript.AnswerIndex(4), 1u);  // the repeat of b
  prefix = transcript.CorrectedUserPrefix(1);
  ASSERT_EQ(prefix.size(), 2u);
  EXPECT_EQ(prefix[1].question, b);
  EXPECT_TRUE(prefix[1].response);
}

// A replay stage's transcript can run ahead of the store's log: the head
// of a round the replay served is answered, but the store logs the round
// only when it returns. Answers below the head's length come from it.
TEST(TranscriptTest, CorrectedPrefixTakesTheReplayedHead) {
  QueryOracle inner(Query::Parse("∃x1", 2));
  QuestionStore transcript(&inner);
  TupleSet a = TupleSet::Parse({"10"});
  TupleSet b = TupleSet::Parse({"01"});
  TupleSet c = TupleSet::Parse({"11"});
  transcript.IsAnswer(a);
  const std::vector<TranscriptEntry> head = {{a, true, 0}, {b, false, 1},
                                             {c, true, 1}};
  std::vector<TranscriptEntry> prefix = transcript.CorrectedUserPrefix(2, head);
  ASSERT_EQ(prefix.size(), 3u);
  EXPECT_EQ(prefix[1].question, b);
  EXPECT_EQ(prefix[2].question, c);
  EXPECT_FALSE(prefix[2].response) << "the flip is missing";
  prefix = transcript.CorrectedUserPrefix(1, head);
  ASSERT_EQ(prefix.size(), 2u);
  EXPECT_TRUE(prefix[1].response);

  // Past the head, the log's forwarded questions follow it.
  transcript.IsAnswer(b);
  transcript.IsAnswer(a);  // a repeat: not an answer of the user's
  transcript.IsAnswer(c);
  prefix = transcript.CorrectedUserPrefix(2, std::span(head).first(1));
  ASSERT_EQ(prefix.size(), 3u);
  EXPECT_EQ(prefix[1].question, b);
  EXPECT_EQ(prefix[2].question, c);
  EXPECT_FALSE(prefix[2].response);
}

// After a correction the relearn's rounds are numbered afresh: the
// discarded rounds are not counted, and the round ids do not skip them.
TEST(TranscriptTest, CorrectRewindsTheRoundCounter) {
  QueryOracle inner(Query::Parse("∃x1", 2));
  QuestionStore transcript(&inner);
  std::vector<TupleSet> batch = {TupleSet::Parse({"10"}),
                                 TupleSet::Parse({"01"})};
  BitVec bits;
  transcript.IsAnswer(TupleSet::Parse({"11"}));        // round 0
  transcript.IsAnswerBatch(batch, bits.Prepare(2));    // round 1
  transcript.IsAnswer(TupleSet::Parse({"00"}));        // round 2
  transcript.IsAnswer(TupleSet::Parse({"11", "00"}));  // round 3
  ASSERT_EQ(transcript.rounds(), 4);

  // Entry 1 is the first question of round 1: its round-mate and the two
  // later rounds are discarded.
  std::vector<TranscriptEntry> prefix = transcript.CorrectedUserPrefix(1);
  ASSERT_EQ(prefix.size(), 2u);
  CountingOracle user(&inner);
  ReplayOracle replay(&user, std::move(prefix));
  QuestionStore relearn(&replay);
  relearn.IsAnswer(TupleSet::Parse({"11"}));
  relearn.IsAnswerBatch(batch, bits.Prepare(2));
  relearn.IsAnswer(TupleSet::Parse({"00"}));
  EXPECT_EQ(relearn.rounds(), 3);
  std::vector<TranscriptEntry> entries = relearn.entries();
  ASSERT_EQ(entries.size(), 4u);
  EXPECT_EQ(entries[1].round, 1);
  EXPECT_FALSE(entries[1].response) << "the correction did not flip it";
  EXPECT_EQ(entries[3].round, 2) << "the next round skipped discarded ids";
  EXPECT_EQ(replay.replayed(), 2);
  EXPECT_EQ(user.stats().questions, 2) << "only 01 and 00 are new";
}

TEST(ReplayTest, ServesPrefixThenFallsThrough) {
  QueryOracle truth(Query::Parse("∃x1", 2));
  std::vector<TranscriptEntry> recorded = {
      {TupleSet::Parse({"10"}), true},
      {TupleSet::Parse({"01"}), false},
  };
  CountingOracle counted_truth(&truth);
  ReplayOracle replay(&counted_truth, recorded);
  EXPECT_TRUE(replay.IsAnswer(TupleSet::Parse({"10"})));
  EXPECT_FALSE(replay.IsAnswer(TupleSet::Parse({"01"})));
  EXPECT_TRUE(replay.IsAnswer(TupleSet::Parse({"11"})));  // beyond prefix
  EXPECT_EQ(replay.replayed(), 2);
  EXPECT_EQ(replay.asked(), 1);
  EXPECT_EQ(counted_truth.stats().questions, 1);
}

TEST(ReplayTest, DivergenceStopsReplay) {
  QueryOracle truth(Query::Parse("∃x1", 2));
  std::vector<TranscriptEntry> recorded = {
      {TupleSet::Parse({"10"}), true},
      {TupleSet::Parse({"01"}), false},
  };
  ReplayOracle replay(&truth, recorded);
  // First question differs from the recording → all questions go to the
  // fallback, including ones that appear later in the recording.
  EXPECT_TRUE(replay.IsAnswer(TupleSet::Parse({"11"})));
  EXPECT_FALSE(replay.IsAnswer(TupleSet::Parse({"01"})));
  EXPECT_EQ(replay.replayed(), 0);
  EXPECT_EQ(replay.asked(), 2);
}

// A round the user cancels (the fallback throws, as a pending backend's
// cancelled round does) must leave the replay as it was: its cursor, its
// divergence flag and its counters. Asked again, the round is served from
// the recording up to the first fresh question.
TEST(ReplayTest, CancelledRoundLeavesTheCursorAsItWas) {
  struct Cancelled {};
  struct CancellingUser : MembershipOracle {
    explicit CancellingUser(MembershipOracle* truth) : truth(truth) {}
    bool IsAnswer(const TupleSet& q) override {
      if (cancel) throw Cancelled{};
      ++asked;
      return truth->IsAnswer(q);
    }
    MembershipOracle* truth;
    bool cancel = false;
    int64_t asked = 0;
  };
  QueryOracle truth(Query::Parse("∃x1x2", 3));
  std::vector<TupleSet> questions = {
      TupleSet::Parse({"110"}), TupleSet::Parse({"011"}),
      TupleSet::Parse({"101"}), TupleSet::Parse({"111"})};
  std::vector<TranscriptEntry> recorded;
  for (size_t i = 0; i < 3; ++i) {
    recorded.push_back({questions[i], truth.IsAnswer(questions[i])});
  }
  CancellingUser user(&truth);
  ReplayOracle replay(&user, recorded);
  // r0, r1, then a fresh question in place of the recorded r2.
  std::vector<TupleSet> round = {questions[0], questions[1], questions[3]};
  BitVec bits;
  user.cancel = true;
  EXPECT_THROW(replay.IsAnswerBatch(round, bits.Prepare(round.size())),
               Cancelled);
  EXPECT_EQ(replay.replayed(), 0);
  EXPECT_EQ(replay.asked(), 0);

  user.cancel = false;
  BitSpan answers = bits.Prepare(round.size());
  replay.IsAnswerBatch(round, answers);
  for (size_t i = 0; i < round.size(); ++i) {
    EXPECT_EQ(answers.Get(i), truth.IsAnswer(round[i])) << "question " << i;
  }
  EXPECT_EQ(user.asked, 1) << "the recorded prefix went to the user again";
  EXPECT_EQ(replay.replayed(), 2);
  EXPECT_EQ(replay.asked(), 1);
}

// End-to-end §5 workflow: a user answers one question wrong, the learner
// mislearns; the user corrects the response in the history; re-running the
// learner over the corrected replay converges to the right query and only
// re-asks from the point of error.
TEST(CorrectionWorkflowTest, RelearnAfterCorrection) {
  Query target = Query::Parse("∀x1x2→x4 ∃x3", 4);
  QueryOracle truth(target);

  // Pass 1: the "user" (a flaky wrapper) answers question #3 incorrectly.
  struct FlakyOracle : MembershipOracle {
    MembershipOracle* inner;
    int flip_at;
    int asked = 0;
    bool IsAnswer(const TupleSet& q) override {
      bool v = inner->IsAnswer(q);
      return ++asked == flip_at ? !v : v;
    }
  } flaky;
  flaky.inner = &truth;
  flaky.flip_at = 3;

  QuestionStore history(&flaky);
  RpLearnerResult wrong = LearnRolePreserving(4, &history);
  ASSERT_FALSE(Equivalent(wrong.query, target));

  // The user reviews the history and fixes response #3 (the first wrong
  // one; a repeat the store answered may come before it).
  std::vector<TranscriptEntry> entries = history.entries();
  size_t index = 0;
  while (entries[index].response == truth.IsAnswer(entries[index].question)) {
    ++index;
  }
  std::vector<TranscriptEntry> prefix =
      history.CorrectedUserPrefix(history.AnswerIndex(index));
  ASSERT_EQ(prefix.size(), 3u);

  // Pass 2: replay the corrected prefix at the user boundary, below a
  // fresh store; unanswered questions go to the real user (truth oracle
  // this time).
  struct Seen : MembershipOracle {
    MembershipOracle* inner;
    std::vector<TupleSet> asked;
    bool IsAnswer(const TupleSet& q) override {
      asked.push_back(q);
      return inner->IsAnswer(q);
    }
  } fresh;
  fresh.inner = &truth;
  ReplayOracle replay(&fresh, prefix);
  QuestionStore store(&replay);
  RpLearnerResult fixed = LearnRolePreserving(4, &store);
  EXPECT_TRUE(Equivalent(fixed.query, target))
      << "relearned: " << fixed.query.ToString();
  // The unchanged prefix (2 correct answers + the corrected one) came from
  // the recording, not the user, and the user saw none of it again.
  EXPECT_EQ(replay.replayed(), 3);
  for (const TupleSet& q : fresh.asked) {
    for (const TranscriptEntry& e : prefix) {
      EXPECT_NE(q, e.question) << "a prefix question reached the user";
    }
  }
}

}  // namespace
}  // namespace qhorn
