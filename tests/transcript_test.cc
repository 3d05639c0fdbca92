// Response history and correction replay (§5 "Noisy Users"): record every
// exchange, fix a wrong response, restart learning from the point of error
// without re-asking the unchanged prefix.

#include "src/oracle/transcript.h"

#include <gtest/gtest.h>

#include "src/core/normalize.h"
#include "src/learn/rp_learner.h"

namespace qhorn {
namespace {

TEST(TranscriptTest, RecordsEveryExchange) {
  QueryOracle inner(Query::Parse("∃x1", 2));
  QuestionLog log;
  TranscriptOracle transcript(&inner, &log);
  transcript.IsAnswer(TupleSet::Parse({"10"}));
  transcript.IsAnswer(TupleSet::Parse({"01"}));
  ASSERT_EQ(transcript.entries().size(), 2u);
  EXPECT_TRUE(transcript.entries()[0].response);
  EXPECT_FALSE(transcript.entries()[1].response);
  EXPECT_NE(transcript.ToString(2).find("non-answer"), std::string::npos);
}

TEST(TranscriptTest, CorrectFlipsAndTruncates) {
  QueryOracle inner(Query::Parse("∃x1", 2));
  QuestionLog log;
  TranscriptOracle transcript(&inner, &log);
  transcript.IsAnswer(TupleSet::Parse({"10"}));
  transcript.IsAnswer(TupleSet::Parse({"01"}));
  transcript.IsAnswer(TupleSet::Parse({"11"}));
  transcript.Correct(1);
  ASSERT_EQ(transcript.entries().size(), 2u);
  EXPECT_TRUE(transcript.entries()[1].response);  // flipped
}

TEST(TranscriptTest, CorrectRewindsTheRoundCounter) {
  QueryOracle inner(Query::Parse("∃x1", 2));
  QuestionLog log;
  TranscriptOracle transcript(&inner, &log);
  std::vector<TupleSet> batch = {TupleSet::Parse({"10"}),
                                 TupleSet::Parse({"01"})};
  BitVec bits;
  transcript.IsAnswer(TupleSet::Parse({"11"}));        // round 0
  transcript.IsAnswerBatch(batch, bits.Prepare(2));    // round 1
  transcript.IsAnswer(TupleSet::Parse({"00"}));        // round 2
  transcript.IsAnswer(TupleSet::Parse({"11", "00"}));  // round 3
  ASSERT_EQ(transcript.rounds(), 4);

  // Entry 1 is the first question of round 1: its round-mate and the two
  // later rounds are discarded, and round 1 stays the last one recorded.
  transcript.Correct(1);
  EXPECT_EQ(transcript.rounds(), 2);
  ASSERT_EQ(transcript.entries().size(), 2u);
  EXPECT_EQ(log.tuples.size(), 2u) << "discarded questions left tuples";

  transcript.IsAnswer(TupleSet::Parse({"00"}));
  EXPECT_EQ(transcript.rounds(), 3);
  std::vector<TranscriptEntry> entries = transcript.entries();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[1].round, 1);
  EXPECT_FALSE(entries[1].response) << "the correction did not flip it";
  EXPECT_EQ(entries[2].round, 2) << "the next round skipped discarded ids";
  EXPECT_EQ(entries[2].question, TupleSet::Parse({"00"}));
}

TEST(ReplayTest, ServesPrefixThenFallsThrough) {
  QueryOracle truth(Query::Parse("∃x1", 2));
  std::vector<TranscriptEntry> recorded = {
      {TupleSet::Parse({"10"}), true},
      {TupleSet::Parse({"01"}), false},
  };
  CountingOracle counted_truth(&truth);
  ReplayOracle replay(recorded, &counted_truth);
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
  ReplayOracle replay(recorded, &truth);
  // First question differs from the recording → all questions go to the
  // fallback, including ones that appear later in the recording.
  EXPECT_TRUE(replay.IsAnswer(TupleSet::Parse({"11"})));
  EXPECT_FALSE(replay.IsAnswer(TupleSet::Parse({"01"})));
  EXPECT_EQ(replay.replayed(), 0);
  EXPECT_EQ(replay.asked(), 2);
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

  QuestionLog log;
  TranscriptOracle history(&flaky, &log);
  RpLearnerResult wrong = LearnRolePreserving(4, &history);
  ASSERT_FALSE(Equivalent(wrong.query, target));

  // The user reviews the history and fixes response #3 (index 2).
  history.Correct(2);

  // Pass 2: replay the corrected history; unanswered questions go to the
  // real user (truth oracle this time).
  CountingOracle fresh(&truth);
  ReplayOracle replay(history.entries(), &fresh);
  RpLearnerResult fixed = LearnRolePreserving(4, &replay);
  EXPECT_TRUE(Equivalent(fixed.query, target))
      << "relearned: " << fixed.query.ToString();
  // The unchanged prefix (2 correct answers + the corrected one) came from
  // the recording, not the user.
  EXPECT_GE(replay.replayed(), 3);
}

}  // namespace
}  // namespace qhorn
