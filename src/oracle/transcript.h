// Response history and correction-replay (§5, "Noisy Users").
//
// The paper suggests that a good interface keeps a history of the user's
// responses so an incorrect response can be fixed, "triggering the query
// learning algorithm to restart query learning from the point of error".
// TranscriptOracle records every (question, response); Correct() flips a
// recorded response; ReplayOracle then serves the corrected prefix verbatim
// and falls through to the ground-truth oracle afterwards — exactly the
// restart-from-the-point-of-error workflow.
//
// Both decorators are batch-aware: a batched round records (or replays)
// its questions in order, and each transcript entry remembers which round
// it arrived in, so a UI can render "round 7 asked these 12 questions
// together" while correction indices keep addressing single questions.
//
// The history is one flat QuestionLog (oracle.h): every asked question's
// tuples back to back, and a 16-byte record (offset, size, response,
// round) per answered question. The transcript appends a round's
// questions to the log *before* it forwards the round, which is what lets
// a CachingOracle below it share the log instead of copying each question
// a second time; a round cancelled by a throw is truncated off again. The
// log is the only copy of the questions a session keeps, so entries()
// builds TranscriptEntry values from it on demand.

#ifndef QHORN_ORACLE_TRANSCRIPT_H_
#define QHORN_ORACLE_TRANSCRIPT_H_

#include <span>
#include <string>
#include <vector>

#include "src/oracle/oracle.h"

namespace qhorn {

/// One question/answer exchange.
struct TranscriptEntry {
  TupleSet question;
  bool response = false;
  /// Oracle round the exchange belonged to (a batch is one round; the
  /// questions of a batch share a round id).
  int64_t round = 0;
};

/// Decorator that records the full exchange history into a QuestionLog.
class TranscriptOracle : public MembershipOracle {
 public:
  /// `log` must be empty and outlive the transcript; a CachingOracle below
  /// the transcript is built over the same log.
  TranscriptOracle(MembershipOracle* inner, QuestionLog* log)
      : inner_(inner), log_(log) {}

  bool IsAnswer(const TupleSet& question) override;
  void IsAnswerBatch(std::span<const TupleSet> questions,
                     BitSpan answers) override;

  /// The recorded exchanges, in order, built from the log: O(total tuples)
  /// per call.
  std::vector<TranscriptEntry> entries() const;

  /// Oracle rounds recorded so far (single questions and batches alike).
  int64_t rounds() const { return rounds_; }

  /// Flips the recorded response at `index` (0-based). Later entries are
  /// discarded: they were computed from the bad answer and must be
  /// re-asked. The next round's id follows the round of entry `index`. A
  /// CachingOracle over the same log may index the discarded questions and
  /// must be discarded with them.
  void Correct(size_t index);

  /// Renders the history, e.g. for the examples' console output.
  std::string ToString(int n) const;

 private:
  // Appends `question` to the log's tuples and returns where it starts.
  size_t Stage(const TupleSet& question);

  MembershipOracle* inner_;
  QuestionLog* log_;
  int64_t rounds_ = 0;
};

/// Serves recorded responses for questions that match the transcript
/// prefix in order; once the prefix is exhausted (or a question deviates),
/// defers to the fallback oracle. Used to re-run a learner after a
/// correction without re-asking the user everything.
class ReplayOracle : public MembershipOracle {
 public:
  ReplayOracle(std::vector<TranscriptEntry> transcript,
               MembershipOracle* fallback)
      : transcript_(std::move(transcript)), fallback_(fallback) {}

  /// Stage-order constructor (inner first) for OraclePipeline::Push.
  ReplayOracle(MembershipOracle* fallback,
               std::vector<TranscriptEntry> transcript)
      : ReplayOracle(std::move(transcript), fallback) {}

  bool IsAnswer(const TupleSet& question) override;
  void IsAnswerBatch(std::span<const TupleSet> questions,
                     BitSpan answers) override;

  /// Questions served from the recorded transcript.
  int64_t replayed() const { return replayed_; }
  /// Questions that had to go to the fallback oracle (i.e. to the user).
  int64_t asked() const { return asked_; }

 private:
  /// Serves `question` from the transcript prefix if it still matches.
  /// Returns false when the question must go to the fallback instead.
  bool TryReplay(const TupleSet& question, bool* response);

  std::vector<TranscriptEntry> transcript_;
  MembershipOracle* fallback_;
  size_t next_ = 0;
  bool diverged_ = false;
  int64_t replayed_ = 0;
  int64_t asked_ = 0;
};

}  // namespace qhorn

#endif  // QHORN_ORACLE_TRANSCRIPT_H_
