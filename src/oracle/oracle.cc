#include "src/oracle/oracle.h"

#include <cstdint>

namespace qhorn {

bool CountingOracle::IsAnswer(const TupleSet& question) {
  // Count only after the inner oracle answers: a cancelled parked round
  // (pending backend) unwinds by throwing, and the unwound question must
  // leave no trace in the statistics. Nothing below can observe stats_,
  // so the reordering is invisible on the non-throwing path.
  bool answer = inner_->IsAnswer(question);
  ++stats_.rounds;
  stats_.Count(question, answer);
  return answer;
}

void CountingOracle::IsAnswerBatch(std::span<const TupleSet> questions,
                                   BitSpan answers) {
  // Count only after the forward returns, so a cancelled parked round
  // (JobSuspended unwinding from a pending backend) contaminates nothing. Sequential
  // equivalence: an empty batch is zero IsAnswer calls, so it counts no
  // round — branchless, this function is on the hottest round path. (The
  // empty forward is harmless: every layer treats an empty round as a
  // no-op.)
  inner_->IsAnswerBatch(questions, answers);
  stats_.rounds += static_cast<int64_t>(!questions.empty());
  stats_.batched_questions += static_cast<int64_t>(questions.size());
  for (size_t i = 0; i < questions.size(); ++i) {
    stats_.Count(questions[i], answers.Get(i));
  }
}

bool NoisyOracle::MaybeFlip(bool answer) {
  if (rng_.Chance(flip_prob_)) {
    ++flips_;
    return !answer;
  }
  return answer;
}

bool NoisyOracle::IsAnswer(const TupleSet& question) {
  return MaybeFlip(inner_->IsAnswer(question));
}

void NoisyOracle::IsAnswerBatch(std::span<const TupleSet> questions,
                                BitSpan answers) {
  // An empty round draws no noise (the loop is naturally empty) and the
  // layers below all treat the empty forward as a no-op.
  inner_->IsAnswerBatch(questions, answers);
  for (size_t i = 0; i < questions.size(); ++i) {
    answers.Set(i, MaybeFlip(answers.Get(i)));
  }
}

}  // namespace qhorn
