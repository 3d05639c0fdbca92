#include "src/oracle/pending.h"

#include <utility>

#include "src/util/bit_span.h"
#include "src/util/check.h"
#include "src/util/fiber.h"

namespace qhorn {

void PendingOracle::Park(std::vector<TupleSet> round, BitSpan answers) {
  QHORN_CHECK_MSG(fiber != nullptr,
                  "pending round reached a PendingOracle with no fiber: "
                  "session jobs on a pending backend must run on the "
                  "router's fiber runner");
  const size_t count = round.size();
  questions = RoundQuestions(std::move(round));
  // Switch back to the runner with the stack alive. The runner publishes
  // the round and later resumes with its answers staged, or with `cancel`
  // set, in which case the throw unwinds the parked stack to the fiber body.
  fiber->Yield();
  questions = RoundQuestions();
  if (cancel) throw JobSuspended();
  QHORN_CHECK_MSG(staged.size() == count,
                  "fiber resumed without answers for the parked round");
  for (size_t i = 0; i < count; ++i) answers.Set(i, staged[i]);
  staged.clear();
}

bool PendingOracle::IsAnswer(const TupleSet& question) {
  uint64_t word = 0;
  BitSpan one(&word, 0, 1);
  Park({question}, one);
  return one.Get(0);
}

void PendingOracle::IsAnswerBatch(std::span<const TupleSet> questions,
                                  BitSpan answers) {
  if (questions.empty()) return;
  Park(std::vector<TupleSet>(questions.begin(), questions.end()), answers);
}

}  // namespace qhorn
