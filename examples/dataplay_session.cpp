// A DataPlay-style session (§1, §5): the user's questions are materialized
// from a real chocolate database where possible (synthesized otherwise),
// the full response history is kept, and a deliberately wrong answer is
// corrected mid-session — restarting learning from the point of error.

#include <cstdio>
#include <vector>

#include "src/core/normalize.h"
#include "src/relation/chocolate.h"
#include "src/session/session.h"

using namespace qhorn;

namespace {

// A user who mislabels one question (they were distracted).
class DistractedUser : public MembershipOracle {
 public:
  DistractedUser(MembershipOracle* inner, int64_t wrong_at)
      : inner_(inner), wrong_at_(wrong_at) {}

  bool IsAnswer(const TupleSet& question) override {
    bool truth = inner_->IsAnswer(question);
    return ++asked_ == wrong_at_ ? !truth : truth;
  }

 private:
  MembershipOracle* inner_;
  int64_t wrong_at_;
  int64_t asked_ = 0;
};

}  // namespace

int main() {
  std::printf("=== DataPlay-style session with database-backed questions ===\n\n");

  BooleanBinding binding(ChocolateSchema(), ChocolatePropositions());
  Rng rng(2024);
  FlatRelation database = RandomChocolateDatabase(200, rng);
  DatabaseSelector selector(&database, &binding);

  // The intended query: only dark chocolates, some filled, some from
  // Madagascar.
  Query intended = Query::Parse("∀x1 ∃x2 ∃x3", 3);
  std::printf("hidden intention: %s\n\n", intended.ToString().c_str());

  // Show how questions look when drawn from the database.
  TupleSet sample_question = TupleSet::Parse({"111", "011"});
  NestedObject box = selector.MaterializeObject(sample_question, "sample", rng);
  std::printf("a membership question, materialized from the database:\n%s",
              box.tuples.ToString().c_str());
  std::printf("(%lld tuples from the database, %lld synthesized so far)\n\n",
              static_cast<long long>(selector.from_pool()),
              static_cast<long long>(selector.synthesized()));

  // The session: the user mislabels question #5; learning goes wrong.
  QueryOracle truth(intended);
  DistractedUser distracted(&truth, /*wrong_at=*/5);
  QuerySession session(3, &distracted);
  Query wrong = session.Learn();
  std::printf("learned with one wrong answer:  %s   (equivalent: %s)\n",
              wrong.ToString().c_str(),
              Equivalent(wrong, intended) ? "yes" : "no");

  // The user reviews the history and finds the answer they got wrong.
  std::vector<TranscriptEntry> history = session.history();
  std::printf("\nresponse history before correction:\n");
  size_t wrong_at = history.size();
  for (size_t i = 0; i < history.size(); ++i) {
    const TranscriptEntry& e = history[i];
    std::printf("Q%zu: %s  → %s\n", i + 1, e.question.ToString(3).c_str(),
                e.response ? "answer" : "non-answer");
    if (wrong_at == history.size() &&
        e.response != truth.IsAnswer(e.question)) {
      wrong_at = i;
    }
  }
  if (wrong_at == history.size()) return 1;
  std::printf("...user flips the response to Q%zu and learning restarts "
              "from that point.\n\n",
              wrong_at + 1);

  // The correction replays the answers the user gave before the wrong one
  // (and the fixed one); only new questions reach the (now attentive) user.
  const int64_t asked_before = session.questions_asked();
  const Query& fixed = session.CorrectAndRelearn(wrong_at);
  const int64_t replayed = session.user_questions_replayed();
  std::printf("learned after correction:       %s   (equivalent: %s)\n",
              fixed.ToString().c_str(),
              Equivalent(fixed, intended) ? "yes" : "no");
  std::printf("replayed %lld recorded answers; asked the user only %lld "
              "fresh questions (%lld before the correction)\n",
              static_cast<long long>(replayed),
              static_cast<long long>(session.questions_asked() - replayed),
              static_cast<long long>(asked_before));
  return Equivalent(fixed, intended) ? 0 : 1;
}
