// A DataPlay-style session (§1, §5): the user's questions are materialized
// from a real chocolate database where possible (synthesized otherwise),
// the full response history is kept, and a deliberately wrong answer is
// corrected mid-session — restarting learning from the point of error.

#include <cstdio>

#include "src/core/normalize.h"
#include "src/learn/rp_learner.h"
#include "src/oracle/transcript.h"
#include "src/relation/chocolate.h"

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

  // Session 1: the user mislabels question #5; learning goes wrong.
  QueryOracle truth(intended);
  DistractedUser distracted(&truth, /*wrong_at=*/5);
  QuestionLog log;
  TranscriptOracle history(&distracted, &log);
  RpLearnerResult wrong = LearnRolePreserving(3, &history);
  std::printf("learned with one wrong answer:  %s   (equivalent: %s)\n",
              wrong.query.ToString().c_str(),
              Equivalent(wrong.query, intended) ? "yes" : "no");

  // The user reviews the history and fixes answer #5.
  std::printf("\nresponse history before correction:\n%s",
              history.ToString(3).c_str());
  history.Correct(4);
  std::printf("...user flips the response to Q5 and learning restarts "
              "from that point.\n\n");

  // Session 2: replay the corrected prefix; only new questions reach the
  // (now attentive) user.
  CountingOracle attentive(&truth);
  ReplayOracle replay(history.entries(), &attentive);
  RpLearnerResult fixed = LearnRolePreserving(3, &replay);
  std::printf("learned after correction:       %s   (equivalent: %s)\n",
              fixed.query.ToString().c_str(),
              Equivalent(fixed.query, intended) ? "yes" : "no");
  std::printf("replayed %lld recorded answers; asked the user only %lld "
              "fresh questions\n",
              static_cast<long long>(replay.replayed()),
              static_cast<long long>(replay.asked()));
  return Equivalent(fixed.query, intended) ? 0 : 1;
}
