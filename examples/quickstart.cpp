// Quickstart: learn the intro chocolate query by example.
//
// The scenario of the paper's introduction: you want "a box with dark
// chocolates — some sugar-free with nuts or filling". Here the intended
// query is equation (1): every chocolate is dark, and some chocolate is
// filled and from Madagascar. The learner plays the pedantic server who is
// finally asking the right questions; the simulated user answers by
// inspecting actual boxes of chocolates.

#include <cstdio>

#include "src/core/normalize.h"
#include "src/learn/rp_learner.h"
#include "src/oracle/transcript.h"
#include "src/relation/chocolate.h"
#include "src/relation/execute.h"
#include "src/verify/verifier.h"

using namespace qhorn;

int main() {
  std::printf("=== qhorn quickstart: query-by-example over chocolates ===\n\n");

  // 1. The user supplies propositions over the embedded relation.
  std::vector<Proposition> props = ChocolatePropositions();
  for (size_t i = 0; i < props.size(); ++i) {
    std::printf("p%zu: %s\n", i + 1, props[i].label().c_str());
  }
  BooleanBinding binding(ChocolateSchema(), props);

  // 2. The user's hidden intention — query (1) of the paper.
  Query intended = IntroChocolateQuery();
  std::printf("\nintended (hidden) query: %s\n", intended.ToString().c_str());

  // 3. The learner asks membership questions; the simulated user answers
  //    by looking at materialized boxes. Every exchange is recorded.
  DataDomainOracle user(intended, &binding);
  QuestionStore history(&user);
  RpLearnerResult result = LearnRolePreserving(binding.n(), &history);

  std::printf("\nquestion/answer transcript (%zu questions):\n",
              history.entries().size());
  std::printf("%s", history.ToString(binding.n()).c_str());

  std::printf("\nfirst box shown to the user:\n%s",
              user.shown_objects().front().tuples.ToString().c_str());

  // 4. The learned query is exactly the intention.
  std::printf("\nlearned query:  %s\n", result.query.ToString().c_str());
  std::printf("normalized:     %s\n",
              Normalize(result.query).ToString().c_str());
  std::printf("equivalent to the intention: %s\n",
              Equivalent(result.query, intended) ? "yes" : "NO");

  // 5. And it passes its own O(k) verification set.
  VerificationReport report = VerifyQuery(result.query, &user);
  std::printf("verification (%lld questions): %s\n",
              static_cast<long long>(report.questions_asked),
              report.accepted ? "accepted" : "rejected");

  // 6. Finally: run the learned query against the store's boxes.
  NestedRelation boxes = Fig1Boxes();
  NestedObject good;
  good.name = "Madagascar Select";
  good.tuples = FlatRelation(ChocolateSchema());
  good.tuples.AddRow(MakeChocolate(true, true, false, false, "Madagascar"));
  good.tuples.AddRow(MakeChocolate(true, false, true, true, "Belgium"));
  boxes.AddObject(std::move(good));

  std::printf("\nboxes matching the learned query:\n");
  for (const NestedObject* box : SelectAnswers(result.query, binding, boxes)) {
    std::printf("  ✓ %s\n", box->name.c_str());
  }
  return report.accepted ? 0 : 1;
}
