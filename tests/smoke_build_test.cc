// Build-coverage smoke test: instantiates one object from every src/
// subsystem library, so a target silently dropped from the CMake build
// fails tier-1 (at link time) instead of going unnoticed.

#include <gtest/gtest.h>

#include "src/bool/tuple_set.h"
#include "src/core/query.h"
#include "src/learn/rp_learner.h"
#include "src/lower_bounds/alias_class.h"
#include "src/oracle/oracle.h"
#include "src/relation/schema.h"
#include "src/session/session.h"
#include "src/util/rng.h"
#include "src/verify/verification_set.h"

namespace qhorn {
namespace {

TEST(SmokeBuildTest, EverySubsystemLinks) {
  // util
  Rng rng(42);
  EXPECT_NE(rng.Next(), rng.Next());

  // bool
  TupleSet object;
  EXPECT_TRUE(object.empty());

  // core
  Query query = Query::Parse("A x1 -> x2 ; E x3");
  EXPECT_EQ(query.n(), 3);

  // oracle
  QueryOracle oracle(query);
  EXPECT_EQ(oracle.compiled().n(), 3);

  // verify
  VerificationSet set = BuildVerificationSet(query);
  (void)set;

  // relation
  Schema schema({{"name", ValueType::kString}});
  EXPECT_EQ(schema.size(), 1u);

  // learn
  RpLearnerResult learned = LearnRolePreserving(2, &oracle, RpLearnerOptions());
  EXPECT_EQ(learned.query.n(), 2);

  // lower_bounds
  EXPECT_FALSE(AliasClass(3).empty());

  // session
  QuerySession session(2, &oracle);
  EXPECT_EQ(session.n(), 2);
}

}  // namespace
}  // namespace qhorn
