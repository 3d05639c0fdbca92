// Property tests for verification: every single-edit mutation of a query
// must be caught by its verification set (and vice versa), across random
// bases and seeds — the randomized counterpart of the exhaustive
// Theorem 4.2 check in verifier_test.cc.

#include <gtest/gtest.h>

#include "src/core/classify.h"
#include "src/core/normalize.h"
#include "src/core/random_query.h"
#include "src/util/rng.h"
#include "src/verify/verifier.h"

namespace qhorn {
namespace {

constexpr int kN = 7;
constexpr int kEditKinds = 5;  // the cases of Mutate's switch

Query RandomBase(Rng& rng) {
  RpOptions opts;
  opts.num_heads = static_cast<int>(rng.Range(1, 2));
  opts.theta = 1;
  opts.body_size = 2;
  opts.num_conjunctions = static_cast<int>(rng.Range(1, 3));
  opts.conj_size_max = 4;
  return RandomRolePreserving(kN, rng, opts);
}

// Applies one structural edit; returns false if the edit is impossible on
// this base or leaves the query outside role-preserving qhorn.
bool Mutate(const Query& base, int kind, Rng& rng, Query* out) {
  Query q(base.n());
  VarSet heads = base.UniversalHeadVars();
  switch (kind) {
    case 0: {  // grow a conjunction by one variable
      if (base.existential().empty()) return false;
      size_t i = rng.Below(base.existential().size());
      VarSet vars = base.existential()[i].vars;
      VarSet candidates = AllTrue(base.n()) & ~vars;
      if (candidates == 0) return false;
      for (const UniversalHorn& u : base.universal()) {
        q.AddUniversal(u.body, u.head);
      }
      for (size_t j = 0; j < base.existential().size(); ++j) {
        VarSet v = base.existential()[j].vars;
        if (j == i) v |= candidates & (~candidates + 1);
        q.AddExistential(v);
      }
      break;
    }
    case 1: {  // shrink a conjunction of size ≥ 2
      int found = -1;
      for (size_t j = 0; j < base.existential().size(); ++j) {
        if (Popcount(base.existential()[j].vars) >= 2) {
          found = static_cast<int>(j);
          break;
        }
      }
      if (found < 0) return false;
      for (const UniversalHorn& u : base.universal()) {
        q.AddUniversal(u.body, u.head);
      }
      for (size_t j = 0; j < base.existential().size(); ++j) {
        VarSet v = base.existential()[j].vars;
        if (static_cast<int>(j) == found) v &= v - 1;  // drop lowest var
        q.AddExistential(v);
      }
      break;
    }
    case 2: {  // add a brand-new universal Horn expression
      VarSet non_heads = AllTrue(base.n()) & ~heads;
      std::vector<int> pool = VarsOf(non_heads);
      if (pool.size() < 2) return false;
      int head = pool[0];
      int body = pool[1];
      for (const UniversalHorn& u : base.universal()) {
        if (u.head == head || HasVar(u.body, head)) return false;
        q.AddUniversal(u.body, u.head);
      }
      q.AddUniversal(VarBit(body), head);
      for (const ExistentialConj& e : base.existential()) {
        q.AddExistential(e.vars);
      }
      break;
    }
    case 3: {  // drop a universal Horn expression
      if (base.universal().empty()) return false;
      size_t skip = rng.Below(base.universal().size());
      for (size_t j = 0; j < base.universal().size(); ++j) {
        if (j != skip) q.AddUniversal(base.universal()[j].body,
                                      base.universal()[j].head);
      }
      for (const ExistentialConj& e : base.existential()) {
        q.AddExistential(e.vars);
      }
      if (q.size_k() == 0) return false;
      break;
    }
    case 4: {  // grow a universal body by one variable
      int found = -1;
      VarSet candidates = 0;
      for (size_t j = 0; j < base.universal().size(); ++j) {
        VarSet extra = AllTrue(base.n()) & ~heads &
                       ~base.universal()[j].body;
        if (extra != 0) {
          found = static_cast<int>(j);
          candidates = extra;
          break;
        }
      }
      if (found < 0) return false;
      for (size_t j = 0; j < base.universal().size(); ++j) {
        VarSet body = base.universal()[j].body;
        if (static_cast<int>(j) == found) {
          body |= candidates & (~candidates + 1);
        }
        q.AddUniversal(body, base.universal()[j].head);
      }
      for (const ExistentialConj& e : base.existential()) {
        q.AddExistential(e.vars);
      }
      break;
    }
    default:
      return false;
  }
  if (!IsRolePreserving(q)) return false;
  *out = q;
  return true;
}

class VerificationPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {};

TEST_P(VerificationPropertyTest, SingleEditsBehaveLikeEquivalence) {
  auto [kind, seed] = GetParam();
  Rng rng(seed * 5 + static_cast<uint64_t>(kind));
  Query base = RandomBase(rng);
  // The case's own edit first; if it does not apply to this base, the
  // next kinds in turn, so that every seed checks some edit.
  Query mutated;
  int applied = -1;
  for (int k = 0; k < kEditKinds && applied < 0; ++k) {
    const int candidate = (kind + k) % kEditKinds;
    if (Mutate(base, candidate, rng, &mutated)) applied = candidate;
  }
  ASSERT_GE(applied, 0) << "no edit applies to base " << base.ToString();
  bool equivalent = Equivalent(base, mutated);

  // The mutated query plays the intended one against base's set…
  QueryOracle intends_mutated(mutated);
  EXPECT_EQ(VerifyQuery(base, &intends_mutated).accepted, equivalent)
      << "edit " << applied << "\nbase: " << base.ToString()
      << "\nmutated: " << mutated.ToString();

  // …and the other way around.
  QueryOracle intends_base(base);
  EXPECT_EQ(VerifyQuery(mutated, &intends_base).accepted, equivalent)
      << "edit " << applied << "\nbase: " << base.ToString()
      << "\nmutated: " << mutated.ToString();
}

INSTANTIATE_TEST_SUITE_P(EditsBySeed, VerificationPropertyTest,
                         ::testing::Combine(::testing::Range(0, kEditKinds),
                                            ::testing::Range<uint64_t>(0,
                                                                       15)));

}  // namespace
}  // namespace qhorn
