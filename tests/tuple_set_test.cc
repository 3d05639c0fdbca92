// Objects (tuple sets): canonical form, set algebra, hashing.

#include "src/bool/tuple_set.h"

#include <gtest/gtest.h>

#include <unordered_map>
#include <vector>

#include "src/util/rng.h"

namespace qhorn {
namespace {

TEST(TupleSetTest, DeduplicatesAndSorts) {
  TupleSet s{0b11, 0b01, 0b11, 0b10};
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(s.tuples(), (std::vector<Tuple>{0b01, 0b10, 0b11}));
}

TEST(TupleSetTest, ParseMatchesManual) {
  // The §3.1.1 question {111, 011}.
  TupleSet parsed = TupleSet::Parse({"111", "011"});
  TupleSet manual{ParseTuple("111"), ParseTuple("011")};
  EXPECT_EQ(parsed, manual);
}

TEST(TupleSetTest, AddRemoveContains) {
  TupleSet s;
  EXPECT_TRUE(s.empty());
  s.Add(5);
  s.Add(3);
  s.Add(5);
  EXPECT_EQ(s.size(), 2u);
  EXPECT_TRUE(s.Contains(5));
  s.Remove(5);
  EXPECT_FALSE(s.Contains(5));
  s.Remove(99);  // no-op
  EXPECT_EQ(s.size(), 1u);
}

TEST(TupleSetTest, UnionKeepsCanonicalForm) {
  TupleSet a{1, 3};
  TupleSet b{2, 3};
  TupleSet u = a.Union(b);
  EXPECT_EQ(u.tuples(), (std::vector<Tuple>{1, 2, 3}));
}

TEST(TupleSetTest, SatisfiesConjunction) {
  TupleSet s = TupleSet::Parse({"101", "011"});
  EXPECT_TRUE(s.SatisfiesConjunction(ParseTuple("100")));   // x1 ⊆ 101
  EXPECT_TRUE(s.SatisfiesConjunction(ParseTuple("011")));   // x2x3 ⊆ 011
  EXPECT_FALSE(s.SatisfiesConjunction(ParseTuple("110")));  // x1x2 nowhere
  EXPECT_TRUE(s.SatisfiesConjunction(0));                   // trivial
  EXPECT_FALSE(TupleSet().SatisfiesConjunction(0));  // empty object has no tuple
}

TEST(TupleSetTest, EqualityIsOrderInsensitive) {
  EXPECT_EQ(TupleSet::Parse({"10", "01"}), TupleSet::Parse({"01", "10"}));
  EXPECT_NE(TupleSet::Parse({"10"}), TupleSet::Parse({"01"}));
}

TEST(TupleSetTest, HashAgreesWithEquality) {
  TupleSet a = TupleSet::Parse({"110", "011"});
  TupleSet b = TupleSet::Parse({"011", "110", "110"});
  EXPECT_EQ(a.Hash(), b.Hash());
  EXPECT_NE(a.Hash(), TupleSet::Parse({"110"}).Hash());
}

TEST(TupleSetTest, ToStringUsesPaperNotation) {
  TupleSet s = TupleSet::Parse({"111", "011"});
  EXPECT_EQ(s.ToString(3), "{011, 111}");
}

TEST(TupleSetTest, CachedHashStaysInSyncThroughMutations) {
  // Hash() is cached and updated on mutation; it must always equal the
  // hash of a freshly constructed set with the same tuples.
  Rng rng(5);
  TupleSet s;
  for (int step = 0; step < 200; ++step) {
    Tuple t = rng.Below(64);
    if (rng.Chance(0.3)) {
      s.Remove(t);
    } else {
      s.Add(t);
    }
    TupleSet fresh(s.tuples());
    ASSERT_EQ(s.Hash(), fresh.Hash());
    ASSERT_EQ(s, fresh);
  }
  TupleSet u = s.Union(TupleSet{1, 2, 3});
  EXPECT_EQ(u.Hash(), TupleSet(u.tuples()).Hash());
}

TEST(TupleSetTest, EveryEmptySetHashesToTheEmptyConstant) {
  // A default-constructed set never rehashes; every other way of reaching
  // the empty list does, and must land on the same value.
  EXPECT_EQ(TupleSet().Hash(), TupleSet::kEmptyHash);
  TupleSet emptied{5};
  ASSERT_NE(emptied.Hash(), TupleSet::kEmptyHash);
  emptied.Remove(5);
  EXPECT_EQ(emptied.Hash(), TupleSet::kEmptyHash);
  EXPECT_EQ(TupleSet(std::vector<Tuple>{}).Hash(), TupleSet::kEmptyHash);
  EXPECT_EQ(TupleSet().Union(TupleSet()).Hash(), TupleSet::kEmptyHash);
}

TEST(TupleSetTest, DistinctObjectsHashApart) {
  // No two distinct objects share a hash: exhaustively over every object
  // of at most two tuples at n = 8 (the learners' probe shape), then over
  // random wide objects at n = 32 (the lattice walk's question shape).
  std::unordered_map<size_t, TupleSet> seen;
  auto record = [&seen](const TupleSet& s) {
    auto [it, inserted] = seen.emplace(s.Hash(), s);
    if (!inserted && it->second != s) {
      ADD_FAILURE() << s.ToString(32) << " and " << it->second.ToString(32)
                    << " share hash " << s.Hash();
    }
  };
  record(TupleSet());
  for (Tuple a = 0; a < 256; ++a) {
    record(TupleSet{a});
    for (Tuple b = a + 1; b < 256; ++b) record(TupleSet{a, b});
  }
  ASSERT_EQ(seen.size(), 1u + 256u + 256u * 255u / 2u);
  Rng rng(23);
  for (int i = 0; i < 10000; ++i) {
    std::vector<Tuple> tuples(static_cast<size_t>(rng.Range(8, 64)));
    for (Tuple& t : tuples) t = rng.Next() & AllTrue(32);
    record(TupleSet(std::move(tuples)));
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(TupleSetTest, SatisfiesConjunctionAllMatchesPerMaskScans) {
  Rng rng(9);
  for (int trial = 0; trial < 100; ++trial) {
    TupleSet s;
    size_t tuples = rng.Below(12);
    for (size_t i = 0; i < tuples; ++i) s.Add(rng.Next() & 0xffff);
    std::vector<VarSet> masks;
    size_t count = rng.Below(20);
    for (size_t i = 0; i < count; ++i) masks.push_back(rng.Next() & 0xffff);
    bool all = true;
    for (VarSet m : masks) all = all && s.SatisfiesConjunction(m);
    ASSERT_EQ(s.SatisfiesConjunctionAll(masks), all)
        << "trial " << trial << " tuples=" << tuples
        << " masks=" << masks.size();
  }
}

TEST(TupleSetTest, SatisfiesConjunctionAllEdgeCases) {
  TupleSet s = TupleSet::Parse({"101", "011"});
  EXPECT_TRUE(s.SatisfiesConjunctionAll({}));        // no masks
  EXPECT_TRUE(TupleSet().SatisfiesConjunctionAll({}));
  std::vector<VarSet> one = {ParseTuple("100")};
  EXPECT_FALSE(TupleSet().SatisfiesConjunctionAll(one));  // empty object
  // More masks than the stack bitset holds (heap path, > 512 masks).
  std::vector<VarSet> many(600, ParseTuple("001"));
  many.push_back(ParseTuple("110"));  // unsatisfied
  EXPECT_FALSE(s.SatisfiesConjunctionAll(many));
  many.pop_back();
  EXPECT_TRUE(s.SatisfiesConjunctionAll(many));
}

}  // namespace
}  // namespace qhorn
