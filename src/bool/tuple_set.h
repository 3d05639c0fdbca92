// Objects of the nested data model, in the Boolean domain.
//
// A membership question (§2.1.2) is an object: a *set* of Boolean tuples.
// TupleSet keeps its tuples sorted and deduplicated so that equal objects
// compare equal and hash equally — the question store and the adversarial
// oracles rely on this canonical form. Building from an already sorted
// list skips the sort (one ordered pass plus the dedup), which is how the
// learners' merge-built questions arrive. The hash of the canonical tuple
// list is computed lazily on first use and cached, so Hash() is amortized
// O(1) where it matters — the question store probes its table once per
// question and must not pay a full rehash each time — while the learners'
// probe loops, which build thousands of questions that are never hashed,
// pay nothing. A rehash costs one multiply–xorshift step per tuple
// (src/util/word_hash.h).

#ifndef QHORN_BOOL_TUPLE_SET_H_
#define QHORN_BOOL_TUPLE_SET_H_

#include <cstddef>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "src/bool/tuple.h"
#include "src/util/word_hash.h"

namespace qhorn {

/// A set of Boolean tuples (an object of the nested relation).
class TupleSet {
 public:
  /// The hash of the empty tuple list. A default-constructed set carries
  /// it without ever rehashing, so Rehash must produce exactly this value
  /// for an empty list too.
  static constexpr size_t kEmptyHash =
      static_cast<size_t>(WordHasher().Finish());

  TupleSet() = default;

  /// From raw masks in any order; duplicates are removed. An ascending
  /// list is not re-sorted.
  explicit TupleSet(std::vector<Tuple> tuples);
  TupleSet(std::initializer_list<Tuple> tuples);

  /// From paper-style strings: TupleSet::Parse({"111", "011"}).
  static TupleSet Parse(const std::vector<std::string>& literals);

  /// Inserts a tuple (no-op if already present).
  void Add(Tuple t);

  /// Replaces the contents with the two-tuple object {a, b} in place,
  /// reusing the existing allocation. The learners' probe questions are
  /// almost all two-tuple objects built in tight loops; this keeps their
  /// construction allocation-free after warm-up.
  void AssignPair(Tuple a, Tuple b);

  /// Removes a tuple if present.
  void Remove(Tuple t);

  bool Contains(Tuple t) const;

  bool empty() const { return tuples_.empty(); }
  size_t size() const { return tuples_.size(); }

  const std::vector<Tuple>& tuples() const { return tuples_; }
  std::vector<Tuple>::const_iterator begin() const { return tuples_.begin(); }
  std::vector<Tuple>::const_iterator end() const { return tuples_.end(); }

  /// Set union.
  TupleSet Union(const TupleSet& other) const;

  /// True iff some tuple makes every variable of `vars` true — i.e. the
  /// object satisfies the existential conjunction ∃(vars).
  bool SatisfiesConjunction(VarSet vars) const;

  /// True iff *every* mask of `conjunctions` is satisfied by some tuple.
  /// Single pass over the tuples with a still-unsatisfied bitset, instead
  /// of one full scan per mask.
  bool SatisfiesConjunctionAll(std::span<const VarSet> conjunctions) const;

  friend bool operator==(const TupleSet& a, const TupleSet& b) {
    return a.tuples_ == b.tuples_;
  }

  /// Stable hash of the canonical tuple list: the WordHasher over the
  /// tuples in ascending order (computed lazily, then cached until the
  /// next mutation). Equal sets hash equal; only hash tables see the
  /// value, so it may change between releases. NOTE: the lazy fill
  /// mutates shared state from a const method; concurrent first-Hash()
  /// calls on one object are a data race. A parallel oracle backend must
  /// pre-hash its questions (call Hash() once before sharing) or
  /// synchronize.
  size_t Hash() const {
    if (!hash_valid_) Rehash();
    return hash_;
  }

  /// "{111, 011}" with n-variable-wide tuples.
  std::string ToString(int n) const;

 private:
  void Canonicalize();
  void Rehash() const;

  std::vector<Tuple> tuples_;  // sorted ascending, unique
  mutable size_t hash_ = kEmptyHash;
  mutable bool hash_valid_ = true;  // empty list hashes to kEmptyHash
};

}  // namespace qhorn

#endif  // QHORN_BOOL_TUPLE_SET_H_
