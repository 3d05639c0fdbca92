#include "src/bool/tuple_set.h"

#include <algorithm>
#include <bit>

#include "src/util/check.h"

namespace qhorn {

TupleSet::TupleSet(std::vector<Tuple> tuples) : tuples_(std::move(tuples)) {
  Canonicalize();
}

TupleSet::TupleSet(std::initializer_list<Tuple> tuples) : tuples_(tuples) {
  Canonicalize();
}

TupleSet TupleSet::Parse(const std::vector<std::string>& literals) {
  std::vector<Tuple> tuples;
  tuples.reserve(literals.size());
  for (const std::string& lit : literals) tuples.push_back(ParseTuple(lit));
  return TupleSet(std::move(tuples));
}

void TupleSet::Canonicalize() {
  if (!std::is_sorted(tuples_.begin(), tuples_.end())) {
    std::sort(tuples_.begin(), tuples_.end());
  }
  tuples_.erase(std::unique(tuples_.begin(), tuples_.end()), tuples_.end());
  hash_valid_ = false;
}

void TupleSet::Rehash() const {
  WordHasher h;
  for (Tuple t : tuples_) h.Mix(t);
  hash_ = static_cast<size_t>(h.Finish());
  hash_valid_ = true;
}

void TupleSet::AssignPair(Tuple a, Tuple b) {
  tuples_.clear();
  if (a == b) {
    tuples_.push_back(a);
  } else {
    tuples_.push_back(std::min(a, b));
    tuples_.push_back(std::max(a, b));
  }
  hash_valid_ = false;
}

void TupleSet::Add(Tuple t) {
  auto it = std::lower_bound(tuples_.begin(), tuples_.end(), t);
  if (it == tuples_.end() || *it != t) {
    tuples_.insert(it, t);
    hash_valid_ = false;
  }
}

void TupleSet::Remove(Tuple t) {
  auto it = std::lower_bound(tuples_.begin(), tuples_.end(), t);
  if (it != tuples_.end() && *it == t) {
    tuples_.erase(it);
    hash_valid_ = false;
  }
}

bool TupleSet::Contains(Tuple t) const {
  return std::binary_search(tuples_.begin(), tuples_.end(), t);
}

TupleSet TupleSet::Union(const TupleSet& other) const {
  std::vector<Tuple> merged;
  merged.reserve(tuples_.size() + other.tuples_.size());
  std::merge(tuples_.begin(), tuples_.end(), other.tuples_.begin(),
             other.tuples_.end(), std::back_inserter(merged));
  merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
  TupleSet result;
  result.tuples_ = std::move(merged);
  result.hash_valid_ = false;
  return result;
}

bool TupleSet::SatisfiesConjunction(VarSet vars) const {
  for (Tuple t : tuples_) {
    if (IsSubset(vars, t)) return true;
  }
  return false;
}

bool TupleSet::SatisfiesConjunctionAll(
    std::span<const VarSet> conjunctions) const {
  size_t count = conjunctions.size();
  if (count == 0) return true;
  // Still-unsatisfied bitset, one word per 64 masks; the scan stops as soon
  // as every mask has found a witness tuple.
  size_t words = (count + 63) / 64;
  constexpr size_t kStackWords = 8;  // 512 conjunctions
  uint64_t stack[kStackWords];
  std::vector<uint64_t> heap;
  uint64_t* unsat = stack;
  if (words > kStackWords) {
    heap.assign(words, ~uint64_t{0});
    unsat = heap.data();
  } else {
    std::fill(stack, stack + words, ~uint64_t{0});
  }
  if (count % 64 != 0) unsat[words - 1] = (uint64_t{1} << (count % 64)) - 1;
  size_t remaining = count;
  for (Tuple t : tuples_) {
    for (size_t w = 0; w < words; ++w) {
      uint64_t bits = unsat[w];
      while (bits != 0) {
        uint64_t low = bits & (~bits + 1);
        size_t idx = w * 64 + static_cast<size_t>(std::countr_zero(bits));
        if (IsSubset(conjunctions[idx], t)) {
          unsat[w] &= ~low;
          --remaining;
        }
        bits &= bits - 1;
      }
    }
    if (remaining == 0) return true;
  }
  return remaining == 0;
}

std::string TupleSet::ToString(int n) const {
  std::string out = "{";
  for (size_t i = 0; i < tuples_.size(); ++i) {
    if (i > 0) out += ", ";
    out += FormatTuple(tuples_[i], n);
  }
  out += "}";
  return out;
}

}  // namespace qhorn
