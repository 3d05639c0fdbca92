// The word-at-a-time hash behind the library's cached structural hashes
// (TupleSet::Hash, CanonicalForm::Hash).
//
// Both hash a canonical list of 64-bit words. Each word costs one
// multiply and one xorshift on the dependency chain; the byte-wise FNV-1a
// this replaces paid eight dependent multiplies per word, which made the
// caching oracle's per-question probe the learners' hottest function on
// wide schemas. Every Mix step is a bijection of the state for a fixed
// word (odd multiplier, xorshift) and of the word for a fixed state, so
// two equal-length lists that differ only in their last word never
// collide. The multiply carries low bits upward and the xorshift folds the
// high half back down, so a difference anywhere in a word reaches every
// later step. Finish applies a full avalanche (MurmurHash3's fmix64) so
// the low bits a hash table picks its slot from depend on every bit of
// the state.
//
// Not a keyed or adversarially robust hash: the keys are the library's own
// questions and query forms, not attacker-chosen input.

#ifndef QHORN_UTIL_WORD_HASH_H_
#define QHORN_UTIL_WORD_HASH_H_

#include <cstdint>

namespace qhorn {

class WordHasher {
 public:
  constexpr void Mix(uint64_t word) {
    state_ = (state_ ^ word) * 0x9e3779b97f4a7c15ULL;
    state_ ^= state_ >> 32;
  }

  constexpr uint64_t Finish() const {
    uint64_t h = state_;
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ULL;
    h ^= h >> 33;
    return h;
  }

 private:
  uint64_t state_ = 0x243f6a8885a308d3ULL;  // π's fraction bits, arbitrary
};

}  // namespace qhorn

#endif  // QHORN_UTIL_WORD_HASH_H_
