#include "src/oracle/oracle.h"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "src/util/check.h"

namespace qhorn {

void CountingOracle::Record(const TupleSet& question) {
  ++stats_.questions;
  stats_.tuples += static_cast<int64_t>(question.size());
  stats_.max_tuples =
      std::max(stats_.max_tuples, static_cast<int64_t>(question.size()));
}

bool CountingOracle::IsAnswer(const TupleSet& question) {
  // Count only after the inner oracle answers: a cancelled parked round
  // (pending backend) unwinds by throwing, and the unwound question must
  // leave no trace in the statistics. Nothing below can observe stats_,
  // so the reordering is invisible on the non-throwing path.
  bool answer = inner_->IsAnswer(question);
  ++stats_.rounds;
  Record(question);
  if (answer) ++stats_.answers;
  return answer;
}

void CountingOracle::IsAnswerBatch(std::span<const TupleSet> questions,
                                   BitSpan answers) {
  // Count only after the forward returns, so a cancelled parked round
  // (JobSuspended unwinding from a pending backend) contaminates nothing. Sequential
  // equivalence: an empty batch is zero IsAnswer calls, so it counts no
  // round — branchless, this function is on the hottest round path. (The
  // empty forward is harmless: every layer treats an empty round as a
  // no-op.)
  inner_->IsAnswerBatch(questions, answers);
  stats_.rounds += static_cast<int64_t>(!questions.empty());
  stats_.batched_questions += static_cast<int64_t>(questions.size());
  for (const TupleSet& q : questions) Record(q);
  for (size_t i = 0; i < questions.size(); ++i) {
    if (answers.Get(i)) ++stats_.answers;
  }
}

CachingOracle::Probed CachingOracle::Probe(const TupleSet& question,
                                           uint64_t hash) const {
  if (slots_.empty()) return {0, kEmpty};
  const size_t mask = slots_.size() - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (slot.state() == kEmpty ||
        (slot.hash == hash && slot.size() == question.size() &&
         std::equal(question.begin(), question.end(),
                    log_->tuples.begin() + slot.offset))) {
      return {i, slot.state()};
    }
  }
}

size_t CachingOracle::Insert(const TupleSet& question, uint64_t hash,
                             size_t offset, size_t slot, State state) {
  // The transcript above appended the question's tuples to the log before
  // forwarding it, so they are already there.
  QHORN_DCHECK(std::equal(question.begin(), question.end(),
                          log_->tuples.begin() + offset));
  QHORN_CHECK(question.size() <= (UINT32_MAX >> 2) && offset <= UINT32_MAX);
  if (2 * (count_ + 1) > slots_.size()) {
    Grow();
    slot = Probe(question, hash).slot;  // absent: an empty slot
  }
  slots_[slot] = Slot{hash, static_cast<uint32_t>(offset),
                      static_cast<uint32_t>(question.size() << 2) | state};
  ++count_;
  return slot;
}

void CachingOracle::Grow() {
  std::vector<Slot> old = std::exchange(
      slots_, std::vector<Slot>(std::max(kInitialSlots, slots_.size() * 2)));
  const size_t mask = slots_.size() - 1;
  for (const Slot& slot : old) {
    if (slot.state() == kEmpty) continue;
    size_t i = slot.hash & mask;
    while (slots_[i].state() != kEmpty) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

void CachingOracle::Erase(size_t slot) {
  const size_t mask = slots_.size() - 1;
  size_t hole = slot;
  for (size_t j = (hole + 1) & mask; slots_[j].state() != kEmpty;
       j = (j + 1) & mask) {
    // Slot j may move back into the hole unless its home lies in
    // (hole, j], where the hole does not break its probe path.
    size_t home = slots_[j].hash & mask;
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole] = Slot{};
  --count_;
}

bool CachingOracle::IsAnswer(const TupleSet& question) {
  uint64_t hash = question.Hash();
  Probed probed = Probe(question, hash);
  if (probed.state != kEmpty) {
    ++hits_;
    return probed.state == kYes;
  }
  // A cancelled parked round (pending backend) unwinds by throwing here;
  // nothing has been inserted or counted yet, so the unanswered question
  // leaves the cache untouched.
  QHORN_CHECK(question.size() <= log_->tuples.size());
  const size_t offset = log_->tuples.size() - question.size();
  bool answer = inner_->IsAnswer(question);
  ++misses_;
  Insert(question, hash, offset, probed.slot, answer ? kYes : kNo);
  return answer;
}

void CachingOracle::IsAnswerBatch(std::span<const TupleSet> questions,
                                  BitSpan answers) {
  // Partition in question order. A duplicate of an earlier miss in the same
  // round counts as a hit (the sequential path would have cached the first
  // occurrence before seeing the second), so the forwarded batch holds each
  // unseen question exactly once, in first-occurrence order. One probe per
  // question: each miss gets a kPending placeholder, which is what a later
  // duplicate in the round finds, and every question's slot is remembered
  // and patched or read after the inner round answers the misses. An insert
  // that doubles the table moves the slots, so such a round re-probes them
  // once. (An empty round falls through every loop: no probes, no forward.)
  // The round is the log's tail, so question i starts `offset` tuples in.
  size_t round_tuples = 0;
  for (const TupleSet& q : questions) round_tuples += q.size();
  QHORN_CHECK(round_tuples <= log_->tuples.size());
  size_t offset = log_->tuples.size() - round_tuples;
  const size_t round_slots = slots_.size();
  miss_indices_.clear();
  slot_of_.clear();
  bool contiguous = true;
  for (size_t i = 0; i < questions.size(); ++i) {
    uint64_t hash = questions[i].Hash();
    auto [slot, state] = Probe(questions[i], hash);
    if (state == kEmpty) {
      ++misses_;
      if (!miss_indices_.empty() && miss_indices_.back() + 1 != i) {
        contiguous = false;
      }
      miss_indices_.push_back(i);
      slot = Insert(questions[i], hash, offset, slot, kPending);
    } else {
      ++hits_;
    }
    slot_of_.push_back(slot);
    offset += questions[i].size();
  }
  if (!miss_indices_.empty()) {
    BitSpan miss_bits = miss_answers_.Prepare(miss_indices_.size());
    try {
      if (contiguous) {
        // The misses are one run [front, back] of the caller's span:
        // forward that subspan directly — an index-based view, no TupleSet
        // copies no matter how wide the round. This is the hot shape: an
        // all-fresh round is contiguous, and so is any round whose cache
        // hits sit only at the edges.
        inner_->IsAnswerBatch(
            questions.subspan(miss_indices_.front(), miss_indices_.size()),
            miss_bits);
      } else {
        // Hits interleaved between misses: gather the misses. The copies
        // are confined to this cold shape (reused capacity, but each
        // TupleSet still copies its tuple storage).
        miss_questions_.clear();
        for (size_t idx : miss_indices_)
          miss_questions_.push_back(questions[idx]);
        inner_->IsAnswerBatch(miss_questions_, miss_bits);
      }
    } catch (...) {
      // Cancelled parked round (pending backend): erase this round's
      // placeholders newest first and roll the counters back, so the cache
      // holds exactly the pre-round questions. Each placeholder is found by
      // content: an earlier erase or a doubling may have moved it. The log
      // still holds the round (the transcript above truncates it only
      // after this rethrow), so the probes can compare against it.
      for (size_t k = miss_indices_.size(); k-- > 0;) {
        const TupleSet& q = questions[miss_indices_[k]];
        Erase(Probe(q, q.Hash()).slot);
      }
      misses_ -= static_cast<int64_t>(miss_indices_.size());
      hits_ -=
          static_cast<int64_t>(questions.size() - miss_indices_.size());
      throw;
    }
    if (slots_.size() != round_slots) {
      for (size_t i = 0; i < questions.size(); ++i) {
        slot_of_[i] = Probe(questions[i], questions[i].Hash()).slot;
      }
    }
    for (size_t k = 0; k < miss_indices_.size(); ++k) {
      Slot& slot = slots_[slot_of_[miss_indices_[k]]];
      slot.size_state = (slot.size_state & ~3u) |
                        (miss_bits.Get(k) ? kYes : kNo);
    }
  }
  for (size_t i = 0; i < questions.size(); ++i) {
    answers.Set(i, slots_[slot_of_[i]].state() == kYes);
  }
}

bool NoisyOracle::MaybeFlip(bool answer) {
  if (rng_.Chance(flip_prob_)) {
    ++flips_;
    return !answer;
  }
  return answer;
}

bool NoisyOracle::IsAnswer(const TupleSet& question) {
  return MaybeFlip(inner_->IsAnswer(question));
}

void NoisyOracle::IsAnswerBatch(std::span<const TupleSet> questions,
                                BitSpan answers) {
  // An empty round draws no noise (the loop is naturally empty) and the
  // layers below all treat the empty forward as a no-op.
  inner_->IsAnswerBatch(questions, answers);
  for (size_t i = 0; i < questions.size(); ++i) {
    answers.Set(i, MaybeFlip(answers.Get(i)));
  }
}

}  // namespace qhorn
