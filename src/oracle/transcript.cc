#include "src/oracle/transcript.h"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "src/util/check.h"

namespace qhorn {

QuestionStore::Probed QuestionStore::Probe(const TupleSet& question,
                                           uint64_t hash) const {
  if (slots_.empty()) return {0, kEmpty};
  const size_t mask = slots_.size() - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (slot.state() == kEmpty ||
        (slot.hash == hash && slot.size() == question.size() &&
         std::equal(question.begin(), question.end(),
                    tuples_.begin() + slot.offset))) {
      return {i, slot.state()};
    }
  }
}

size_t QuestionStore::Insert(const TupleSet& question, uint64_t hash,
                             size_t slot, State state) {
  const size_t offset = tuples_.size();
  QHORN_CHECK(question.size() <= (UINT32_MAX >> 2) &&
              offset + question.size() <= UINT32_MAX);
  tuples_.insert(tuples_.end(), question.begin(), question.end());
  if (2 * (count_ + 1) > slots_.size()) {
    Grow();
    slot = Probe(question, hash).slot;  // absent: an empty slot
  }
  slots_[slot] = Slot{hash, static_cast<uint32_t>(offset),
                      static_cast<uint32_t>(question.size() << 2) | state};
  ++count_;
  return slot;
}

void QuestionStore::Grow() {
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

void QuestionStore::Erase(size_t slot) {
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

bool QuestionStore::IsAnswer(const TupleSet& question) {
  const uint64_t hash = question.Hash();
  Probed probed = Probe(question, hash);
  Record record{0, static_cast<uint32_t>(question.size()), 0, 0, rounds_};
  if (probed.state != kEmpty) {
    ++hits_;
    record.offset = slots_[probed.slot].offset;
    record.response = probed.state == kYes;
  } else {
    // A cancelled parked round (pending backend) unwinds by throwing here;
    // nothing has been stored or counted yet, so the unanswered question
    // leaves no trace.
    const bool answer = inner_->IsAnswer(question);
    ++forwarded_.rounds;
    forwarded_.Count(question, answer);
    record.offset = static_cast<uint32_t>(tuples_.size());
    Insert(question, hash, probed.slot, answer ? kYes : kNo);
    record.response = answer;
    record.forwarded = 1;
  }
  records_.push_back(record);
  ++rounds_;
  return record.response != 0;
}

void QuestionStore::IsAnswerBatch(std::span<const TupleSet> questions,
                                  BitSpan answers) {
  // Partition in question order. A duplicate of an earlier miss in the same
  // round counts as a hit (the sequential path would have stored the first
  // occurrence before seeing the second), so the forwarded batch holds each
  // unseen question exactly once, in first-occurrence order. One probe per
  // question: each miss is stored with a kPending placeholder, which is
  // what a later duplicate in the round finds, and every question's slot
  // is remembered and patched or read after the inner round answers the
  // misses. An insert that doubles the table moves the slots, so such a
  // round re-probes them once. An empty round is zero sequential
  // questions: no probe, no forward, no round id.
  if (questions.empty()) return;
  const size_t tuples_before = tuples_.size();
  const size_t round_slots = slots_.size();
  miss_indices_.clear();
  slot_of_.clear();
  bool contiguous = true;
  for (size_t i = 0; i < questions.size(); ++i) {
    uint64_t hash = questions[i].Hash();
    auto [slot, state] = Probe(questions[i], hash);
    if (state == kEmpty) {
      if (!miss_indices_.empty() && miss_indices_.back() + 1 != i) {
        contiguous = false;
      }
      miss_indices_.push_back(i);
      slot = Insert(questions[i], hash, slot, kPending);
    }
    slot_of_.push_back(slot);
  }
  if (!miss_indices_.empty()) {
    BitSpan miss_bits = miss_answers_.Prepare(miss_indices_.size());
    try {
      if (contiguous) {
        // The misses are one run [front, back] of the caller's span:
        // forward that subspan directly — an index-based view, no TupleSet
        // copies no matter how wide the round. This is the hot shape: an
        // all-fresh round is contiguous, and so is any round whose hits sit
        // only at the edges.
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
      // placeholders newest first, then drop their tuples, so the store
      // holds exactly the pre-round questions. Each placeholder is found by
      // content: an earlier erase or a doubling may have moved it.
      for (size_t k = miss_indices_.size(); k-- > 0;) {
        const TupleSet& q = questions[miss_indices_[k]];
        Erase(Probe(q, q.Hash()).slot);
      }
      tuples_.resize(tuples_before);
      throw;
    }
    if (slots_.size() != round_slots) {
      for (size_t i = 0; i < questions.size(); ++i) {
        slot_of_[i] = Probe(questions[i], questions[i].Hash()).slot;
      }
    }
    ++forwarded_.rounds;
    forwarded_.batched_questions += static_cast<int64_t>(miss_indices_.size());
    for (size_t k = 0; k < miss_indices_.size(); ++k) {
      Slot& slot = slots_[slot_of_[miss_indices_[k]]];
      slot.size_state = (slot.size_state & ~3u) |
                        (miss_bits.Get(k) ? kYes : kNo);
      forwarded_.Count(questions[miss_indices_[k]], miss_bits.Get(k));
    }
  }
  hits_ += static_cast<int64_t>(questions.size() - miss_indices_.size());
  size_t next_miss = 0;
  for (size_t i = 0; i < questions.size(); ++i) {
    const Slot& slot = slots_[slot_of_[i]];
    const bool forwarded = next_miss < miss_indices_.size() &&
                           miss_indices_[next_miss] == i;
    next_miss += forwarded;
    records_.push_back({slot.offset, static_cast<uint32_t>(slot.size()),
                        slot.state() == kYes, forwarded, rounds_});
    answers.Set(i, slot.state() == kYes);
  }
  ++rounds_;
}

TranscriptEntry QuestionStore::Entry(const Record& r) const {
  auto first = tuples_.begin() + r.offset;
  return {TupleSet(std::vector<Tuple>(first, first + r.size)),
          r.response != 0, r.round};
}

std::vector<TranscriptEntry> QuestionStore::entries() const {
  std::vector<TranscriptEntry> out;
  out.reserve(records_.size());
  for (const Record& r : records_) out.push_back(Entry(r));
  return out;
}

size_t QuestionStore::AnswerIndex(size_t index) const {
  QHORN_CHECK_MSG(index < records_.size(), "no history entry " << index);
  // A question's tuples are stored once, by its first asking, and every
  // record of it points there; a forwarded record's offset and size name
  // its question uniquely (only an empty question has size 0).
  const Record& asked = records_[index];
  size_t answer = 0;
  for (const Record& r : records_) {
    if (!r.forwarded) continue;
    if (r.offset == asked.offset && r.size == asked.size) break;
    ++answer;
  }
  return answer;
}

std::vector<TranscriptEntry> QuestionStore::CorrectedUserPrefix(
    size_t answer, std::span<const TranscriptEntry> head) const {
  QHORN_CHECK_MSG(answer < std::max(static_cast<size_t>(misses()), head.size()),
                  "no user answer " << answer);
  std::vector<TranscriptEntry> prefix(
      head.begin(), head.begin() + std::min(head.size(), answer + 1));
  size_t forwarded = 0;
  for (const Record& r : records_) {
    if (prefix.size() > answer) break;
    if (r.forwarded && forwarded++ == prefix.size()) {
      prefix.push_back(Entry(r));
    }
  }
  prefix.back().response = !prefix.back().response;
  return prefix;
}

std::string QuestionStore::ToString(int n) const {
  std::string out;
  std::vector<TranscriptEntry> history = entries();
  for (size_t i = 0; i < history.size(); ++i) {
    out += "Q" + std::to_string(i + 1) + ": " + history[i].question.ToString(n);
    out += history[i].response ? "  → answer\n" : "  → non-answer\n";
  }
  return out;
}

bool ReplayOracle::TryReplay(const TupleSet& question, bool* response) {
  if (diverged_ || next_ >= transcript_.size()) return false;
  const TranscriptEntry& entry = transcript_[next_];
  if (entry.question != question) {
    // The learner's question sequence changed (it depends on earlier
    // responses); everything from here on must be asked fresh.
    diverged_ = true;
    return false;
  }
  ++next_;
  ++replayed_;
  *response = entry.response;
  return true;
}

bool ReplayOracle::IsAnswer(const TupleSet& question) {
  bool response = false;
  const bool diverged = diverged_;
  if (TryReplay(question, &response)) return response;
  // Counted after the fallback answers, so a cancelled question (pending
  // backend throwing JobSuspended) is not recorded as asked, and the
  // divergence it found is forgotten with it.
  bool answer = false;
  try {
    answer = fallback_->IsAnswer(question);
  } catch (...) {
    diverged_ = diverged;
    throw;
  }
  ++asked_;
  return answer;
}

void ReplayOracle::IsAnswerBatch(std::span<const TupleSet> questions,
                                 BitSpan answers) {
  // Serve the still-matching transcript prefix, then send the remainder to
  // the fallback in one round. Once any question needs the fallback, every
  // later one does too (a mismatch diverges the replay; an exhausted
  // transcript stays exhausted), so the remainder is a contiguous tail. A
  // round the fallback cancels by throwing rewinds the replay to where the
  // round found it, so the round asked again is served the same way.
  const size_t next = next_;
  const bool diverged = diverged_;
  const int64_t replayed = replayed_;
  size_t served = 0;
  for (; served < questions.size(); ++served) {
    bool response = false;
    if (!TryReplay(questions[served], &response)) break;
    answers.Set(served, response);
  }
  if (served == questions.size()) return;
  std::span<const TupleSet> rest = questions.subspan(served);
  try {
    fallback_->IsAnswerBatch(rest, answers.Subspan(served));
  } catch (...) {
    next_ = next;
    diverged_ = diverged;
    replayed_ = replayed;
    throw;
  }
  asked_ += static_cast<int64_t>(rest.size());
}

}  // namespace qhorn
