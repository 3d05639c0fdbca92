// The session's question store, response history and correction replay
// (§5, "Noisy Users").
//
// The paper suggests that a good interface keeps a history of the user's
// responses so an incorrect response can be fixed, "triggering the query
// learning algorithm to restart query learning from the point of error".
// It also charges each question once. QuestionStore does both in one
// stage: it records every (question, response) in order, and it answers a
// question it has seen before from its record, so the user is never asked
// the same object twice. A correction is a replay at the user boundary:
// CorrectedUserPrefix() lists the questions that reached the user up to the
// wrong one, with that response flipped, and a ReplayOracle directly above
// the user serves them verbatim to a fresh store, falling through to the
// user once the learner's questions diverge from the recording.
//
// Both stages are batch-aware: a batched round records (or replays) its
// questions in order, and each history entry remembers which round it
// arrived in, so a UI can render "round 7 asked these 12 questions
// together" while correction indices keep addressing single questions.

#ifndef QHORN_ORACLE_TRANSCRIPT_H_
#define QHORN_ORACLE_TRANSCRIPT_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/oracle/oracle.h"

namespace qhorn {

/// One question/answer exchange.
struct TranscriptEntry {
  TupleSet question;
  bool response = false;
  /// Oracle round the exchange belonged to (a batch is one round; the
  /// questions of a batch share a round id).
  int64_t round = 0;
};

/// Records every question asked through it, in order, and forwards each
/// distinct question once: a repeat, within a round or across rounds, is
/// answered from the store and counted as a hit.
///
/// Each forwarded question is stored once, in one flat log: its tuples
/// back to back in `tuples_`, located by a 16-byte history record (offset,
/// size, response, round) per asked question; a repeat's record points at
/// the tuples of the question's first asking. The lookup is one flat
/// open-addressed table over that log: a power-of-two slot array with
/// linear probing at most half full. A slot is 16 bytes — the question's
/// full TupleSet::Hash(), its offset and size in the log, and its state —
/// so a probe compares hashes first and touches the log only on a
/// hash-and-size match, and growth re-places slots from their stored
/// hashes without reading the log. A question costs one probe, one record
/// and, when it is forwarded, one append and one slot; nothing is allocated
/// per question. The first table has kInitialSlots slots and is allocated
/// by the first insert, so a short session pays for a few hundred bytes,
/// not for the ~2000 questions of a wide one.
///
/// It also counts what it forwards, as a CountingOracle directly below it
/// would: forwarded() is the number of questions that reached the wrapped
/// oracle (the user, in a session), their sizes, answers and rounds.
///
/// A batch forwards only its unique misses to the wrapped oracle. When the
/// misses form one contiguous run (the common shapes: an all-fresh round,
/// or hits only at the edges), the forward is a subspan of the caller's
/// own span — an index-based view, no TupleSet is copied however wide the
/// round; only rounds with hits *interleaved between* misses fall back to
/// gathering the misses into a scratch vector. A round the wrapped oracle
/// cancels by throwing (a pending backend's cancelled round) leaves the
/// log, the table, the round counter and every count as they were before
/// it.
class QuestionStore : public MembershipOracle {
 public:
  /// Slots in the first table, allocated by the first insert (so opening
  /// a session allocates nothing here). The table doubles before an insert
  /// would fill more than half of it, so the first table holds
  /// kInitialSlots / 2 questions.
  static constexpr size_t kInitialSlots = 16;

  explicit QuestionStore(MembershipOracle* inner) : inner_(inner) {}

  bool IsAnswer(const TupleSet& question) override;
  void IsAnswerBatch(std::span<const TupleSet> questions,
                     BitSpan answers) override;

  /// The recorded exchanges, in the order they were asked, repeats served
  /// from the store included: O(total tuples) per call.
  std::vector<TranscriptEntry> entries() const;

  /// The user answer that first asked entry `index`'s question (a repeat
  /// served from the store repeats it): the questions forwarded before.
  size_t AnswerIndex(size_t index) const;
  /// What a correction of user answer `answer` replays at the user
  /// boundary: forwarded questions 0..answer, the last one flipped. Those
  /// below head.size() come from `head`, a replay stage's transcript,
  /// which runs ahead of the log while a round it began serving is out.
  std::vector<TranscriptEntry> CorrectedUserPrefix(
      size_t answer, std::span<const TranscriptEntry> head = {}) const;

  /// Oracle rounds recorded so far (single questions and batches alike).
  int64_t rounds() const { return rounds_; }
  /// Questions answered from the store, and questions forwarded.
  int64_t hits() const { return hits_; }
  int64_t misses() const { return forwarded_.questions; }
  /// What the store forwarded, counted as a CountingOracle directly below
  /// it would count: rounds are the forwarded rounds, and a round of only
  /// hits is none.
  const OracleStats& forwarded() const { return forwarded_; }
  /// Distinct questions stored; the table's current slot count (0 before
  /// the first insert); the tuples the log holds.
  size_t size() const { return count_; }
  size_t slot_count() const { return slots_.size(); }
  size_t stored_tuples() const { return tuples_.size(); }

  /// Renders the history, e.g. for the examples' console output.
  std::string ToString(int n) const;

 private:
  struct Record {
    uint32_t offset = 0;        // first tuple in `tuples_`
    uint32_t size : 30 = 0;     // tuple count
    uint32_t response : 1 = 0;
    uint32_t forwarded : 1 = 0;  // the question's first asking
    int64_t round = 0;           // oracle round it was answered in
  };
  static_assert(sizeof(Record) == 16);

  // kPending marks a batch's placeholder between its insert and the
  // wrapped oracle's answer; it never outlives an IsAnswerBatch call.
  enum State : uint32_t { kEmpty = 0, kNo = 1, kYes = 2, kPending = 3 };

  struct Slot {
    uint64_t hash = 0;        // the question's TupleSet::Hash()
    uint32_t offset = 0;      // first tuple in `tuples_`
    uint32_t size_state = 0;  // tuple count << 2 | State

    State state() const { return static_cast<State>(size_state & 3); }
    size_t size() const { return size_state >> 2; }
  };
  static_assert(sizeof(Slot) == 16);

  // The slot holding `question` and its state, or the empty slot that
  // ends its probe and kEmpty (slot 0 while no table is allocated).
  struct Probed {
    size_t slot;
    State state;
  };
  Probed Probe(const TupleSet& question, uint64_t hash) const;
  // Appends `question` to the log and fills the empty slot `slot` (found
  // by Probe for it) in `state`, doubling the table first if it would pass
  // half full; returns the slot the question landed in.
  size_t Insert(const TupleSet& question, uint64_t hash, size_t slot,
                State state);
  void Grow();
  // Backward-shift deletion: empties `slot` and moves later members of
  // its cluster back so every remaining question stays reachable.
  void Erase(size_t slot);
  TranscriptEntry Entry(const Record& r) const;

  MembershipOracle* inner_;
  std::vector<Tuple> tuples_;    // every forwarded question, back to back
  std::vector<Record> records_;  // every answered question, in order
  std::vector<Slot> slots_;  // empty, or power-of-two size at most half full
  size_t count_ = 0;
  int64_t rounds_ = 0;
  int64_t hits_ = 0;
  OracleStats forwarded_;
  // Round-local scratch, members so a steady-state round allocates
  // nothing. Never read across calls; safe because the inner round runs on
  // a *different* oracle object (the stack is a chain, not a cycle).
  std::vector<size_t> miss_indices_;
  std::vector<TupleSet> miss_questions_;  // gather fallback only
  std::vector<size_t> slot_of_;           // per question of the round
  BitVec miss_answers_;
};

/// Serves recorded responses for questions that match the transcript
/// prefix in order; once the prefix is exhausted (or a question deviates),
/// defers to the fallback oracle. Sits directly above the user to re-run a
/// session after a correction, or after a restart of a pending session,
/// without re-asking the user anything they already answered.
class ReplayOracle : public MembershipOracle {
 public:
  /// The fallback first, as every decorator takes the oracle it wraps.
  ReplayOracle(MembershipOracle* fallback,
               std::vector<TranscriptEntry> transcript)
      : transcript_(std::move(transcript)), fallback_(fallback) {}

  bool IsAnswer(const TupleSet& question) override;
  void IsAnswerBatch(std::span<const TupleSet> questions,
                     BitSpan answers) override;

  const std::vector<TranscriptEntry>& transcript() const {
    return transcript_;
  }
  /// Questions served from the recorded transcript.
  int64_t replayed() const { return replayed_; }
  /// Questions that had to go to the fallback oracle (i.e. to the user).
  int64_t asked() const { return asked_; }

 private:
  /// Serves `question` from the transcript prefix if it still matches.
  /// Returns false when the question must go to the fallback instead.
  bool TryReplay(const TupleSet& question, bool* response);

  std::vector<TranscriptEntry> transcript_;
  MembershipOracle* fallback_;
  size_t next_ = 0;
  bool diverged_ = false;
  int64_t replayed_ = 0;
  int64_t asked_ = 0;
};

}  // namespace qhorn

#endif  // QHORN_ORACLE_TRANSCRIPT_H_
