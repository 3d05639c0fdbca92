// Membership-question oracles (§2.1.2).
//
// A membership question is an object (a TupleSet); the oracle plays the
// user, classifying it as an answer or a non-answer to the intended query.
// Learners and verifiers depend only on the MembershipOracle interface;
// decorators add counting, caching, noise and history.
//
// Oracles answer one question at a time (IsAnswer) or a whole round at
// once (IsAnswerBatch). The batch entry point is the seam for oracle
// backends that amortize per-question cost — compiled bulk evaluation,
// cache partitioning, version-space pruning, executor-sharded evaluation
// (AsyncOracle in pipeline.h) — while the learners stay backend-agnostic.
//
// Answers travel as bits: the caller supplies a BitSpan over reusable
// storage (BitVec), so a round allocates nothing anywhere in the stack.
// A one-question round still carries single-digit nanoseconds of fixed
// cost over a plain IsAnswer (virtual-boundary argument traffic and
// scratch loads — BM_OracleBatchBatched/1); the learners stopped
// special-casing singleton rounds anyway, because that residue is
// invisible next to real rounds and the uniform batch path is what the
// pipeline and service layers assume.

#ifndef QHORN_ORACLE_ORACLE_H_
#define QHORN_ORACLE_ORACLE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/bool/tuple_set.h"
#include "src/core/compiled_query.h"
#include "src/core/query.h"
#include "src/util/bit_span.h"
#include "src/util/rng.h"

namespace qhorn {

/// The user being questioned: classifies objects as answers/non-answers.
class MembershipOracle {
 public:
  virtual ~MembershipOracle() = default;

  /// True iff `question` is an answer to the intended query.
  virtual bool IsAnswer(const TupleSet& question) = 0;

  /// Answers a whole round of questions at once.
  ///
  /// Contract: observably equivalent to asking IsAnswer(questions[0]),
  /// IsAnswer(questions[1]), … in order — same answers, same state
  /// evolution, same decorator statistics and transcripts. Overrides are
  /// pure optimizations of that sequential semantics (bulk compiled
  /// evaluation, miss-only forwarding, one version-space partition per
  /// round, executor-sharded evaluation); tests/oracle_batch_test.cc pins
  /// every override against the default question-for-question path.
  ///
  /// `answers.size()` must equal `questions.size()`; answer i is written
  /// to bit i. The caller owns the storage (typically a per-loop BitVec).
  virtual void IsAnswerBatch(std::span<const TupleSet> questions,
                             BitSpan answers) {
    for (size_t i = 0; i < questions.size(); ++i) {
      answers.Set(i, IsAnswer(questions[i]));
    }
  }
};

/// Decorator that forwards IsAnswer and *decomposes* every batch into
/// sequential IsAnswer calls (it deliberately inherits the default
/// IsAnswerBatch). Wrapping a stack in it yields the reference sequential
/// path the batched path must agree with question for question — the
/// differential harness of tests/oracle_batch_test.cc and the
/// BM_OracleBatchSequential baseline both use it.
class SequentialOracle : public MembershipOracle {
 public:
  explicit SequentialOracle(MembershipOracle* inner) : inner_(inner) {}

  bool IsAnswer(const TupleSet& question) override {
    return inner_->IsAnswer(question);
  }

 private:
  MembershipOracle* inner_;
};

/// A perfectly reliable simulated user holding a hidden intended query.
/// The intended query is compiled once at construction; every question is
/// answered by the compiled engine (extensionally identical to
/// Query::Evaluate, so learner question counts are unaffected). Batches
/// dispatch to CompiledQuery::EvaluateAll — one virtual call per round.
class QueryOracle : public MembershipOracle {
 public:
  explicit QueryOracle(Query intended, EvalOptions opts = EvalOptions())
      : intended_(std::move(intended)), compiled_(intended_, opts) {}

  bool IsAnswer(const TupleSet& question) override {
    return compiled_.Evaluate(question);
  }

  void IsAnswerBatch(std::span<const TupleSet> questions,
                     BitSpan answers) override {
    compiled_.EvaluateAll(questions, answers);
  }

  const Query& intended() const { return intended_; }
  const CompiledQuery& compiled() const { return compiled_; }

 private:
  Query intended_;
  CompiledQuery compiled_;
};

/// Question-count statistics (the unit all of the paper's bounds are in).
struct OracleStats {
  int64_t questions = 0;        ///< membership questions asked
  int64_t tuples = 0;           ///< total tuples across all questions
  int64_t max_tuples = 0;       ///< largest single question
  int64_t answers = 0;          ///< questions classified as answers
  int64_t rounds = 0;           ///< oracle calls (a batch is one round)
  int64_t batched_questions = 0;  ///< questions that arrived inside batches

  void Reset() { *this = OracleStats(); }
};

/// Decorator that counts questions, question sizes and oracle rounds.
class CountingOracle : public MembershipOracle {
 public:
  explicit CountingOracle(MembershipOracle* inner) : inner_(inner) {}

  bool IsAnswer(const TupleSet& question) override;
  void IsAnswerBatch(std::span<const TupleSet> questions,
                     BitSpan answers) override;

  const OracleStats& stats() const { return stats_; }
  void ResetStats() { stats_.Reset(); }

 private:
  void Record(const TupleSet& question);

  MembershipOracle* inner_;
  OracleStats stats_;
};

/// Every question a session asked, each stored once: the tuples of all
/// asked questions back to back, in the order they were asked, plus one
/// 16-byte record per answered question. TranscriptOracle writes it (see
/// transcript.h): it appends a round's questions to `tuples` before it
/// forwards the round, adds their records once the round is answered, and
/// truncates `tuples` again if a throw cancels the round. A CachingOracle
/// below that transcript reads it and keeps no tuples of its own.
struct QuestionLog {
  struct Entry {
    uint32_t offset = 0;    // first tuple in `tuples`
    uint32_t size : 31 = 0;  // tuple count
    uint32_t response : 1 = 0;
    int64_t round = 0;  // oracle round the question was answered in
  };
  static_assert(sizeof(Entry) == 16);

  std::vector<Tuple> tuples;   // every asked question, the current round's too
  std::vector<Entry> entries;  // answered questions only, in order
};

/// Decorator that memoizes responses, so repeated identical questions cost
/// nothing. The role-preserving universal-body search re-examines lattice
/// roots as new bodies are found; the paper's counting convention charges a
/// question once, which this decorator implements.
///
/// The cache sits below a TranscriptOracle and shares its QuestionLog: it
/// stores no question itself. Every stage between the two forwards a
/// contiguous tail of the transcript's round (ReplayOracle forwards what
/// it cannot serve, the others forward everything; a SequentialOracle,
/// which splits a round, belongs above the transcript), so the cache's
/// questions are always the last ones appended to the log's tuples, and a
/// miss is remembered by its offset there. The store is one flat
/// open-addressed table: a power-of-two slot array with linear probing at
/// most half full. A slot is 16 bytes — the question's full
/// TupleSet::Hash(), its offset and size in the log, and its state — so a
/// probe compares hashes first and touches the log only on a hash-and-size
/// match, and growth re-places slots from their stored hashes without
/// reading the log. A miss costs one probe and one slot; nothing is copied
/// or allocated per question. The first table has kInitialSlots slots, so a
/// short session pays for a few hundred bytes, not for the ~2000 questions
/// of a wide one. A correction that truncates the log (TranscriptOracle::
/// Correct) discards questions the table may index, so the cache must be
/// discarded with them; QuerySession rebuilds both.
///
/// A batch forwards only its unique misses to the wrapped oracle —
/// duplicates within a round and questions answered in earlier rounds are
/// served from the cache, exactly as the sequential path would. When the
/// misses form one contiguous run (the common shapes: an all-fresh round,
/// or hits only at the edges), the forward is a subspan of the caller's
/// own span — an index-based view, no TupleSet is copied however wide the
/// round; only rounds with hits *interleaved between* misses fall back to
/// gathering the misses into a scratch vector. A round the wrapped oracle
/// cancels by throwing leaves the table and the counters as they were
/// before it.
class CachingOracle : public MembershipOracle {
 public:
  /// Slots in the first table, allocated by the first insert (so opening
  /// a session allocates nothing here). The table doubles before an insert
  /// would fill more than half of it, so the first table holds
  /// kInitialSlots / 2 questions.
  static constexpr size_t kInitialSlots = 16;

  /// `log` is the QuestionLog of the TranscriptOracle above this cache; it
  /// must outlive the cache.
  CachingOracle(MembershipOracle* inner, const QuestionLog* log)
      : inner_(inner), log_(log) {}

  bool IsAnswer(const TupleSet& question) override;
  void IsAnswerBatch(std::span<const TupleSet> questions,
                     BitSpan answers) override;

  int64_t hits() const { return hits_; }
  int64_t misses() const { return misses_; }
  /// Cached questions, and the table's current slot count (0 before the
  /// first insert).
  size_t size() const { return count_; }
  size_t slot_count() const { return slots_.size(); }

 private:
  // kPending marks a batch's placeholder between its insert and the
  // wrapped oracle's answer; it never outlives an IsAnswerBatch call.
  enum State : uint32_t { kEmpty = 0, kNo = 1, kYes = 2, kPending = 3 };

  struct Slot {
    uint64_t hash = 0;        // the question's TupleSet::Hash()
    uint32_t offset = 0;      // first tuple in log_->tuples
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
  // Fills the empty slot `slot` (found by Probe for this question) with
  // `question`, whose copy in the log starts at `offset`, in `state`,
  // doubling the table first if it would pass half full; returns the slot
  // the question landed in.
  size_t Insert(const TupleSet& question, uint64_t hash, size_t offset,
                size_t slot, State state);
  void Grow();
  // Backward-shift deletion: empties `slot` and moves later members of
  // its cluster back so every remaining question stays reachable.
  void Erase(size_t slot);

  MembershipOracle* inner_;
  const QuestionLog* log_;
  std::vector<Slot> slots_;  // empty, or power-of-two size at most half full
  size_t count_ = 0;
  int64_t hits_ = 0;
  int64_t misses_ = 0;
  // Round-local scratch, members so a steady-state round allocates
  // nothing. Never read across calls; safe because the inner round runs on
  // a *different* oracle object (the stack is a chain, not a cycle).
  std::vector<size_t> miss_indices_;
  std::vector<TupleSet> miss_questions_;  // gather fallback only
  std::vector<size_t> slot_of_;           // per question of the round
  BitVec miss_answers_;
};

/// Decorator modelling an unreliable user (§5 "Noisy Users"): each response
/// is flipped independently with probability `flip_prob`. The flip draws
/// happen in question order whether the round arrives batched or not — and
/// regardless of how the backend below scheduled its evaluation — so a
/// fixed seed yields the identical noise sequence on either path.
class NoisyOracle : public MembershipOracle {
 public:
  NoisyOracle(MembershipOracle* inner, double flip_prob, uint64_t seed)
      : inner_(inner), flip_prob_(flip_prob), rng_(seed) {}

  bool IsAnswer(const TupleSet& question) override;
  void IsAnswerBatch(std::span<const TupleSet> questions,
                     BitSpan answers) override;

  int64_t flips() const { return flips_; }
  double flip_prob() const { return flip_prob_; }

 private:
  bool MaybeFlip(bool answer);

  MembershipOracle* inner_;
  double flip_prob_;
  Rng rng_;
  int64_t flips_ = 0;
};

}  // namespace qhorn

#endif  // QHORN_ORACLE_ORACLE_H_
