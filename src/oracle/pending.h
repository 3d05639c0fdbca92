// PendingOracle — the wait-site of a real user's session.
//
// Every other backend answers a round synchronously. A real user does not:
// their answers arrive seconds to minutes later, over whatever transport
// the embedding server uses. Any non-empty round reaching this backend is
// therefore parked: the job runs on a Fiber (src/util/fiber.h), and the
// wait-site records the round's questions as one shared immutable payload
// and yields the fiber with the whole call stack kept alive.
//
// The wait-site holds only what a park needs, and SessionRouter sets each
// field directly: the attempt's `fiber`, the `questions` it parked on, the
// `staged` answers and the `cancel` flag. The router owns everything else
// about the round (its session id, its round id, when it is published and
// resumed; src/session/router.h). A resume returns to the parked frame:
// the suspended IsAnswerBatch fills its answer span from the staged bits
// and returns to the learner — no re-run, no replay. A resume with
// `cancel` set throws JobSuspended instead, which is how the router
// unwinds a parked stack it abandons (correction, close, shutdown).
//
// An empty round is a no-op, not a park: sequential equivalence says zero
// questions mean zero user interactions. A non-empty round with no fiber
// set is a runner bug and aborts before anything is recorded.

#ifndef QHORN_ORACLE_PENDING_H_
#define QHORN_ORACLE_PENDING_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/oracle/oracle.h"

namespace qhorn {

class Fiber;

/// Thrown from a parked wait-site whose owner requested a cancel, to unwind
/// the abandoned stack; caught only by the fiber body that runs session
/// jobs. A control-flow signal, not an error: it deliberately does not
/// derive from std::exception so generic handlers cannot swallow it.
struct JobSuspended {};

/// A round's questions: a read-only view over an immutable payload that
/// PendingOracle builds once, when the job parks. Every copy of the round
/// shares that payload, so copying a round (a poll, pending_round) bumps a
/// refcount and never copies a TupleSet. A copy keeps the payload alive on
/// its own: it stays valid after its session answers, corrects or closes
/// the round, and after the router that listed it is destroyed.
class RoundQuestions {
 public:
  using const_iterator = const TupleSet*;

  RoundQuestions() = default;
  explicit RoundQuestions(std::vector<TupleSet> questions)
      : payload_(std::make_shared<const std::vector<TupleSet>>(
            std::move(questions))) {}

  size_t size() const { return payload_ == nullptr ? 0 : payload_->size(); }
  bool empty() const { return size() == 0; }
  const TupleSet& operator[](size_t i) const { return (*payload_)[i]; }
  const TupleSet* begin() const {
    return payload_ == nullptr ? nullptr : payload_->data();
  }
  const TupleSet* end() const { return begin() + size(); }
  operator std::span<const TupleSet>() const { return {begin(), size()}; }

  friend bool operator==(const RoundQuestions& a, const RoundQuestions& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  std::shared_ptr<const std::vector<TupleSet>> payload_;
};

/// One round of membership questions awaiting a real user's answers.
/// Cheap to copy: the questions are shared, never deep-copied.
struct PendingRound {
  int64_t session_id = 0;  ///< the SessionRouter session that parked
  /// The rounds the session retired before this one (answered, or abandoned
  /// by a correction): the resumption protocol's sequence number, distinct
  /// from the QuestionStore round ids the session reports.
  int64_t round_id = 0;
  RoundQuestions questions;
};

/// Backend whose every non-empty round parks the fiber running the job.
/// Its fields belong to whoever owns the session (the router's runner, or
/// ProvideAnswers under the shard mutex while the session is parked).
class PendingOracle : public MembershipOracle {
 public:
  /// Single-question round: parks and, on resume, returns the staged
  /// answer.
  bool IsAnswer(const TupleSet& question) override;

  /// Parks on the round; on resume, fills `answers` from `staged`. An
  /// empty round returns immediately.
  void IsAnswerBatch(std::span<const TupleSet> questions,
                     BitSpan answers) override;

  Fiber* fiber = nullptr;      ///< the attempt running on this backend
  RoundQuestions questions;    ///< the round parked on, until published
  std::vector<bool> staged;    ///< the parked round's answers
  bool cancel = false;         ///< resume by throwing JobSuspended

 private:
  /// Records the round, yields `fiber`, and on resume fills `answers`.
  void Park(std::vector<TupleSet> round, BitSpan answers);
};

}  // namespace qhorn

#endif  // QHORN_ORACLE_PENDING_H_
