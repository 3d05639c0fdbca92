// PendingOracle — the real-user backend for pending-round continuations.
//
// Every other backend answers a round synchronously. A real user does not:
// their answers arrive seconds to minutes later, over whatever transport
// the embedding server uses. PendingOracle models exactly that: any round
// reaching it is by definition "not answerable synchronously", so it
// records the round's questions as a PendingRound{session_id, round_id,
// questions} and parks the in-flight job. The questions are built into one
// shared immutable payload at that moment; every later copy of the round
// shares it.
//
// Parking is the only suspension: the job runs on a Fiber
// (src/util/fiber.h) and the installed yield hook switches back to the
// runner with the whole call stack kept alive. Once the answers arrive,
// the runner stages them (StageResumeAnswers) and resumes the fiber: the
// suspended IsAnswerBatch fills its answer span from the staged bits and
// simply returns to the learner — no re-run, no replay, O(1) compute per
// resume. A round reaching a backend with no hook installed is a runner
// bug and aborts with a diagnostic before anything is recorded.
//
// RequestCancel() makes the *next* resume throw JobSuspended from the
// parked wait-site instead, which is how owners unwind a parked stack
// they need to abandon (correction, close, shutdown): the exception
// unwinds the learner frames and the fiber body catches it at its
// boundary.
//
// Round ids count *user-boundary* rounds (each suspension is one round);
// they are the resumption protocol's sequence numbers, distinct from the
// QuestionStore round ids the session reports. An empty round is a
// no-op, not a suspension — sequential equivalence says zero questions
// mean zero user interactions.

#ifndef QHORN_ORACLE_PENDING_H_
#define QHORN_ORACLE_PENDING_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "src/oracle/oracle.h"

namespace qhorn {

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
  int64_t session_id = 0;  ///< the SessionRouter session that suspended
  int64_t round_id = 0;    ///< user-boundary round sequence number
  RoundQuestions questions;
};

/// Backend whose every (non-empty) round parks the in-flight job.
class PendingOracle : public MembershipOracle {
 public:
  PendingOracle() = default;

  /// The router stamps the id after Open assigns it (no jobs can run
  /// before Open returns, so this never races a suspension).
  void set_session_id(int64_t id) { session_id_ = id; }

  /// Called by the job runner before each (re-)run: `next_round_id` is the
  /// number of rounds already answered — the id the next suspension will
  /// carry. Clears any stale pending round from an abandoned attempt.
  void BeginAttempt(int64_t next_round_id);

  /// Installs (or clears, with nullptr) the park hook. The hook must switch
  /// back to the runner and return only when answers have been staged or a
  /// cancel was requested. Installed once per fiber attempt by the runner;
  /// never changed while a round is in flight.
  void InstallYieldHook(std::function<void()> yield);

  /// Stages the answers for the parked round before the runner resumes the
  /// fiber. Size must equal the parked round's question count.
  void StageResumeAnswers(std::vector<bool> answers);

  /// Makes the parked wait-site throw JobSuspended on its next resume:
  /// the fiber unwinds through the ordinary exception machinery and
  /// finishes without touching the learner again.
  void RequestCancel() { cancel_requested_ = true; }

  /// Single-question round: parks and, on resume, returns the staged
  /// answer.
  bool IsAnswer(const TupleSet& question) override;

  /// Records the round and parks. An empty round returns immediately (no
  /// round, no suspension — nothing to ask a user). On resume, fills
  /// `answers` from the staged bits.
  void IsAnswerBatch(std::span<const TupleSet> questions,
                     BitSpan answers) override;

  bool has_pending() const { return has_pending_; }

  /// Harvests the recorded round after the job parks.
  PendingRound TakePending();

  /// Rounds that parked (a per-session statistic; replayed rounds never
  /// reach this backend, so each user round counts exactly once).
  int64_t suspensions() const { return suspensions_; }

 private:
  /// Records the round, parks, and on resume fills `answers`.
  void SuspendAndAwait(std::vector<TupleSet> questions, BitSpan answers);

  int64_t session_id_ = 0;
  int64_t next_round_id_ = 0;
  int64_t suspensions_ = 0;
  bool has_pending_ = false;
  PendingRound pending_;
  std::function<void()> yield_;
  std::vector<bool> staged_answers_;
  bool answers_staged_ = false;
  bool cancel_requested_ = false;
};

}  // namespace qhorn

#endif  // QHORN_ORACLE_PENDING_H_
