// QuerySession — the high-level entry point a query interface embeds.
//
// It wires the pieces the paper's DataPlay front-end needs around a single
// user-facing oracle: a question store (the full response history, never
// asking the same object twice, and the count of the questions the user
// answered — the paper's cost measure), correction by replay at the user
// boundary (§5), learning (§3), verification (§4) and revision (§6). The
// embedding UI implements MembershipOracle (pose the object to the user,
// return their label); everything else is this class.
//
// The question stack is two stages, both members of the session:
//
//   learner → QuestionStore → [ReplayOracle] → user
//
// The replay stage is present only after a correction (or a router
// restart that replays one), serving the corrected prefix of the user's
// answers; BuildPipeline rebuilds both in place.

#ifndef QHORN_SESSION_SESSION_H_
#define QHORN_SESSION_SESSION_H_

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "src/learn/revision.h"
#include "src/learn/rp_learner.h"
#include "src/oracle/transcript.h"
#include "src/verify/verifier.h"

namespace qhorn {

/// One user's query-specification session over n propositions.
class QuerySession {
 public:
  struct Options {
    RpLearnerOptions learner;
  };

  /// `user` must outlive the session.
  QuerySession(int n, MembershipOracle* user);
  QuerySession(int n, MembershipOracle* user, Options options);

  // The store points at the replay stage beside it.
  QuerySession(const QuerySession&) = delete;
  QuerySession& operator=(const QuerySession&) = delete;

  int n() const { return n_; }

  /// Learns the user's query from membership questions (§3.2). The result
  /// is also retained as the session's current query.
  const Query& Learn();

  /// Verifies a user-authored query with the O(k) verification set (§4).
  /// On acceptance it becomes the session's current query.
  VerificationReport Verify(const Query& candidate);

  /// Revises a close-but-wrong query (§6); the result becomes current.
  RevisionResult Revise(const Query& candidate);

  /// The session's current query, if any phase has produced one.
  const std::optional<Query>& current_query() const { return current_; }

  /// Full question/answer history in the order the learners asked: every
  /// question, including the repeats the question store answered without
  /// showing them to the user. Built from the store's log: O(total tuples)
  /// per call.
  std::vector<TranscriptEntry> history() const { return store_->entries(); }

  /// The §5 workflow: the user flips their answer to history entry
  /// `index` (for a repeat the store answered, the answer its first asking
  /// got: QuestionStore::AnswerIndex), and the session relearns over the
  /// prefix a SessionRouter::CorrectAnswer restart replays (BuildPipeline),
  /// so the user is asked nothing they answered before and the session
  /// ends with the history and counts the router's correction leaves.
  ///
  /// Not supported on pending-round continuation sessions (an always-on
  /// QHORN_CHECK, before any state is touched): this relearns
  /// *synchronously inside the call*, so on a pending backend it would
  /// suspend outside any runner with the session half-rebuilt. Corrections
  /// of suspended sessions go through SessionRouter::CorrectAnswer, whose
  /// restart runs on a fiber that may suspend. (Pinned by
  /// ContinuationEdgeTest.CorrectAndRelearnIsRefusedInContinuationMode.)
  const Query& CorrectAndRelearn(size_t index);

  /// Pending-round continuation support (SessionRouter): rebuilds the
  /// question stack from scratch and forgets the current query.
  /// With a `corrected_answer`, user answers 0..corrected_answer, the last
  /// one flipped, are replayed *at the user boundary* (BuildPipeline).
  ///
  /// A pending session's first attempt and every correction restart
  /// (SessionRouter::CorrectAnswer) enter through it: jobs are
  /// deterministic functions of the user's answers, so re-running them
  /// over a fresh stack with the answered rounds replayed reproduces
  /// the exact state a synchronous run would have reached — history,
  /// counts and store hits included — without asking the user twice.
  void ResetWithUserReplay(
      std::optional<size_t> corrected_answer = std::nullopt);

  /// Answers given at the user boundary, the range of a correction's
  /// `corrected_answer`: the questions the store forwarded, or the replay
  /// stage's transcript while a round it began serving is out. O(1).
  size_t user_answers() const;

  /// Cumulative questions served by user-boundary replay stages across
  /// every restart of this session's lifetime: after a correction, the
  /// replayed prefix. A parked resume replays nothing, so this stays 0
  /// until a correction restarts the session (the resume-depth stress test
  /// asserts the 0).
  int64_t user_questions_replayed() const {
    return user_replayed_total_ + (user_replay_ ? user_replay_->replayed() : 0);
  }

  /// Questions the store forwarded toward the user since the stack was
  /// last built. After a correction this counts the replayed prefix as
  /// well as the fresh questions (user_questions_replayed() reports the
  /// prefix), as the router's restarted sessions do.
  int64_t questions_asked() const { return store_->misses(); }

  /// Full per-question statistics of what the store forwarded, including
  /// how many questions arrived inside batched rounds.
  const OracleStats& oracle_stats() const { return store_->forwarded(); }

  /// Oracle rounds the session issued (a batch counts once): the number of
  /// user interactions, as opposed to the number of questions. Learners
  /// emit whole lattice levels / head sweeps per round, so this is much
  /// smaller than the question count.
  int64_t rounds() const { return store_->rounds(); }

  /// Store hits: repeated questions answered without asking the user.
  int64_t cache_hits() const { return store_->hits(); }

 private:
  /// (Re)builds the question stack over the user, outermost first:
  /// store → [replay] → user. A `corrected_answer` puts a ReplayOracle
  /// directly above the user serving QuestionStore::CorrectedUserPrefix —
  /// the one place a corrected prefix is built (served questions reach
  /// the store exactly as when first asked). Forgets the current query.
  void BuildPipeline(std::optional<size_t> corrected_answer);
  /// The live replay stage's transcript; empty without one.
  std::span<const TranscriptEntry> ReplayHead() const;

  int n_;
  MembershipOracle* user_;
  Options options_;
  bool continuation_mode_ = false;  // ResetWithUserReplay has been used
  std::optional<ReplayOracle> user_replay_;  // user-boundary stage, if armed
  std::optional<QuestionStore> store_;  // always set once constructed
  std::optional<Query> current_;
  // Replayed-question count harvested from retired user-boundary replay
  // stages (each stack rebuild discards the live stage).
  int64_t user_replayed_total_ = 0;
};

}  // namespace qhorn

#endif  // QHORN_SESSION_SESSION_H_
