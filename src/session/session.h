// QuerySession — the high-level entry point a query interface embeds.
//
// It wires the pieces the paper's DataPlay front-end needs around a single
// user-facing oracle: question caching (never ask the same object twice),
// question counting, a full response history with correction-and-replay
// (§5), learning (§3), verification (§4) and revision (§6). The embedding
// UI implements MembershipOracle (pose the object to the user, return
// their label); everything else is this class.

#ifndef QHORN_SESSION_SESSION_H_
#define QHORN_SESSION_SESSION_H_

#include <cstddef>
#include <memory>
#include <optional>
#include <vector>

#include "src/learn/revision.h"
#include "src/learn/rp_learner.h"
#include "src/oracle/pipeline.h"
#include "src/oracle/transcript.h"
#include "src/verify/verifier.h"

namespace qhorn {

/// One user's query-specification session over n propositions.
class QuerySession {
 public:
  struct Options {
    RpLearnerOptions learner;
    /// Deduplicate identical questions before they reach the user.
    bool cache_questions = true;
  };

  /// `user` must outlive the session.
  QuerySession(int n, MembershipOracle* user);
  QuerySession(int n, MembershipOracle* user, Options options);

  // The pipeline's stages point at log_.
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

  /// Full question/answer history (in the order the user saw them), built
  /// from the session's question log: O(total tuples) per call.
  std::vector<TranscriptEntry> history() const {
    return transcript_->entries();
  }

  /// The §5 workflow: the user flips their answer to history entry
  /// `index`; learning restarts from that point, replaying the unchanged
  /// prefix so the user only answers genuinely new questions.
  ///
  /// Not supported on pending-round continuation sessions (aborts with a
  /// diagnostic): this entry point relearns *synchronously inside the
  /// call*, so on a pending backend the relearn would immediately suspend
  /// outside any runner with the session half-rebuilt. The router owns the
  /// suspend/resume protocol, so mid-suspension corrections go through
  /// `SessionRouter::CorrectAnswer` instead — it truncates the stored
  /// answers at the flipped entry and restarts the job log on a fresh
  /// fiber, which is allowed to suspend. The invariant
  /// that made the old blanket refusal load-bearing (never touch a
  /// mid-replay pipeline) still holds here: the refusal is an always-on
  /// QHORN_CHECK evaluated before any session state is touched. (Pinned by
  /// ContinuationEdgeTest.CorrectAndRelearnIsRefusedInContinuationMode.)
  const Query& CorrectAndRelearn(size_t index);

  /// Pending-round continuation support (SessionRouter): rebuilds the
  /// whole middleware chain from scratch with `user_prefix` replayed
  /// *at the user boundary* — a ReplayOracle directly above the user
  /// backend, below cache and counting — and forgets the current query.
  ///
  /// This is the restart path of the pending protocol — a session's first
  /// attempt (empty prefix) and every correction restart
  /// (SessionRouter::CorrectAnswer) enter through it: jobs are
  /// deterministic functions of the user's answers, so re-running them
  /// over fresh decorators with the answered rounds replayed reproduces
  /// the exact state a synchronous run would have reached — transcript,
  /// question counts and cache traffic included — without asking the user
  /// anything twice. (Contrast CorrectAndRelearn, whose replay sits above
  /// the cache precisely so re-asked questions are *not* re-counted.)
  void ResetWithUserReplay(std::vector<TranscriptEntry> user_prefix);

  /// Cumulative questions served by user-boundary replay stages across
  /// every restart attempt of this session's lifetime. A parked resume
  /// replays nothing, so this stays 0 until a correction restarts the
  /// session through the full-prefix replay (the resume-depth stress test
  /// asserts the 0).
  int64_t user_questions_replayed() const {
    return user_replayed_total_ + (user_replay_ ? user_replay_->replayed() : 0);
  }

  /// Questions that actually reached the user (cache misses).
  int64_t questions_asked() const { return counting_->stats().questions; }

  /// Full per-question statistics at the user boundary, including how many
  /// questions arrived inside batched rounds.
  const OracleStats& oracle_stats() const { return counting_->stats(); }

  /// Oracle rounds the session issued (a batch counts once): the number of
  /// user interactions, as opposed to the number of questions. Learners
  /// emit whole lattice levels / head sweeps per round, so this is much
  /// smaller than the question count.
  int64_t rounds() const { return transcript_->rounds(); }

  /// Cache traffic: identical questions served without re-asking the user.
  int64_t cache_hits() const { return cache_ ? cache_->hits() : 0; }

 private:
  /// (Re)builds the middleware chain over the user backend, outermost
  /// first: transcript → [replay] → cache → counting → [user replay] →
  /// user, with the transcript and the cache sharing a fresh log_. A
  /// non-empty `replay_prefix` inserts a ReplayOracle between the cache
  /// and the transcript for the §5 correction workflow (served questions
  /// are not re-counted); a non-empty `user_prefix` inserts one directly
  /// above the user for continuation re-entry (served questions pass
  /// through every decorator, exactly as when first asked).
  void BuildPipeline(std::vector<TranscriptEntry> replay_prefix,
                     std::vector<TranscriptEntry> user_prefix);

  int n_;
  MembershipOracle* user_;
  Options options_;
  bool continuation_mode_ = false;  // ResetWithUserReplay has been used
  // Every question the transcript recorded, stored once; the cache indexes
  // it too.
  QuestionLog log_;
  // Owning middleware chain; the typed pointers below alias its stages.
  OraclePipeline pipeline_;
  CountingOracle* counting_ = nullptr;
  CachingOracle* cache_ = nullptr;
  TranscriptOracle* transcript_ = nullptr;
  ReplayOracle* user_replay_ = nullptr;  // user-boundary stage, if armed
  MembershipOracle* top_ = nullptr;
  std::optional<Query> current_;
  // Replayed-question count harvested from retired user-boundary replay
  // stages (each pipeline rebuild discards the live stage).
  int64_t user_replayed_total_ = 0;
};

}  // namespace qhorn

#endif  // QHORN_SESSION_SESSION_H_
