#include "src/session/session.h"

#include <algorithm>

#include "src/util/check.h"

namespace qhorn {

QuerySession::QuerySession(int n, MembershipOracle* user)
    : QuerySession(n, user, Options()) {}

QuerySession::QuerySession(int n, MembershipOracle* user, Options options)
    : n_(n), user_(user), options_(options) {
  QHORN_CHECK(user != nullptr);
  QHORN_CHECK(n >= 1 && n <= kMaxVars);
  BuildPipeline(std::nullopt);
}

std::span<const TranscriptEntry> QuerySession::ReplayHead() const {
  if (!user_replay_.has_value()) return {};
  return user_replay_->transcript();
}

size_t QuerySession::user_answers() const {
  return std::max(static_cast<size_t>(store_->misses()), ReplayHead().size());
}

void QuerySession::BuildPipeline(std::optional<size_t> corrected_answer) {
  std::vector<TranscriptEntry> user_prefix;
  if (corrected_answer.has_value()) {
    user_prefix = store_->CorrectedUserPrefix(*corrected_answer, ReplayHead());
  }
  // The live user-boundary replay stage dies with the old stack; bank its
  // served-question count first so user_questions_replayed() stays
  // cumulative across restarts.
  if (user_replay_.has_value()) {
    user_replayed_total_ += user_replay_->replayed();
    user_replay_.reset();
  }
  MembershipOracle* below_store = user_;
  if (!user_prefix.empty()) {
    below_store = &user_replay_.emplace(user_, std::move(user_prefix));
  }
  store_.emplace(below_store);
  current_.reset();
}

void QuerySession::ResetWithUserReplay(
    std::optional<size_t> corrected_answer) {
  continuation_mode_ = true;
  BuildPipeline(corrected_answer);
}

const Query& QuerySession::Learn() {
  RpLearnerResult result =
      LearnRolePreserving(n_, &*store_, options_.learner);
  current_ = std::move(result.query);
  return *current_;
}

VerificationReport QuerySession::Verify(const Query& candidate) {
  QHORN_CHECK_MSG(candidate.n() == n_, "candidate arity mismatch");
  VerificationReport report = VerifyQuery(candidate, &*store_);
  if (report.accepted) current_ = candidate;
  return report;
}

RevisionResult QuerySession::Revise(const Query& candidate) {
  QHORN_CHECK_MSG(candidate.n() == n_, "candidate arity mismatch");
  RevisionResult result = ReviseQuery(candidate, &*store_, options_.learner);
  current_ = result.query;
  return result;
}

const Query& QuerySession::CorrectAndRelearn(size_t index) {
  // A correction invalidates the suffix of the answered user rounds a
  // continuation restart replays; the re-run's question stream could never
  // re-align with the stored prefix and the session would re-suspend on
  // the same question forever. Fail loudly instead of looping.
  QHORN_CHECK_MSG(!continuation_mode_,
                  "CorrectAndRelearn is not supported on pending-round "
                  "continuation sessions; close the session and re-learn");
  BuildPipeline(store_->AnswerIndex(index));
  return Learn();
}

}  // namespace qhorn
