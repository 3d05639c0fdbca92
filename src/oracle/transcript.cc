#include "src/oracle/transcript.h"

#include <cstdint>

#include "src/util/check.h"

namespace qhorn {

size_t TranscriptOracle::Stage(const TupleSet& question) {
  const size_t offset = log_->tuples.size();
  QHORN_CHECK(question.size() <= INT32_MAX &&
              offset + question.size() <= UINT32_MAX);
  log_->tuples.insert(log_->tuples.end(), question.begin(), question.end());
  return offset;
}

bool TranscriptOracle::IsAnswer(const TupleSet& question) {
  // The question is staged in the log before the forward (a cache below
  // indexes it there), and the round id is consumed only after the inner
  // oracle answers: a cancelled parked round (pending backend) unwinds by
  // throwing, and the unanswered round must not burn an id or leave an
  // entry or tuples behind.
  const size_t offset = Stage(question);
  bool response = false;
  try {
    response = inner_->IsAnswer(question);
  } catch (...) {
    log_->tuples.resize(offset);
    throw;
  }
  log_->entries.push_back(
      {static_cast<uint32_t>(offset), static_cast<uint32_t>(question.size()),
       response, rounds_++});
  return response;
}

void TranscriptOracle::IsAnswerBatch(std::span<const TupleSet> questions,
                                     BitSpan answers) {
  // An empty batch is zero sequential questions: no round id is consumed,
  // nothing is recorded, and the inner oracle is not called. As for a
  // single question, the round is staged before the forward and its round
  // id consumed after it, so a cancelled round leaves the history as it
  // was.
  if (questions.empty()) return;
  const size_t begin = log_->tuples.size();
  for (const TupleSet& q : questions) Stage(q);
  try {
    inner_->IsAnswerBatch(questions, answers);
  } catch (...) {
    log_->tuples.resize(begin);
    throw;
  }
  const int64_t round = rounds_++;
  size_t offset = begin;
  for (size_t i = 0; i < questions.size(); ++i) {
    log_->entries.push_back({static_cast<uint32_t>(offset),
                             static_cast<uint32_t>(questions[i].size()),
                             answers.Get(i), round});
    offset += questions[i].size();
  }
}

std::vector<TranscriptEntry> TranscriptOracle::entries() const {
  std::vector<TranscriptEntry> out;
  out.reserve(log_->entries.size());
  for (const QuestionLog::Entry& e : log_->entries) {
    auto first = log_->tuples.begin() + e.offset;
    out.push_back({TupleSet(std::vector<Tuple>(first, first + e.size)),
                   e.response != 0, e.round});
  }
  return out;
}

void TranscriptOracle::Correct(size_t index) {
  QHORN_CHECK_MSG(index < log_->entries.size(),
                  "no transcript entry " << index);
  QuestionLog::Entry& e = log_->entries[index];
  e.response = !e.response;
  log_->tuples.resize(e.offset + e.size);
  rounds_ = e.round + 1;
  log_->entries.resize(index + 1);
}

std::string TranscriptOracle::ToString(int n) const {
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
  if (TryReplay(question, &response)) return response;
  // Counted after the fallback answers, so a cancelled question (pending
  // backend throwing JobSuspended) is not recorded as asked.
  bool answer = fallback_->IsAnswer(question);
  ++asked_;
  return answer;
}

void ReplayOracle::IsAnswerBatch(std::span<const TupleSet> questions,
                                 BitSpan answers) {
  // Serve the still-matching transcript prefix, then send the remainder to
  // the fallback in one round. Once any question needs the fallback, every
  // later one does too (a mismatch diverges the replay; an exhausted
  // transcript stays exhausted), so the remainder is a contiguous tail.
  size_t served = 0;
  for (; served < questions.size(); ++served) {
    bool response = false;
    if (!TryReplay(questions[served], &response)) break;
    answers.Set(served, response);
  }
  if (served == questions.size()) return;
  std::span<const TupleSet> rest = questions.subspan(served);
  fallback_->IsAnswerBatch(rest, answers.Subspan(served));
  asked_ += static_cast<int64_t>(rest.size());
}

}  // namespace qhorn
