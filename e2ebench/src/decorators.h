// Decorators the benchmark wraps around the service's public seams.
//
//   * TimedEndpoint wraps a ServiceEndpoint (DurableEndpoint here). It
//     times every protocol call, classifies each ProvideAnswers as
//     well-formed or as one of FleetDriver's injected bad replies, and
//     derives the user-visible latencies: ack (the accepted call itself)
//     and turnaround (from the ack to the first later poll that shows the
//     session's next round, or no longer lists the session).
//   * TimedFs wraps an Fs (MemFs here) and counts and times every
//     append, sync and read. The WAL commits on the caller's thread, so an
//     Fs span nests inside the endpoint call that caused it.
//
// Neither changes what the wrapped object does, except on the self-test's
// request (TimedEndpoint::RefuseNextAnswer), which makes the service
// refuse one well-formed answer.

#ifndef E2EBENCH_DECORATORS_H_
#define E2EBENCH_DECORATORS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "e2ebench/src/trace.h"
#include "src/durable/fs.h"
#include "src/workload/service_endpoint.h"

namespace e2e {

/// Resident set size of this process, from /proc/self/statm.
int64_t ReadRssBytes();

/// Counters of one pass through TimedFs. Busy times come from its spans.
struct FsRecord {
  std::atomic<int64_t> appends{0};
  std::atomic<int64_t> append_bytes{0};
  std::atomic<int64_t> syncs{0};
  std::atomic<int64_t> read_bytes{0};
};

class TimedFs : public qhorn::Fs {
 public:
  TimedFs(qhorn::Fs* base, Tracer* tracer, FsRecord* record)
      : base_(base), tracer_(tracer), rec_(record) {}

  std::unique_ptr<qhorn::WritableFile> OpenAppend(const std::string& path) override {
    Tracer::Scope span(tracer_, "fs.open", 0);
    std::unique_ptr<qhorn::WritableFile> file = base_->OpenAppend(path);
    if (file == nullptr) return nullptr;
    return std::make_unique<File>(this, std::move(file));
  }
  bool ReadFile(const std::string& path, std::string* out) override {
    Tracer::Scope span(tracer_, "fs.read", 0);
    bool ok = base_->ReadFile(path, out);
    if (ok) rec_->read_bytes += static_cast<int64_t>(out->size());
    return ok;
  }
  bool FileExists(const std::string& path) override {
    Tracer::Scope span(tracer_, "fs.exists", 0);
    return base_->FileExists(path);
  }
  bool Truncate(const std::string& path, uint64_t size) override {
    Tracer::Scope span(tracer_, "fs.truncate", 0);
    return base_->Truncate(path, size);
  }
  bool CreateDirs(const std::string& dir) override {
    Tracer::Scope span(tracer_, "fs.mkdir", 0);
    return base_->CreateDirs(dir);
  }

  /// The next append reports an I/O error without writing anything.
  void FailNextAppend() { fail_next_append_ = true; }

 private:
  class File : public qhorn::WritableFile {
   public:
    File(TimedFs* fs, std::unique_ptr<qhorn::WritableFile> base)
        : fs_(fs), base_(std::move(base)) {}
    bool Append(std::string_view data) override {
      Tracer::Scope span(fs_->tracer_, "fs.append", 0);
      if (fs_->fail_next_append_.exchange(false)) return false;
      ++fs_->rec_->appends;
      fs_->rec_->append_bytes += static_cast<int64_t>(data.size());
      return base_->Append(data);
    }
    bool Sync() override {
      Tracer::Scope span(fs_->tracer_, "fs.sync", 0);
      ++fs_->rec_->syncs;
      return base_->Sync();
    }

   private:
    TimedFs* fs_;
    std::unique_ptr<qhorn::WritableFile> base_;
  };

  qhorn::Fs* base_;
  Tracer* tracer_;
  FsRecord* rec_;
  std::atomic<bool> fail_next_append_{false};
};

/// What one timed pass saw through the endpoint decorator.
struct EndpointRecord {
  std::vector<double> open_us;
  std::vector<double> ack_us;
  std::vector<double> turnaround_us;
  int64_t attempted = 0;            ///< well-formed protocol operations
  int64_t failed = 0;               ///< … that the service refused
  int64_t expected_rejections = 0;  ///< injected bad replies, rejected
  int64_t rounds_accepted = 0;
  int64_t poll_rounds = 0;
  int64_t begin_ns = 0;  ///< first open starts the timed phase
  int64_t end_ns = 0;    ///< the last empty poll ends it
  int64_t begin_cpu_ns = 0;  ///< driver thread CPU clock there (traced)
  int64_t end_cpu_ns = 0;
  int64_t rss_before = 0;
  int64_t rss_after = 0;  ///< at the first Drain after all opens
  int64_t parked_bytes = 0;  ///< ServiceStats::snapshot_bytes there (traced)
  int64_t excluded_ns = 0;   ///< benchmark-only work inside the phase
};

class TimedEndpoint : public qhorn::ServiceEndpoint {
 public:
  /// `sessions` is the fleet size: the first Drain after that many opens
  /// is where parked memory is sampled.
  TimedEndpoint(qhorn::ServiceEndpoint* inner, Tracer* tracer,
                int64_t sessions, EndpointRecord* record)
      : inner_(inner), tracer_(tracer), sessions_(sessions), rec_(record) {}

  SessionId OpenPending(const qhorn::SessionSpec& spec) override {
    if (opens_ == 0) {
      rec_->rss_before = ReadRssBytes();
      rec_->begin_ns = NowNs();
      if (tracer_->enabled()) rec_->begin_cpu_ns = ThreadCpuNs();
    }
    ++opens_;
    ++rec_->attempted;
    Tracer::Scope span(tracer_, "endpoint.open", 0);
    int64_t t0 = NowNs();
    SessionId id = inner_->OpenPending(spec);
    span.set_request(id);
    rec_->open_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    if (id == 0) {
      ++rec_->failed;
    } else if (id >= static_cast<SessionId>(slots_.size())) {
      slots_.resize(static_cast<size_t>(id) + 1);
    }
    return id;
  }

  qhorn::ProvideOutcome ProvideAnswers(SessionId id, int64_t round_id,
                                       qhorn::BitSpan answers) override {
    Slot* slot = Find(id);
    const bool well_formed = slot != nullptr && slot->listed == poll_ &&
                             slot->round_id == round_id &&
                             slot->questions == answers.size();
    qhorn::ProvideOutcome out;
    int64_t t0 = 0;
    int64_t t1 = 0;
    {
      Tracer::Scope span(tracer_, "endpoint.provide", id);
      t0 = NowNs();
      if (well_formed && refuse_fs_ != nullptr) {
        refuse_fs_->FailNextAppend();
        refuse_fs_ = nullptr;
      }
      out = inner_->ProvideAnswers(id, round_id, answers);
      t1 = NowNs();
    }
    if (!well_formed) {
      // FleetDriver's injected garbage and duplicates: the service must
      // reject them, and the driver fails the run if it does not.
      if (out == qhorn::ProvideOutcome::kResumed) {
        ++rec_->failed;
      } else {
        ++rec_->expected_rejections;
      }
      return out;
    }
    ++rec_->attempted;
    if (out != qhorn::ProvideOutcome::kResumed) {
      ++rec_->failed;
      return out;
    }
    ++rec_->rounds_accepted;
    rec_->ack_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    slot->listed = -1;  // a second delivery of this round is a duplicate
    slot->ack_ns = t1;
    awaiting_.push_back(id);
    return out;
  }

  bool Close(SessionId id) override {
    ++rec_->attempted;
    Tracer::Scope span(tracer_, "endpoint.close", id);
    bool ok = inner_->Close(id);
    if (!ok) ++rec_->failed;
    if (Slot* slot = Find(id)) *slot = Slot();
    return ok;
  }

  std::vector<qhorn::PendingRound> PendingRounds() override {
    std::vector<qhorn::PendingRound> rounds;
    {
      Tracer::Scope span(tracer_, "endpoint.poll", 0);
      rounds = inner_->PendingRounds();
    }
    const int64_t now = NowNs();
    ++poll_;
    rec_->poll_rounds += static_cast<int64_t>(rounds.size());
    for (const qhorn::PendingRound& r : rounds) {
      Slot* slot = Find(r.session_id);
      if (slot == nullptr) continue;
      // An answered round still listed is still being answered: its
      // turnaround ends at a later poll.
      if (slot->ack_ns != 0 && r.round_id == slot->round_id) {
        slot->still_listed = poll_;
        continue;
      }
      slot->listed = poll_;
      slot->round_id = r.round_id;
      slot->questions = r.questions.size();
    }
    size_t kept = 0;
    for (SessionId id : awaiting_) {
      Slot& slot = slots_[static_cast<size_t>(id)];
      if (slot.ack_ns == 0) continue;  // closed since its answer
      if (slot.still_listed == poll_) {
        awaiting_[kept++] = id;
        continue;
      }
      rec_->turnaround_us.push_back(static_cast<double>(now - slot.ack_ns) / 1e3);
      slot.ack_ns = 0;
    }
    awaiting_.resize(kept);
    if (rounds.empty()) {
      rec_->end_ns = now;
      if (tracer_->enabled()) rec_->end_cpu_ns = ThreadCpuNs();
    }
    return rounds;
  }

  void Drain() override {
    {
      Tracer::Scope span(tracer_, "endpoint.drain", 0);
      inner_->Drain();
    }
    if (opens_ == sessions_ && rec_->rss_after == 0) {
      Tracer::Scope span(tracer_, "bench.sample", 0);
      int64_t t0 = NowNs();
      rec_->rss_after = ReadRssBytes();
      if (tracer_->enabled()) {
        rec_->parked_bytes = inner_->stats().snapshot_bytes;
      }
      rec_->excluded_ns += NowNs() - t0;
    }
  }

  std::optional<qhorn::SessionStatus> status(SessionId id) override {
    Tracer::Scope span(tracer_, "endpoint.status", id);
    return inner_->status(id);
  }
  qhorn::QuerySession& session(SessionId id) override {
    Tracer::Scope span(tracer_, "endpoint.session", id);
    return inner_->session(id);
  }
  qhorn::ServiceStats stats() override {
    Tracer::Scope span(tracer_, "endpoint.stats", 0);
    return inner_->stats();
  }

  /// Self-test hook: the next well-formed answer's WAL append through
  /// `fs` fails, so the service refuses that answer with kLogWriteFailed.
  void RefuseNextAnswer(TimedFs* fs) { refuse_fs_ = fs; }

 private:
  /// What the driver may answer for one session, indexed by session id
  /// (the durable router hands out ids 1..N).
  struct Slot {
    int64_t listed = -1;    ///< the poll that last listed an open round
    int64_t round_id = 0;   ///< … its id
    size_t questions = 0;   ///< … and its question count
    int64_t ack_ns = 0;     ///< nonzero: answered, awaiting a later poll
    int64_t still_listed = -1;  ///< the last poll that listed it answered
  };

  Slot* Find(SessionId id) {
    if (id <= 0 || id >= static_cast<SessionId>(slots_.size())) return nullptr;
    return &slots_[static_cast<size_t>(id)];
  }

  qhorn::ServiceEndpoint* inner_;
  Tracer* tracer_;
  int64_t sessions_;
  EndpointRecord* rec_;
  int64_t opens_ = 0;
  int64_t poll_ = 0;
  std::vector<Slot> slots_;
  std::vector<SessionId> awaiting_;  ///< answered, turnaround not yet seen
  TimedFs* refuse_fs_ = nullptr;
};

}  // namespace e2e

#endif  // E2EBENCH_DECORATORS_H_
