#include "src/durable/durable_router.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <utility>

#include "src/util/bit_span.h"
#include "src/util/check.h"
#include "src/workload/fleet_driver.h"

namespace qhorn {

namespace {

/// One router shard per WAL shard (see DurableRouterOptions::shards);
/// lanes and session options come from the wrapped router options
/// unchanged.
SessionRouter::Options RouterOptions(const DurableRouterOptions& options) {
  SessionRouter::Options router = options.router;
  router.shards = options.shards;
  return router;
}

}  // namespace

DurableRouter::DurableRouter(Fs* fs, std::string log_dir,
                             DurableRouterOptions options)
    : fs_(fs),
      log_dir_(std::move(log_dir)),
      options_(options),
      router_(RouterOptions(options_)) {}

DurableRouter::~DurableRouter() = default;

std::string DurableRouter::ShardPath(const std::string& log_dir, int shard) {
  return log_dir + "/shard-" + std::to_string(shard) + ".qlog";
}

bool DurableRouter::OpenLogs(std::string* error) {
  if (!fs_->CreateDirs(log_dir_)) {
    *error = "cannot create log directory " + log_dir_;
    return false;
  }
  shards_.reserve(options_.shards);
  for (int i = 0; i < options_.shards; ++i) {
    auto log = SessionLog::Open(fs_, ShardPath(log_dir_, i), options_.log,
                                error);
    if (log == nullptr) return false;
    shards_.push_back(std::move(log));
  }
  return true;
}

std::unique_ptr<DurableRouter> DurableRouter::Create(
    Fs* fs, const std::string& log_dir, const DurableRouterOptions& options,
    std::string* error) {
  auto router = std::unique_ptr<DurableRouter>(
      new DurableRouter(fs, log_dir, options));
  if (!router->OpenLogs(error)) return nullptr;
  return router;
}

SessionLog* DurableRouter::ShardFor(SessionId id) {
  return shards_[static_cast<size_t>(id) % static_cast<size_t>(options_.shards)]
      .get();
}

DurableRouter::SessionId DurableRouter::OpenPending(const SessionSpec& spec) {
  // A spec the router cannot run would abort the open — and, once logged,
  // every recovery after it. Refuse it before it reaches the log.
  if (!IsValidSessionSpec(spec)) return 0;
  SessionId id;
  {
    // Log before ack, under the assignment lock: the id is consumed only
    // once its record is in the log. A crash after this append but before
    // OpenPending returns re-creates a session whose id the caller never
    // learned — an orphan that waits forever, which is the durable-service
    // analogue of an abandoned session, not a correctness hole: nothing
    // was acknowledged, so nothing is owed.
    MutexLock lock(&mutex_);
    id = next_id_;
    if (!ShardFor(id)->AppendSessionOpened(id, spec)) return 0;
    ++next_id_;
  }
  // Router shard id % shards matches WAL shard id % shards: this session's
  // commit hooks append to its WAL while holding its router shard's mutex
  // — a 1:1 mapping, so two sessions contend on a router lock iff they
  // share a WAL anyway.
  const SessionId opened = router_.OpenPending(spec.n, id);
  QHORN_CHECK_MSG(opened == id, "router refused durable session id " << id);
  SubmitSpecJobs(router_, id, spec);
  return id;
}

ProvideOutcome DurableRouter::ProvideAnswers(SessionId id, int64_t round_id,
                                             BitSpan answers) {
  SessionLog* shard = ShardFor(id);
  // The append runs inside the router's commit hook: after validation,
  // before mutation, atomic with the fold. Anything the log did not
  // accept was never acknowledged and never happened in memory. Unknown
  // ids fail validation, so they are never logged.
  auto commit = [&]() -> bool {
    return shard->AppendRoundAnswered(id, round_id, answers);
  };
  return router_.ProvideAnswers(id, round_id, answers,
                                SessionRouter::CommitHook(commit));
}

bool DurableRouter::Close(SessionId id) {
  // Log before ack, from inside the commit hook: only a close the router
  // accepts is logged, once, however many callers race it. A retry after
  // a sync failure can still leave a duplicate close record; Recover
  // skips it idempotently.
  auto commit = [&]() -> bool { return ShardFor(id)->AppendSessionClosed(id); };
  return router_.Close(id, SessionRouter::CommitHook(commit));
}

std::vector<PendingRound> DurableRouter::PendingRounds() {
  return router_.PendingRounds();
}

void DurableRouter::Drain() { router_.Drain(); }

std::optional<SessionStatus> DurableRouter::status(SessionId id) {
  return router_.status(id);
}

QuerySession& DurableRouter::session(SessionId id) {
  return router_.session(id);
}

ServiceStats DurableRouter::stats() { return router_.stats(); }

int64_t DurableRouter::records_logged() const {
  int64_t total = 0;
  for (const auto& shard : shards_) total += shard->records_appended();
  return total;
}

// ---------------------------------------------------------------------------
// Recovery

namespace {

/// Everything the log says about one session, folded shard-by-shard.
struct SessionImage {
  SessionSpec spec;
  bool opened = false;
  bool closed = false;
  std::vector<std::vector<bool>> rounds;  // indexed by round id
};

}  // namespace

std::unique_ptr<DurableRouter> DurableRouter::Recover(
    Fs* fs, const std::string& log_dir, const DurableRouterOptions& options,
    RecoveryReport* report, std::string* error) {
  *report = RecoveryReport();
  error->clear();

  // Phase 1 — scan: CRC-check every shard, truncate torn tails loudly,
  // reject anything typed-bad before touching any state. A log written
  // with a different shard count is typed-bad too: a shard past the
  // count would be skipped, and a record outside its home shard would
  // have its later records appended to a different file.
  if (fs->FileExists(ShardPath(log_dir, options.shards))) {
    *error = "log has more than " + std::to_string(options.shards) +
             " shard(s): " + ShardPath(log_dir, options.shards) + " exists";
    return nullptr;
  }
  std::map<SessionId, SessionImage> images;
  for (int i = 0; i < options.shards; ++i) {
    const std::string path = ShardPath(log_dir, i);
    LogReadResult read = ReadLog(fs, path);
    if (read.status != LogReadStatus::kOk) {
      *error = std::string("recovery rejected shard ") + std::to_string(i) +
               " (" + ToString(read.status) + "): " + read.error;
      return nullptr;
    }
    if (read.existed && read.torn_tail) {
      if (!fs->Truncate(path, read.valid_bytes)) {
        *error = "cannot truncate torn tail of " + path;
        return nullptr;
      }
      ++report->torn_tails_truncated;
      report->torn_bytes_dropped += static_cast<int64_t>(read.dropped_bytes);
    }
    // Phase 2 — fold: build per-session images. Round ids totally order a
    // session's answers, so duplicates (retry echoes) are recognizable as
    // already-seen ids and gaps are recognizable as impossible futures.
    for (LogRecord& rec : read.records) {
      ++report->records_read;
      if (rec.session_id % options.shards != i) {
        *error = "shard " + std::to_string(i) + " holds session " +
                 std::to_string(rec.session_id) + ", which lives on shard " +
                 std::to_string(rec.session_id % options.shards) + " of " +
                 std::to_string(options.shards);
        return nullptr;
      }
      SessionImage& image = images[rec.session_id];
      switch (rec.type) {
        case LogRecordType::kSessionOpened:
          if (image.opened) {
            ++report->duplicate_records_skipped;
            break;
          }
          image.opened = true;
          image.spec = std::move(rec.spec);
          break;
        case LogRecordType::kRoundAnswered: {
          if (!image.opened) {
            *error = "shard " + std::to_string(i) +
                     ": RoundAnswered for never-opened session " +
                     std::to_string(rec.session_id);
            return nullptr;
          }
          auto next = static_cast<int64_t>(image.rounds.size());
          if (rec.round_id < next) {
            ++report->duplicate_records_skipped;
            if (image.rounds[static_cast<size_t>(rec.round_id)] !=
                rec.answers) {
              *error = "session " + std::to_string(rec.session_id) +
                       ": duplicate record for round " +
                       std::to_string(rec.round_id) +
                       " carries different answers";
              return nullptr;
            }
            break;
          }
          if (rec.round_id > next) {
            *error = "session " + std::to_string(rec.session_id) +
                     ": round " + std::to_string(rec.round_id) +
                     " logged but round " + std::to_string(next) +
                     " is missing";
            return nullptr;
          }
          image.rounds.push_back(std::move(rec.answers));
          break;
        }
        case LogRecordType::kSessionClosed:
          if (!image.opened) {
            *error = "shard " + std::to_string(i) +
                     ": SessionClosed for never-opened session " +
                     std::to_string(rec.session_id);
            return nullptr;
          }
          if (image.closed) {
            ++report->duplicate_records_skipped;
            break;
          }
          image.closed = true;
          break;
      }
    }
  }

  // Phase 3 — rebuild: fresh router, every session re-opened (in id
  // order) with its job plan resubmitted.
  auto durable = std::unique_ptr<DurableRouter>(
      new DurableRouter(fs, log_dir, options));
  if (!durable->OpenLogs(error)) return nullptr;
  SessionId next_id = 1;
  for (const auto& [id, image] : images) {
    if (durable->router_.OpenPending(image.spec.n, id) != id) {
      *error = "log opens invalid session id " + std::to_string(id);
      return nullptr;
    }
    SubmitSpecJobs(durable->router_, id, image.spec);
    next_id = std::max(next_id, id + 1);
    ++report->sessions_recovered;
  }
  {
    // Recovery is single-threaded, but next_id_ is a guarded member: take
    // the (uncontended) lock so the annotations stay honest.
    MutexLock lock(&durable->mutex_);
    durable->next_id_ = next_id;
  }

  // Phase 4 — replay: feed the logged answers back through the ordinary
  // pending protocol, in round order per session. Determinism does the
  // rest — the re-run learners ask the identical questions, so each
  // logged round must surface with exactly its logged id; anything else
  // is a divergence the recovery refuses to paper over.
  std::map<SessionId, size_t> fed;
  BitVec bits;
  for (;;) {
    durable->router_.Drain();
    bool progress = false;
    for (const auto& [id, image] : images) {
      size_t& next = fed[id];
      if (next >= image.rounds.size()) continue;
      std::optional<PendingRound> round = durable->router_.pending_round(id);
      if (!round.has_value()) continue;  // checked after the fixpoint
      const std::vector<bool>& answers = image.rounds[next];
      if (round->round_id != static_cast<int64_t>(next)) {
        std::ostringstream os;
        os << "session " << id << ": replay surfaced round "
           << round->round_id << " where the log expects round " << next;
        *error = os.str();
        return nullptr;
      }
      if (round->questions.size() != answers.size()) {
        std::ostringstream os;
        os << "session " << id << ": replay round " << next << " asks "
           << round->questions.size() << " question(s) but the log recorded "
           << answers.size() << " answer(s)";
        *error = os.str();
        return nullptr;
      }
      BitSpan span = bits.Prepare(answers.size());
      for (size_t q = 0; q < answers.size(); ++q) span.Set(q, answers[q]);
      // The three-argument overload: replay must not re-log what the log
      // just said.
      ProvideOutcome out =
          durable->router_.ProvideAnswers(id, round->round_id, span);
      if (out != ProvideOutcome::kResumed) {
        std::ostringstream os;
        os << "session " << id << ": replay of round " << next
           << " was rejected (" << ToString(out) << ")";
        *error = os.str();
        return nullptr;
      }
      ++next;
      ++report->rounds_replayed;
      progress = true;
    }
    if (!progress) break;
  }
  for (const auto& [id, image] : images) {
    if (fed[id] < image.rounds.size()) {
      std::ostringstream os;
      os << "session " << id << ": log records round " << fed[id]
         << " but the replayed session never asked it";
      *error = os.str();
      return nullptr;
    }
  }

  // Phase 5 — re-close what the log says was closed (after replay, so a
  // session closed mid-round abandons the same round it abandoned then).
  for (const auto& [id, image] : images) {
    if (!image.closed) continue;
    durable->router_.Close(id);
    ++report->sessions_closed;
  }
  durable->router_.Drain();
  return durable;
}

}  // namespace qhorn
