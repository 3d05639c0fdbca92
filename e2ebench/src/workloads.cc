#include "e2ebench/src/workloads.h"

#include <malloc.h>
#include <unistd.h>

#include <cstdio>
#include <span>
#include <utility>

#include "src/core/compiled_query.h"
#include "src/core/normalize.h"
#include "src/durable/crash_harness.h"
#include "src/oracle/oracle.h"
#include "src/session/session.h"
#include "src/workload/fingerprint.h"
#include "src/workload/fleet_driver.h"

namespace e2e {

int64_t ReadRssBytes() {
  long pages = 0;
  long resident = 0;
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
  std::fclose(f);
  return static_cast<int64_t>(resident) * sysconf(_SC_PAGESIZE);
}

namespace {

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }

qhorn::QuerySession::Options SessionOptions() {
  // Speculative batching stays off: the fleets pin it off too, so the
  // synchronous reference arms ask the identical question streams.
  qhorn::QuerySession::Options options;
  options.learner.existential.speculative_batching = false;
  options.learner.universal.speculative_batching = false;
  return options;
}

/// Evaluates every answered round of `session` again through a
/// CompiledQuery of `target`, one EvaluateAll per round as the users saw
/// them. Returns the evaluation time; counts rounds at the parallel
/// cutover; with `reliable`, fails on any verdict that differs from the
/// recorded answer.
double ReEvaluate(qhorn::QuerySession& session, const qhorn::Query& target,
                  bool reliable, PassResult* r) {
  const qhorn::CompiledQuery compiled(target);
  const std::vector<qhorn::TranscriptEntry>& history = session.history();
  std::vector<qhorn::TupleSet> batch;
  std::vector<bool> recorded;
  std::vector<bool> verdicts;
  int64_t busy_ns = 0;
  size_t i = 0;
  while (i < history.size()) {
    batch.clear();
    recorded.clear();
    const int64_t round = history[i].round;
    for (; i < history.size() && history[i].round == round; ++i) {
      batch.push_back(history[i].question);
      recorded.push_back(history[i].response);
    }
    const int64_t t0 = NowNs();
    compiled.EvaluateAll(std::span<const qhorn::TupleSet>(batch), &verdicts);
    busy_ns += NowNs() - t0;
    if (batch.size() >= qhorn::CompiledQuery::kParallelRoundCutover) {
      ++r->rounds_at_cutover;
    }
    if (reliable && verdicts != recorded && r->ok) {
      r->ok = false;
      r->failure = "a recorded answer differs from its target's verdict";
    }
  }
  return Seconds(busy_ns);
}

/// A 64-bit digest of everything SessionFingerprint renders. learn_wide
/// compares digests: rendering its 512 wide transcripts as text would cost
/// several times the timed phase.
uint64_t Digest(qhorn::QuerySession& session) {
  uint64_t h = 0;
  auto mix = [&h](uint64_t v) {
    h = (h ^ v) * 0x100000001b3ULL;
    h ^= h >> 29;
  };
  mix(static_cast<uint64_t>(session.questions_asked()));
  mix(static_cast<uint64_t>(session.rounds()));
  mix(static_cast<uint64_t>(session.cache_hits()));
  mix(static_cast<uint64_t>(session.oracle_stats().batched_questions));
  if (session.current_query().has_value()) {
    for (char c : session.current_query()->ToString()) mix(static_cast<uint64_t>(c));
  }
  for (const qhorn::TranscriptEntry& e : session.history()) {
    mix(static_cast<uint64_t>(e.round) * 2 + (e.response ? 1 : 0));
    mix(e.question.tuples().size());
    for (qhorn::Tuple t : e.question.tuples()) mix(t);
  }
  return h;
}

void Fail(PassResult* r, const std::string& why) {
  if (!r->ok) return;
  r->ok = false;
  r->failure = why;
}

void CopyFsCounts(const FsRecord& rec, FsCounts* out) {
  out->appends = rec.appends.load();
  out->append_bytes = rec.append_bytes.load();
  out->syncs = rec.syncs.load();
  out->read_bytes = rec.read_bytes.load();
}

// ---------------------------------------------------------------------------
// The durable fleets: FleetDriver::RunHostile through DurableRouter.

class FleetWorkload : public Workload {
 public:
  explicit FleetWorkload(qhorn::WorkloadSpec spec) : spec_(std::move(spec)) {
    options_.router.threads = kLanes;
    options_.router.resume_mode = kResumeMode;
    options_.router.session = SessionOptions();
    options_.log.fsync_policy = kFsyncPolicy;
    options_.shards = kShards;
  }

  bool Prepare(std::string* failure) override {
    qhorn::Fleet fleet = qhorn::GenerateFleet(spec_);
    reference_ = qhorn::FleetDriver(fleet).RunSynchronous();
    if (!reference_.ok) {
      *failure = "synchronous reference failed: " + reference_.failure;
      return false;
    }
    std::vector<const qhorn::SessionSpec*> learners;
    for (const qhorn::SessionSpec& s : fleet.sessions) {
      for (qhorn::WorkloadJob job : s.jobs) {
        if (job == qhorn::WorkloadJob::kLearn) learners.push_back(&s);
      }
    }
    CountLearnQuestions(learners);
    return true;
  }

  PassResult RunPass(Tracer* tracer, Inject inject) override {
    PassResult r;
    FsRecord fs_rec;
    malloc_trim(0);  // so the parked-memory sample sees fresh pages

    const int64_t t0 = NowNs();
    qhorn::Fleet fleet = qhorn::GenerateFleet(spec_);
    const int64_t t_generated = NowNs();
    qhorn::MemFs mem;
    const std::string dir = "wal";
    TimedFs fs(&mem, tracer, &fs_rec);
    auto endpoint = std::make_unique<qhorn::DurableEndpoint>(&fs, dir, options_);
    const int64_t t_ready = NowNs();
    r.setup_s = Seconds(t_ready - t0);
    r.generate_s = Seconds(t_generated - t0);
    r.sessions = spec_.sessions;
    if (!endpoint->ok()) {
      Fail(&r, "durable endpoint failed to start: " + endpoint->error());
      return r;
    }
    r.resume_mode = qhorn::ToString(endpoint->durable().router().resume_mode());

    qhorn::FleetResult result;
    {
      TimedEndpoint timed(endpoint.get(), tracer, spec_.sessions, &r.ep);
      if (inject == Inject::kRefuseAnswer) timed.RefuseNextAnswer(&fs);
      result = qhorn::FleetDriver(fleet).RunHostile(timed);
    }
    r.wall_s = Seconds(r.ep.end_ns - r.ep.begin_ns - r.ep.excluded_ns);
    r.rounds = r.ep.rounds_accepted;
    r.sweeps = result.sweeps;
    if (!result.ok) Fail(&r, result.failure);
    if (r.ep.failed != 0) {
      Fail(&r, std::to_string(r.ep.failed) + " well-formed operation(s) refused");
    }
    if (!r.ok) {
      CopyFsCounts(fs_rec, &r.fs);
      return r;
    }

    // Output checks: every completed session equals the synchronous arm.
    if (inject == Inject::kCorruptFingerprint) {
      for (std::string& fp : result.fingerprints) {
        if (fp.empty()) continue;
        fp[0] ^= 1;
        break;
      }
    }
    std::string diff =
        qhorn::CompareArmFingerprints(fleet, result, reference_);
    if (!diff.empty()) Fail(&r, "fingerprint mismatch: " + diff);

    r.stats = endpoint->stats();
    r.steals = endpoint->durable().router().executor()->steals();
    r.records = endpoint->durable().records_logged();
    r.sessions_done = result.ok ? spec_.sessions : 0;
    std::vector<std::string> before(fleet.sessions.size());
    for (size_t i = 0; i < fleet.sessions.size(); ++i) {
      qhorn::QuerySession& session = endpoint->session(Id(i));
      before[i] = qhorn::SessionFingerprint(session);
      if (tracer->enabled()) {
        r.eval_s += ReEvaluate(session, fleet.sessions[i].target,
                               !fleet.sessions[i].noisy(), &r);
      }
    }

    // Restart: the router dies, recovery rebuilds it from the final log.
    endpoint.reset();
    std::string error;
    const int64_t t_recover = NowNs();
    std::unique_ptr<qhorn::DurableRouter> recovered;
    {
      Tracer::Scope span(tracer, "durable.recover", 0);
      recovered = qhorn::DurableRouter::Recover(&fs, dir, options_,
                                                &r.recovery, &error);
      if (recovered != nullptr) recovered->Drain();
    }
    r.recover_s = Seconds(NowNs() - t_recover);
    if (recovered == nullptr) {
      Fail(&r, "recovery failed: " + error);
    } else {
      if (r.recovery.torn_tails_truncated != 0) {
        Fail(&r, "recovery found a torn tail in a cleanly written log");
      }
      for (size_t i = 0; i < before.size() && r.ok; ++i) {
        if (qhorn::SessionFingerprint(recovered->session(Id(i))) != before[i]) {
          Fail(&r, "recovered session " + std::to_string(i) +
                       " differs from the session before recovery");
        }
      }
    }
    recovered.reset();
    CopyFsCounts(fs_rec, &r.fs);
    return r;
  }

 private:
  // DurableRouter assigns ids from 1 in open order, which is fleet order.
  static qhorn::DurableRouter::SessionId Id(size_t index) {
    return static_cast<qhorn::DurableRouter::SessionId>(index + 1);
  }

  qhorn::WorkloadSpec spec_;
  qhorn::DurableRouterOptions options_;
  qhorn::FleetResult reference_;
};

// ---------------------------------------------------------------------------
// learn_wide: simulated users on a plain router; learners and evaluation
// do the work.

class LearnWorkload : public Workload {
 public:
  /// `strata` are generated and concatenated into the distinct targets;
  /// session i runs target i mod their count.
  LearnWorkload(std::vector<qhorn::WorkloadSpec> strata, int sessions)
      : strata_(std::move(strata)), sessions_(sessions) {}

  bool Prepare(std::string* failure) override {
    qhorn::Fleet fleet = Generate();
    // The reference: each distinct spec once, on one lane.
    qhorn::SessionRouter::Options options = RouterOptions();
    options.threads = 1;
    qhorn::SessionRouter router(options);
    std::vector<qhorn::SessionRouter::SessionId> ids;
    for (const qhorn::SessionSpec& s : fleet.sessions) {
      ids.push_back(router.OpenSimulated(s.target));
      qhorn::SubmitSpecJobs(router, ids.back(), s);
    }
    router.Drain();
    for (size_t i = 0; i < ids.size(); ++i) {
      reference_.push_back(Digest(router.session(ids[i])));
      const std::optional<qhorn::Query>& learned =
          router.session(ids[i]).current_query();
      if (!learned.has_value() ||
          !qhorn::Equivalent(*learned, fleet.sessions[i].target)) {
        *failure = "reference session " + std::to_string(i) +
                   " did not learn its target";
        return false;
      }
    }
    std::vector<const qhorn::SessionSpec*> learners;
    for (int i = 0; i < sessions_; ++i) {
      learners.push_back(&fleet.sessions[i % fleet.sessions.size()]);
    }
    CountLearnQuestions(learners);
    return true;
  }

  PassResult RunPass(Tracer* tracer, Inject inject) override {
    PassResult r;
    malloc_trim(0);  // so the retained-memory sample sees fresh pages
    const int64_t t0 = NowNs();
    qhorn::Fleet fleet = Generate();
    const int64_t t_generated = NowNs();
    auto router = std::make_unique<qhorn::SessionRouter>(RouterOptions());
    const int64_t t_ready = NowNs();
    r.setup_s = Seconds(t_ready - t0);
    r.generate_s = Seconds(t_generated - t0);
    r.sessions = sessions_;
    r.resume_mode = qhorn::ToString(router->resume_mode());
    const size_t distinct = fleet.sessions.size();

    EndpointRecord& ep = r.ep;
    ep.rss_before = ReadRssBytes();
    ep.begin_ns = NowNs();
    if (tracer->enabled()) ep.begin_cpu_ns = ThreadCpuNs();
    std::vector<qhorn::SessionRouter::SessionId> ids;
    ids.reserve(static_cast<size_t>(sessions_));
    for (int i = 0; i < sessions_; ++i) {
      const qhorn::SessionSpec& s = fleet.sessions[static_cast<size_t>(i) % distinct];
      Tracer::Scope span(tracer, "endpoint.open", 0);
      const int64_t t_open = NowNs();
      qhorn::SessionRouter::SessionId id = router->OpenSimulated(s.target);
      span.set_request(id);
      ++ep.attempted;
      for (qhorn::WorkloadJob job : s.jobs) {
        ++ep.attempted;
        if (!Submit(router.get(), id, s, job)) ++ep.failed;
      }
      ep.open_us.push_back(static_cast<double>(NowNs() - t_open) / 1e3);
      ids.push_back(id);
    }
    {
      Tracer::Scope span(tracer, "endpoint.drain", 0);
      router->Drain();
    }
    ep.end_ns = NowNs();
    if (tracer->enabled()) ep.end_cpu_ns = ThreadCpuNs();
    ep.rss_after = ReadRssBytes();
    r.wall_s = Seconds(ep.end_ns - ep.begin_ns);

    r.stats = router->stats();
    ep.parked_bytes = r.stats.snapshot_bytes;
    r.steals = router->executor()->steals();
    r.rounds = r.stats.rounds;
    r.sweeps = 1;
    if (ep.failed != 0) {
      Fail(&r, std::to_string(ep.failed) + " submission(s) refused");
    }

    // Output checks: each session equals its spec's one-lane reference
    // (so its verify and revise outcomes match too) and learned a query
    // equivalent to its target.
    for (size_t i = 0; i < ids.size(); ++i) {
      if (router->status(ids[i]) != qhorn::SessionStatus::kIdle) {
        Fail(&r, "session " + std::to_string(i) + " did not finish");
        continue;
      }
      ++r.sessions_done;
      qhorn::QuerySession& session = router->session(ids[i]);
      const qhorn::SessionSpec& s = fleet.sessions[i % distinct];
      uint64_t digest = Digest(session);
      if (inject == Inject::kCorruptFingerprint && i == 0) digest ^= 1;
      if (digest != reference_[i % distinct]) {
        Fail(&r, "session " + std::to_string(i) +
                     " differs from its one-lane reference");
      }
      if (!session.current_query().has_value() ||
          !qhorn::Equivalent(*session.current_query(), s.target)) {
        Fail(&r, "session " + std::to_string(i) + " did not learn its target");
      }
      if (tracer->enabled()) {
        r.eval_s += ReEvaluate(session, s.target, /*reliable=*/true, &r);
      }
    }
    return r;
  }

 private:
  qhorn::Fleet Generate() const {
    qhorn::Fleet all;
    for (const qhorn::WorkloadSpec& spec : strata_) {
      qhorn::Fleet part = qhorn::GenerateFleet(spec);
      for (qhorn::SessionSpec& s : part.sessions) all.sessions.push_back(std::move(s));
    }
    return all;
  }

  static qhorn::SessionRouter::Options RouterOptions() {
    qhorn::SessionRouter::Options options;
    options.threads = kLanes;
    options.resume_mode = kResumeMode;
    options.session = SessionOptions();
    return options;
  }

  static bool Submit(qhorn::SessionRouter* router,
                     qhorn::SessionRouter::SessionId id,
                     const qhorn::SessionSpec& s, qhorn::WorkloadJob job) {
    switch (job) {
      case qhorn::WorkloadJob::kLearn:
        return router->SubmitLearn(id);
      case qhorn::WorkloadJob::kVerifyTarget:
        return router->SubmitVerify(id, s.target);
      case qhorn::WorkloadJob::kVerifyMutant:
        return router->SubmitVerify(id, s.mutant);
      case qhorn::WorkloadJob::kRevise:
        return router->SubmitRevise(id, s.mutant);
    }
    return false;
  }

  std::vector<qhorn::WorkloadSpec> strata_;
  int sessions_;
  std::vector<uint64_t> reference_;  ///< digest per distinct spec
};

// ---------------------------------------------------------------------------
// Workload shapes. Every knob is pinned, so the seed alone picks the fleet.

/// E17's MacroSpec shape with the knobs FromSeed would draw fixed at
/// mid-range values: tiny rounds (n 3–5), all three classes, a quarter
/// noisy users, heavy-tailed tick latency, every hostile delivery mode.
qhorn::WorkloadSpec HostileFleetSpec(uint64_t seed, int sessions) {
  qhorn::WorkloadSpec spec;
  spec.seed = seed;
  spec.sessions = sessions;
  spec.lanes = kLanes;
  spec.n_min = 3;
  spec.n_max = 5;
  spec.qhorn1_weight = 1.0;
  spec.rp_existential_weight = 1.0;
  spec.rp_universal_weight = 1.0;
  spec.noisy_fraction = 0.25;
  spec.flip_min = 0.05;
  spec.flip_max = 0.35;
  spec.abandon_fraction = 0.15;
  spec.answer_fraction = 0.6;
  spec.malformed_rate = 0.2;
  spec.duplicate_rate = 0.2;
  spec.latency_alpha = 1.2;
  spec.latency_cap_ticks = 12;
  spec.speculative_batching = false;
  spec.replay_resume = false;
  spec.router_shards = kShards;
  return spec;
}

/// learn_wide's distinct targets per query class. Fewer targets let the
/// draw of queries move the per-seed work by more: 43 per class moved
/// the question count by 4% between seeds, 86 by 2.7%.
constexpr int kLearnTargetsPerClass = 86;

}  // namespace

void Workload::CountLearnQuestions(
    const std::vector<const qhorn::SessionSpec*>& specs) {
  std::map<qhorn::QueryClass, std::pair<int64_t, int64_t>> sums;
  std::map<const qhorn::SessionSpec*, int64_t> memo;
  for (const qhorn::SessionSpec* s : specs) {
    auto it = memo.find(s);
    if (it == memo.end()) {
      qhorn::QueryOracle user(s->target);
      qhorn::QuerySession session(s->n, &user, SessionOptions());
      session.Learn();
      it = memo.emplace(s, session.questions_asked()).first;
    }
    sums[s->query_class].first += it->second;
    ++sums[s->query_class].second;
  }
  for (qhorn::QueryClass c : {qhorn::QueryClass::kQhorn1,
                              qhorn::QueryClass::kRpExistential,
                              qhorn::QueryClass::kRpUniversal}) {
    auto [questions, jobs] = sums[c];
    learn_questions_[c] =
        jobs == 0 ? 0.0 : static_cast<double>(questions) / static_cast<double>(jobs);
  }
}

std::unique_ptr<Workload> MakeWorkload(const WorkloadOptions& o) {
  if (o.name == "fleet_durable") {
    return std::make_unique<FleetWorkload>(HostileFleetSpec(o.seed, o.tiny ? 64 : 4096));
  }
  if (o.name == "churn") {
    qhorn::WorkloadSpec spec = HostileFleetSpec(o.seed, o.tiny ? 128 : 8192);
    spec.abandon_fraction = 1.0;  // every user answers 0–2 rounds, then closes
    return std::make_unique<FleetWorkload>(spec);
  }
  if (o.name == "learn_wide") {
    // The distinct targets are drawn per query class in equal numbers, so
    // the seed varies the queries but not the class mix.
    std::vector<qhorn::WorkloadSpec> strata;
    for (int c = 0; c < 3; ++c) {
      qhorn::WorkloadSpec targets;
      targets.seed = o.seed * 3 + static_cast<uint64_t>(c);
      targets.sessions = o.tiny ? 2 : kLearnTargetsPerClass;
      targets.lanes = kLanes;
      targets.n_min = o.tiny ? 8 : 24;
      targets.n_max = o.tiny ? 10 : 32;
      targets.qhorn1_weight = c == 0 ? 1.0 : 0.0;
      targets.rp_existential_weight = c == 1 ? 1.0 : 0.0;
      targets.rp_universal_weight = c == 2 ? 1.0 : 0.0;
      targets.noisy_fraction = 0.0;
      targets.abandon_fraction = 0.0;
      targets.speculative_batching = false;
      strata.push_back(targets);
    }
    // Two sessions per target, so half the opens hit the compiled cache.
    return std::make_unique<LearnWorkload>(strata,
                                           o.tiny ? 12 : 6 * kLearnTargetsPerClass);
  }
  return nullptr;
}

}  // namespace e2e
