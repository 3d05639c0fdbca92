#include "src/workload/workload.h"

#include <algorithm>

#include "src/core/random_query.h"
#include "src/util/check.h"

namespace qhorn {
namespace {

// SplitMix64 finalizer: decorrelates per-session streams however the
// caller picked the fleet seed (consecutive seeds included — the fuzz
// sweep walks a contiguous range).
uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t z = a + 0x9e3779b97f4a7c15ULL * (b + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

QueryClass PickClass(const WorkloadSpec& spec, Rng& rng) {
  double w1 = std::max(0.0, spec.qhorn1_weight);
  double w2 = std::max(0.0, spec.rp_existential_weight);
  double w3 = std::max(0.0, spec.rp_universal_weight);
  double total = w1 + w2 + w3;
  QHORN_CHECK_MSG(total > 0.0, "all query-class weights are zero");
  double u = rng.Uniform() * total;
  if (u < w1) return QueryClass::kQhorn1;
  if (u < w1 + w2) return QueryClass::kRpExistential;
  return QueryClass::kRpUniversal;
}

Query DrawTarget(QueryClass c, int n, Rng& rng) {
  switch (c) {
    case QueryClass::kQhorn1: {
      Qhorn1Options opts;
      opts.max_part_size = std::min(4, n);
      return RandomQhorn1(n, rng, opts).ToQuery();
    }
    case QueryClass::kRpExistential: {
      RpOptions opts;
      opts.num_heads = 0;
      opts.num_conjunctions = static_cast<int>(rng.Range(1, 3));
      opts.conj_size_max = std::min(3, n);
      return RandomRolePreserving(n, rng, opts);
    }
    case QueryClass::kRpUniversal: {
      RpOptions opts;
      opts.num_heads = static_cast<int>(rng.Range(1, std::min(2, n)));
      opts.theta = static_cast<int>(rng.Range(1, 2));
      opts.body_size = 2;
      opts.bodyless_prob = 0.2;
      opts.num_conjunctions = static_cast<int>(rng.Range(0, 1));
      opts.conj_size_max = std::min(3, n);
      return RandomRolePreserving(n, rng, opts);
    }
  }
  QHORN_CHECK(false);
}

std::vector<WorkloadJob> DrawJobs(const SessionSpec& s, Rng& rng) {
  std::vector<WorkloadJob> jobs;
  if (s.noisy()) {
    // Noisy users run only the fixed-question-set verification jobs (see
    // the header contract): arbitrary labels terminate deterministically.
    jobs.push_back(rng.Chance(0.5) ? WorkloadJob::kVerifyTarget
                                   : WorkloadJob::kVerifyMutant);
    if (rng.Chance(0.4)) {
      jobs.push_back(rng.Chance(0.5) ? WorkloadJob::kVerifyTarget
                                     : WorkloadJob::kVerifyMutant);
    }
    return jobs;
  }
  jobs.push_back(WorkloadJob::kLearn);
  if (rng.Chance(0.5)) {
    switch (rng.Range(0, 2)) {
      case 0:
        jobs.push_back(WorkloadJob::kVerifyTarget);
        break;
      case 1:
        jobs.push_back(WorkloadJob::kVerifyMutant);
        break;
      default:
        jobs.push_back(WorkloadJob::kRevise);
        break;
    }
    if (rng.Chance(0.25)) jobs.push_back(WorkloadJob::kVerifyTarget);
  }
  return jobs;
}

}  // namespace

const char* ToString(QueryClass c) {
  switch (c) {
    case QueryClass::kQhorn1:
      return "qhorn1";
    case QueryClass::kRpExistential:
      return "rp-existential";
    case QueryClass::kRpUniversal:
      return "rp-universal";
  }
  return "?";
}

const char* ToString(WorkloadJob j) {
  switch (j) {
    case WorkloadJob::kLearn:
      return "learn";
    case WorkloadJob::kVerifyTarget:
      return "verify-target";
    case WorkloadJob::kVerifyMutant:
      return "verify-mutant";
    case WorkloadJob::kRevise:
      return "revise";
  }
  return "?";
}

bool IsValidSessionSpec(const SessionSpec& spec) {
  if (spec.n < 1 || spec.n > kMaxVars) return false;
  for (WorkloadJob job : spec.jobs) {
    switch (job) {
      case WorkloadJob::kLearn:
        break;
      case WorkloadJob::kVerifyTarget:
        if (spec.target.n() != spec.n) return false;
        break;
      case WorkloadJob::kVerifyMutant:
      case WorkloadJob::kRevise:
        if (spec.mutant.n() != spec.n) return false;
        break;
    }
  }
  return true;
}

WorkloadSpec WorkloadSpec::FromSeed(uint64_t seed) {
  Rng rng(Mix(seed, 0x5eedULL));
  WorkloadSpec spec;
  spec.seed = seed;
  spec.sessions = static_cast<int>(rng.Range(5, 12));
  spec.lanes = static_cast<int>(rng.Range(2, 5));
  spec.n_min = static_cast<int>(rng.Range(3, 5));
  spec.n_max = std::min(7, spec.n_min + static_cast<int>(rng.Range(0, 2)));
  spec.qhorn1_weight = 0.2 + rng.Uniform();
  spec.rp_existential_weight = 0.2 + rng.Uniform();
  spec.rp_universal_weight = 0.2 + rng.Uniform();
  spec.noisy_fraction = rng.Uniform() * 0.5;
  spec.flip_min = 0.05;
  spec.flip_max = 0.05 + rng.Uniform() * 0.6;
  spec.abandon_fraction = rng.Uniform() * 0.3;
  spec.answer_fraction = 0.4 + rng.Uniform() * 0.6;
  spec.malformed_rate = rng.Uniform() * 0.8;
  spec.duplicate_rate = rng.Uniform() * 0.6;
  spec.latency_alpha = 0.5 + rng.Uniform();
  spec.latency_cap_ticks = static_cast<int>(rng.Range(0, 8));
  // PR 8 knobs, drawn last so every earlier field (and hence every fleet
  // generated from the same seed before these existed) is unchanged.
  spec.speculative_batching = rng.Chance(0.5);
  // The retired replay_resume draw: still consumed, so every seed keeps
  // the router_shards (and anything drawn later) it always had.
  (void)rng.Chance(0.25);
  // PR 9 knob, drawn after the PR 8 pair for the same stability reason.
  spec.router_shards = 1 << static_cast<int>(rng.Range(0, 3));
  return spec;
}

std::string WorkloadSpec::ReproLine() const {
  return "repro: tools/workload_repro.py --seed=" + std::to_string(seed);
}

Fleet GenerateFleet(const WorkloadSpec& spec) {
  QHORN_CHECK(spec.sessions >= 1);
  QHORN_CHECK(spec.n_min >= 2 && spec.n_min <= spec.n_max &&
              spec.n_max <= kMaxVars);
  Fleet fleet;
  fleet.spec = spec;
  fleet.sessions.reserve(static_cast<size_t>(spec.sessions));
  for (int i = 0; i < spec.sessions; ++i) {
    // One independent stream per session: a fleet is the same fleet
    // whether sessions are generated eagerly or on demand.
    Rng rng(Mix(spec.seed, static_cast<uint64_t>(i)));
    SessionSpec s;
    s.query_class = PickClass(spec, rng);
    s.n = static_cast<int>(rng.Range(spec.n_min, spec.n_max));
    s.target = DrawTarget(s.query_class, s.n, rng);
    s.mutant = DrawTarget(s.query_class, s.n, rng);
    if (rng.Chance(spec.noisy_fraction)) {
      s.flip_rate =
          spec.flip_min + rng.Uniform() * (spec.flip_max - spec.flip_min);
      s.noise_seed = rng.Next();
    }
    s.jobs = DrawJobs(s, rng);
    if (rng.Chance(spec.abandon_fraction)) {
      s.abandon = true;
      s.abandon_after_rounds = static_cast<int>(rng.Range(0, 2));
    }
    fleet.sessions.push_back(std::move(s));
  }
  return fleet;
}

}  // namespace qhorn
