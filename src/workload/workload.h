// Seeded workload generation: heterogeneous, hostile session fleets.
//
// Every suite and bench before this subsystem drove clean, well-behaved
// learn/verify runs; ROADMAP item 5 calls that the scenario-diversity gap.
// A WorkloadSpec is a small parameter block fully determined by one seed;
// GenerateFleet expands it into a fleet of per-session scenarios mixing
//
//   * query classes: qhorn-1 structures (lowered via ToQuery), existential-
//     heavy and universal-heavy role-preserving queries,
//   * schema sizes (n varies per session),
//   * user models: reliable simulated users and noisy users at varying
//     flip rates (seeded — the same session produces the same flip
//     sequence in every run),
//   * job plans: learn, verify of the true target, verify of a near-miss
//     mutant (exercises the discrepancy paths), revision,
//   * abandonment: sessions whose user walks away mid-round (Close while
//     a round is pending).
//
// Everything is a pure function of the seed: two calls with the same spec
// produce element-for-element identical fleets, which is what makes every
// generated scenario a replay-equivalence test (fleet_driver.h) and every
// fuzz failure reproducible from its logged seed alone.
//
// Noisy users only run verification jobs. Verification poses a fixed,
// non-adaptive question set, so arbitrary (even inconsistent) labels
// terminate with a deterministic report; the learners' lattice walks by
// contrast assume a consistent oracle, and feeding them flipped answers
// has no termination guarantee. The generator encodes that boundary
// rather than leaving it to every caller.

#ifndef QHORN_WORKLOAD_WORKLOAD_H_
#define QHORN_WORKLOAD_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/query.h"
#include "src/util/rng.h"

namespace qhorn {

/// Which family a session's hidden target query is drawn from.
enum class QueryClass { kQhorn1, kRpExistential, kRpUniversal };

const char* ToString(QueryClass c);

/// One step of a session's job plan.
enum class WorkloadJob {
  kLearn,         ///< learn the hidden target from membership questions
  kVerifyTarget,  ///< verify the true target (accepts on a reliable user)
  kVerifyMutant,  ///< verify a near-miss candidate (exercises rejection)
  kRevise         ///< revise the mutant toward the target
};

const char* ToString(WorkloadJob j);

/// A fully materialized per-session scenario. `target` answers the user's
/// membership questions; `mutant` is an independently drawn same-n query
/// used as the candidate of verify/revise jobs.
struct SessionSpec {
  QueryClass query_class = QueryClass::kRpUniversal;
  int n = 4;
  Query target;
  Query mutant;
  double flip_rate = 0.0;   ///< > 0: answers pass through a NoisyOracle
  uint64_t noise_seed = 0;  ///< seed of that noise stream
  std::vector<WorkloadJob> jobs;
  bool abandon = false;           ///< Close mid-round instead of completing
  int abandon_after_rounds = 0;   ///< user rounds answered before the Close

  bool noisy() const { return flip_rate > 0.0; }
};

/// Whether a router can run the spec: n in [1, kMaxVars], and every query
/// a job uses (the target for kVerifyTarget, the mutant for kVerifyMutant
/// and kRevise) has arity n. The durable layer refuses anything else
/// before it reaches the log.
bool IsValidSessionSpec(const SessionSpec& spec);

/// The seed-derived knobs of a fleet. Field defaults give a small mixed
/// fleet; FromSeed derives a heterogeneous configuration (fleet size, lane
/// count, schema range, mix fractions, delivery hostility) from one seed,
/// which is the shape the fuzz sweep drives.
struct WorkloadSpec {
  uint64_t seed = 0;

  int sessions = 8;
  int lanes = 4;       ///< router lanes of the concurrent arm
  int n_min = 4;
  int n_max = 6;

  // Session-mix fractions (each drawn independently per session).
  double qhorn1_weight = 1.0;
  double rp_existential_weight = 1.0;
  double rp_universal_weight = 1.0;
  double noisy_fraction = 0.25;
  double flip_min = 0.05;
  double flip_max = 0.5;
  double abandon_fraction = 0.15;

  // Hostile-delivery knobs (consumed by FleetDriver, carried here so one
  // seed pins the whole scenario).
  double answer_fraction = 0.66;  ///< pending rounds answered per sweep
  double malformed_rate = 0.5;    ///< per-sweep garbage-injection chance
  double duplicate_rate = 0.35;   ///< re-deliver an already-answered round
  /// Simulated user latency in scheduler ticks: heavy-tailed draw in
  /// [0, latency_cap_ticks], Pareto-shaped with exponent latency_alpha
  /// (0 disables latency entirely — every round is answerable at once).
  double latency_alpha = 1.0;
  int latency_cap_ticks = 6;

  // Service-configuration knob: it changes the question stream
  // deterministically, so the differential arms must (and do) apply it
  // identically.
  /// Run the rp learner's round-sparing speculation in *every* arm: the
  /// existential walk's always-batch level probes and batched prune
  /// (RpExistentialOptions::speculative_batching) plus the universal
  /// walk's speculative extraction sweep and cross-head bodyless round
  /// (RpUniversalOptions::speculative_batching).
  bool speculative_batching = false;
  /// Not read: there is one resume protocol. Kept so callers that set it
  /// still compile; FromSeed still consumes its draw (see there).
  bool replay_resume = false;

  /// Router shards the hostile arm runs behind (SessionRouter::Options::
  /// shards; 1 is the differential baseline). Drawn from {1, 2, 4, 8} so
  /// the fuzz sweep exercises shard placement and the per-shard polls on
  /// every seed mix; observables must not depend on it (that is the
  /// differential).
  int router_shards = 1;

  /// Derives a heterogeneous spec from one seed (the fuzz entry point).
  static WorkloadSpec FromSeed(uint64_t seed);

  /// The one-flag repro line every failure message must carry.
  std::string ReproLine() const;
};

/// A deterministic fleet: the spec plus one SessionSpec per session.
struct Fleet {
  WorkloadSpec spec;
  std::vector<SessionSpec> sessions;
};

/// Expands the spec into its fleet. Pure function of `spec` (two calls
/// yield identical fleets, including every Query and every seed).
Fleet GenerateFleet(const WorkloadSpec& spec);

}  // namespace qhorn

#endif  // QHORN_WORKLOAD_WORKLOAD_H_
