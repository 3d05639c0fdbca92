// The benchmark's three workloads and what one pass of each measures.
//
// A pass is one complete run of a workload's traffic: set-up, the timed
// phase (first open to the end of the traffic), the output checks and,
// for the durable workloads, a recovery from the pass's final log. main.cc
// repeats passes for the requested time and reports medians.

#ifndef E2EBENCH_WORKLOADS_H_
#define E2EBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "e2ebench/src/decorators.h"
#include "e2ebench/src/trace.h"
#include "src/durable/durable_router.h"
#include "src/session/router.h"
#include "src/workload/workload.h"

namespace e2e {

/// The service configuration every workload runs under, pinned here so
/// QHORN_THREADS and QHORN_RESUME_MODE cannot change what is measured.
/// Three lanes plus the driver thread fill a 4-core machine.
inline constexpr int kLanes = 3;
inline constexpr int kShards = 4;
inline constexpr qhorn::ResumeMode kResumeMode = qhorn::ResumeMode::kFiber;
inline constexpr qhorn::FsyncPolicy kFsyncPolicy =
    qhorn::FsyncPolicy::kEveryAppend;

/// Faults the self-test injects to prove the checks catch them.
enum class Inject { kNone, kCorruptFingerprint, kRefuseAnswer };

/// The Fs counters of one pass, copied out of the atomics.
struct FsCounts {
  int64_t appends = 0;
  int64_t append_bytes = 0;
  int64_t syncs = 0;
  int64_t read_bytes = 0;
};

struct PassResult {
  bool ok = true;
  std::string failure;  ///< first failed check

  double setup_s = 0;     ///< fleet generation + router and log creation
  double generate_s = 0;  ///< … of which fleet generation
  double wall_s = 0;      ///< the timed phase, benchmark-only work removed
  double recover_s = 0;   ///< Recover + Drain over the final log
  double eval_s = 0;      ///< history re-evaluation through CompiledQuery

  int64_t sessions = 0;
  int64_t sessions_done = 0;  ///< idle or closed at the end
  int64_t rounds = 0;         ///< accepted answers (fleets) or user rounds
  int64_t sweeps = 0;
  int64_t rounds_at_cutover = 0;  ///< rounds of ≥ kParallelRoundCutover

  EndpointRecord ep;
  FsCounts fs;
  qhorn::ServiceStats stats;
  int64_t steals = 0;
  int64_t records = 0;
  qhorn::RecoveryReport recovery;
  std::string resume_mode;

  std::vector<Span> spans;  ///< traced passes only
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Runs the untimed reference arm the passes are checked against.
  virtual bool Prepare(std::string* failure) = 0;

  virtual PassResult RunPass(Tracer* tracer, Inject inject) = 0;

  /// Mean questions per learn job, per query class (the paper's cost
  /// measure), from the reference arm. Classes without a learn job are 0.
  const std::map<qhorn::QueryClass, double>& learn_questions() const {
    return learn_questions_;
  }

 protected:
  /// Learns each spec's target on a plain synchronous session and
  /// averages the questions per class, one learn job per listed spec.
  void CountLearnQuestions(const std::vector<const qhorn::SessionSpec*>& specs);

  std::map<qhorn::QueryClass, double> learn_questions_;
};

struct WorkloadOptions {
  std::string name;
  uint64_t seed = 11;
  bool tiny = false;  ///< self-test sizes
};

/// The named workload, or null for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const WorkloadOptions& options);

}  // namespace e2e

#endif  // E2EBENCH_WORKLOADS_H_
