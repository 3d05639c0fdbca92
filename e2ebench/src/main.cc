// E19 — the end-to-end service benchmark.
//
//   e2e_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--work-dir <dir>] [--tiny] [--inject <fault>]
//
// Runs one workload (workloads.h) from a single driver thread against the
// public service API: an untimed reference arm, one untimed warm-up pass,
// then timed passes until --seconds have elapsed. Untraced runs report the
// end-to-end metrics; traced runs alternate untraced and traced passes and
// report the per-layer metrics, the tracing overhead, and write the last
// traced pass's spans to the work directory. Human-readable lines start
// with '#'; the last line is one JSON object. Exit code 0 iff every output
// check passed.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "e2ebench/src/trace.h"
#include "e2ebench/src/workloads.h"
#include "src/core/compiled_query.h"

#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif
#ifndef E2E_COMPILER
#define E2E_COMPILER "unknown"
#endif

namespace e2e {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 11;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".";
  bool tiny = false;
  Inject inject = Inject::kNone;
};

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "e2e_bench: %s\nusage: e2e_bench --workload <name> [--seed n] "
               "[--seconds s] [--trace 0|1] [--work-dir dir] [--tiny] "
               "[--inject corrupt-fingerprint|refuse-answer]\n",
               why.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--workload") {
      a.workload = value();
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::atof(value().c_str());
    } else if (flag == "--trace") {
      a.trace = value() == "1";
    } else if (flag == "--work-dir") {
      a.work_dir = value();
    } else if (flag == "--tiny") {
      a.tiny = true;
    } else if (flag == "--inject") {
      std::string v = value();
      if (v == "corrupt-fingerprint") {
        a.inject = Inject::kCorruptFingerprint;
      } else if (v == "refuse-answer") {
        a.inject = Inject::kRefuseAnswer;
      } else {
        Usage("unknown fault " + v);
      }
    } else {
      Usage("unknown argument " + flag);
    }
  }
  if (a.workload.empty()) Usage("--workload is required");
  if (!(a.seconds > 0)) Usage("--seconds must be positive");
  return a;
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  int64_t samples = 0;  ///< latency samples, or passes for a median
};

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

/// Median over passes of one per-pass quantity.
double MedianOf(const std::vector<PassResult>& passes,
                const std::function<double(const PassResult&)>& f) {
  std::vector<double> v;
  for (const PassResult& p : passes) v.push_back(f(p));
  return Median(v);
}

/// All samples of one latency over the passes, pooled.
std::vector<double> Pool(const std::vector<PassResult>& passes,
                         std::vector<double> EndpointRecord::*field) {
  std::vector<double> all;
  for (const PassResult& p : passes) {
    all.insert(all.end(), (p.ep.*field).begin(), (p.ep.*field).end());
  }
  return all;
}

/// The gated end-to-end metrics: the ones every workload has.
std::vector<Metric> EndToEnd(const std::vector<PassResult>& u) {
  const auto n = static_cast<int64_t>(u.size());
  std::vector<double> open = Pool(u, &EndpointRecord::open_us);
  const auto opens = static_cast<int64_t>(open.size());
  return {
      {"rounds_per_s",
       MedianOf(u, [](const PassResult& p) { return Ratio(p.rounds, p.wall_s); }),
       "1/s", n},
      {"sessions_per_s",
       MedianOf(u, [](const PassResult& p) { return Ratio(p.sessions_done, p.wall_s); }),
       "1/s", n},
      {"open_p50_us", Percentile(open, 50), "us", opens},
      {"open_p99_us", Percentile(open, 99), "us", opens},
      {"setup_s", MedianOf(u, [](const PassResult& p) { return p.setup_s; }), "s", n},
      {"parked_kib_per_session",
       MedianOf(u,
                [](const PassResult& p) {
                  return Ratio(static_cast<double>(p.ep.rss_after - p.ep.rss_before) / 1024.0,
                               p.sessions);
                }),
       "KiB", n},
      {"questions_per_session",
       MedianOf(u, [](const PassResult& p) { return Ratio(p.stats.questions, p.sessions); }),
       "count", n},
      {"rounds_per_session",
       MedianOf(u, [](const PassResult& p) { return Ratio(p.stats.rounds, p.sessions); }),
       "count", n},
  };
}

/// End-to-end metrics only the pending-protocol workloads have; printed,
/// not gated (see README.md).
std::vector<Metric> PendingOnly(const std::vector<PassResult>& u) {
  const auto n = static_cast<int64_t>(u.size());
  std::vector<double> ack = Pool(u, &EndpointRecord::ack_us);
  std::vector<double> turn = Pool(u, &EndpointRecord::turnaround_us);
  const auto acks = static_cast<int64_t>(ack.size());
  const auto turns = static_cast<int64_t>(turn.size());
  return {
      {"ack_p50_us", Percentile(ack, 50), "us", acks},
      {"ack_p99_us", Percentile(ack, 99), "us", acks},
      {"turnaround_p50_us", Percentile(turn, 50), "us", turns},
      {"turnaround_p99_us", Percentile(turn, 99), "us", turns},
      {"recover_s", MedianOf(u, [](const PassResult& p) { return p.recover_s; }), "s", n},
  };
}

/// Per-layer values of one traced pass (Metric::samples unused).
std::vector<Metric> Layers(const PassResult& p, const Workload& w) {
  const EndpointRecord& ep = p.ep;
  const auto window = Tracer::Totals(p.spans, ep.begin_ns, ep.end_ns + 1);
  const auto all = Tracer::Totals(p.spans, INT64_MIN, INT64_MAX);
  auto busy = [](const std::map<std::string, SpanTotals>& t, const char* name) {
    auto it = t.find(name);
    return it == t.end() ? 0.0 : static_cast<double>(it->second.busy_ns) / 1e9;
  };
  auto self = [&](const char* prefix) {
    int64_t ns = 0;
    for (const auto& [name, t] : window) {
      if (name.rfind(prefix, 0) == 0) ns += t.self_ns;
    }
    return static_cast<double>(ns) / 1e9;
  };
  // The driver thread's top-level calls inside the timed phase, and its
  // CPU time outside them.
  int64_t top_busy_ns = 0;
  int64_t top_cpu_ns = 0;
  int64_t driver_thread = -1;
  for (const Span& s : p.spans) {
    if (s.parent != 0 || s.start_ns < ep.begin_ns || s.start_ns > ep.end_ns) continue;
    if (driver_thread < 0) driver_thread = s.thread;
    if (s.thread != driver_thread) continue;
    top_busy_ns += s.end_ns - s.start_ns;
    top_cpu_ns += s.cpu_ns;
  }
  const double driver_self_s =
      static_cast<double>(ep.end_cpu_ns - ep.begin_cpu_ns - top_cpu_ns) / 1e9;
  const double phase_s = static_cast<double>(ep.end_ns - ep.begin_ns) / 1e9;
  const qhorn::ServiceStats& st = p.stats;
  const auto& lq = w.learn_questions();
  auto count = [](int64_t v) { return static_cast<double>(v); };
  return {
      {"fs.appends", count(p.fs.appends), "count"},
      {"fs.append_bytes", count(p.fs.append_bytes), "bytes"},
      {"fs.append_busy_s", busy(all, "fs.append"), "s"},
      {"fs.syncs", count(p.fs.syncs), "count"},
      {"fs.sync_busy_s", busy(all, "fs.sync"), "s"},
      {"fs.read_bytes", count(p.fs.read_bytes), "bytes"},
      {"fs.read_busy_s", busy(all, "fs.read"), "s"},
      {"durable.log_bytes_per_round", Ratio(p.fs.append_bytes, p.rounds), "bytes/round"},
      {"durable.open_busy_s", busy(window, "endpoint.open"), "s"},
      {"durable.provide_busy_s", busy(window, "endpoint.provide"), "s"},
      {"durable.close_busy_s", busy(window, "endpoint.close"), "s"},
      {"durable.poll_busy_s", busy(window, "endpoint.poll"), "s"},
      {"durable.poll_rounds", count(ep.poll_rounds), "count"},
      {"durable.drain_wait_s", busy(window, "endpoint.drain"), "s"},
      {"durable.records", count(p.records), "count"},
      {"durable.recover.records_read", count(p.recovery.records_read), "count"},
      {"durable.recover.rounds_replayed", count(p.recovery.rounds_replayed), "count"},
      {"durable.recover.torn_tails", count(p.recovery.torn_tails_truncated), "count"},
      {"session.rounds", count(st.rounds), "count"},
      {"session.questions", count(st.questions), "count"},
      {"session.questions_per_round", Ratio(st.questions, st.rounds), "count"},
      {"session.suspensions", count(st.suspensions), "count"},
      {"session.replayed_questions", count(st.replayed_questions), "count"},
      {"session.parked_bytes", count(ep.parked_bytes), "bytes"},
      {"session.question_cache_hit_ratio",
       Ratio(st.cache_hits, st.cache_hits + st.questions), "ratio"},
      {"session.compiled_hit_ratio",
       Ratio(st.compiled_hits, st.compiled_hits + st.compiled_misses), "ratio"},
      {"session.rounds_at_cutover", count(p.rounds_at_cutover), "count"},
      {"executor.steals", count(p.steals), "count"},
      {"core.eval_busy_s", p.eval_s, "s"},
      {"learn.questions.qhorn1", lq.at(qhorn::QueryClass::kQhorn1), "count"},
      {"learn.questions.rp_existential", lq.at(qhorn::QueryClass::kRpExistential), "count"},
      {"learn.questions.rp_universal", lq.at(qhorn::QueryClass::kRpUniversal), "count"},
      {"workload.generate_s", p.generate_s, "s"},
      {"workload.driver_self_s", driver_self_s, "s"},
      {"workload.sweeps", count(p.sweeps), "count"},
      {"trace.self.endpoint_s", self("endpoint."), "s"},
      {"trace.self.fs_s", self("fs."), "s"},
      {"trace.accounted_share",
       Ratio(static_cast<double>(top_busy_ns) / 1e9 + driver_self_s, phase_s), "ratio"},
      {"trace.spans", count(static_cast<int64_t>(p.spans.size())), "count"},
  };
}

void WriteSpans(const std::string& path, const std::vector<Span>& spans,
                int64_t origin_ns) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  for (const Span& s : spans) {
    std::fprintf(f,
                 "{\"id\": %lld, \"parent\": %lld, \"name\": \"%s\", "
                 "\"request\": %lld, \"thread\": %lld, \"start_ns\": %lld, "
                 "\"end_ns\": %lld}\n",
                 static_cast<long long>(s.id), static_cast<long long>(s.parent),
                 s.name, static_cast<long long>(s.request),
                 static_cast<long long>(s.thread),
                 static_cast<long long>(s.start_ns - origin_ns),
                 static_cast<long long>(s.end_ns - origin_ns));
  }
  std::fclose(f);
}

void PrintMetric(const Metric& m) {
  std::printf("# metric %-34s %14.4f %-6s n=%lld\n", m.name.c_str(), m.value,
              m.unit.c_str(), static_cast<long long>(m.samples));
}

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string json = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

int Run(const Args& args) {
  if (std::strcmp(E2E_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "e2e_bench: refusing a %s build; build Release\n",
                 E2E_BUILD_TYPE);
    return 2;
  }
  std::filesystem::create_directories(args.work_dir);
  WorkloadOptions options{args.workload, args.seed, args.tiny};
  std::unique_ptr<Workload> workload = MakeWorkload(options);
  if (workload == nullptr) Usage("unknown workload " + args.workload);

  std::string failure;
  bool correct = workload->Prepare(&failure);
  PassResult warm;
  if (correct) {
    Tracer off(false);
    warm = workload->RunPass(&off, Inject::kNone);
    correct = warm.ok;
    failure = warm.failure;
  }
  std::printf(
      "# config workload=%s seed=%llu nproc=%u simd=%s compiler=%s build=%s "
      "resume=%s lanes=%d shards=%d fsync=every-append trace=%d\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      std::thread::hardware_concurrency(), qhorn::CompiledQuery::SimdBackend(),
      E2E_COMPILER, E2E_BUILD_TYPE, warm.resume_mode.c_str(), kLanes, kShards,
      args.trace ? 1 : 0);

  std::vector<PassResult> untraced;
  std::vector<std::vector<Metric>> layers;
  std::vector<double> traced_wall;
  std::vector<Span> last_spans;
  int64_t last_origin = 0;
  int64_t attempted = 0;
  int64_t failed = 0;
  const auto deadline =
      NowNs() + static_cast<int64_t>(args.seconds * 1e9);
  for (int pass = 0; correct; ++pass) {
    const bool traced = args.trace && pass % 2 == 1;
    Tracer tracer(traced);
    PassResult r = workload->RunPass(&tracer, args.inject);
    attempted += r.ep.attempted;
    failed += r.ep.failed;
    std::printf("# pass %d%s wall_s=%.4f setup_s=%.4f recover_s=%.4f rounds=%lld\n",
                pass, traced ? " traced" : "", r.wall_s, r.setup_s, r.recover_s,
                static_cast<long long>(r.rounds));
    if (!r.ok) {
      correct = false;
      failure = r.failure;
      break;
    }
    if (traced) {
      r.spans = tracer.Take();
      layers.push_back(Layers(r, *workload));
      traced_wall.push_back(r.wall_s);
      last_spans = std::move(r.spans);
      last_origin = r.ep.begin_ns;
    } else {
      untraced.push_back(std::move(r));
    }
    const bool enough = !args.trace || (!layers.empty() && !untraced.empty());
    if (NowNs() >= deadline && enough) break;
  }
  if (!correct) {
    std::printf("# FAILED: %s\n", failure.c_str());
    PrintResult(false, std::max<int64_t>(attempted, 1), failed, {});
    return 1;
  }

  std::printf("# passes untraced=%zu traced=%zu\n", untraced.size(), layers.size());
  std::vector<Metric> result;
  if (!args.trace) {
    result = EndToEnd(untraced);
    for (const Metric& m : result) PrintMetric(m);
    if (args.workload != "learn_wide") {
      for (const Metric& m : PendingOnly(untraced)) PrintMetric(m);
    }
    int64_t rejections = 0;
    for (const PassResult& p : untraced) rejections += p.ep.expected_rejections;
    std::printf("# metric %-34s %14.6f %-6s n=%lld\n", "error_rate",
                Ratio(failed, attempted), "ratio", static_cast<long long>(attempted));
    std::printf("# expected_rejections %lld (injected malformed and duplicate "
                "replies, all rejected)\n",
                static_cast<long long>(rejections));
  } else {
    for (size_t i = 0; i < layers.front().size(); ++i) {
      std::vector<double> values;
      for (const auto& pass : layers) values.push_back(pass[i].value);
      result.push_back({layers.front()[i].name, Median(values), layers.front()[i].unit,
                        static_cast<int64_t>(values.size())});
    }
    const double plain = MedianOf(untraced, [](const PassResult& p) { return p.wall_s; });
    const double overhead = Median(traced_wall) - plain;
    const auto n = static_cast<int64_t>(traced_wall.size());
    result.push_back({"trace.overhead_s", overhead, "s", n});
    result.push_back({"trace.overhead_share", Ratio(overhead, plain), "ratio", n});
    for (const Metric& m : result) PrintMetric(m);
    const std::string path = args.work_dir + "/spans-" + args.workload + "-" +
                             std::to_string(args.seed) + ".jsonl";
    WriteSpans(path, last_spans, last_origin);
    std::printf("# spans of the last traced pass: %s\n", path.c_str());
  }
  PrintResult(true, attempted, failed, result);
  return 0;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) { return e2e::Run(e2e::ParseArgs(argc, argv)); }
