// Clocks, spans and sample statistics for the end-to-end benchmark.
//
// Every number the benchmark reports is taken from outside the service:
// the decorators in decorators.h bracket each call into a layer's public
// functions with steady-clock reads. Untraced runs keep only the latency
// samples the end-to-end metrics need. Traced runs additionally record one
// Span per decorated call, parented to the enclosing span on the same
// thread, and keep them in memory until the run writes them out.

#ifndef E2EBENCH_TRACE_H_
#define E2EBENCH_TRACE_H_

#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace e2e {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time consumed by the calling thread.
inline int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

/// Nearest-rank percentile of `v` (sorted in place); 0 for no samples.
inline double Percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(p / 100.0 * static_cast<double>(v.size()));
  return v[std::min(rank, v.size() - 1)];
}

inline double Median(std::vector<double> v) { return Percentile(v, 50.0); }

struct Span {
  int64_t id = 0;
  int64_t parent = 0;    ///< 0 = top level on its thread
  const char* name = "";  ///< "<layer>.<call>", a string literal
  int64_t request = 0;   ///< session id the call concerns, 0 if none
  int64_t thread = 0;    ///< small per-thread index
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t cpu_ns = 0;    ///< thread CPU inside a top-level span
};

/// Per-name totals over a set of spans. `busy_ns` is inclusive time;
/// `self_ns` subtracts the time covered by direct children.
struct SpanTotals {
  int64_t count = 0;
  int64_t busy_ns = 0;
  int64_t self_ns = 0;
};

/// Records spans when enabled; every method is a no-op otherwise, so the
/// untraced runs pay one branch per decorated call.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// RAII span. Top-level spans also sample the thread's CPU clock, which
  /// is how the driver's own time between calls is measured.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, int64_t request)
        : tracer_(tracer->enabled_ ? tracer : nullptr) {
      if (tracer_ == nullptr) return;
      span_.name = name;
      span_.parent = current_;
      // A nested span (an Fs call inside an endpoint call) belongs to the
      // request of the call that caused it.
      saved_request_ = request_;
      span_.request = request != 0 || span_.parent == 0 ? request : request_;
      request_ = span_.request;
      span_.thread = ThreadIndex();
      span_.id = tracer_->NextId();
      current_ = span_.id;
      if (span_.parent == 0) span_.cpu_ns = ThreadCpuNs();
      span_.start_ns = NowNs();
    }
    ~Scope() {
      if (tracer_ == nullptr) return;
      span_.end_ns = NowNs();
      if (span_.parent == 0) span_.cpu_ns = ThreadCpuNs() - span_.cpu_ns;
      current_ = span_.parent;
      request_ = saved_request_;
      tracer_->Record(span_);
    }
    /// For calls whose request id is their result (an open).
    void set_request(int64_t request) {
      span_.request = request;
      if (tracer_ != nullptr) request_ = request;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    Span span_;
    int64_t saved_request_ = 0;
  };

  /// Moves out every span recorded so far. A span recorded before its
  /// request id was known (an Fs call inside an open) takes its parent's.
  std::vector<Span> Take() {
    std::vector<Span> spans;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      spans = std::move(spans_);
    }
    std::unordered_map<int64_t, int64_t> request_of;
    for (const Span& s : spans) request_of[s.id] = s.request;
    for (Span& s : spans) {
      if (s.request == 0 && s.parent != 0) s.request = request_of[s.parent];
    }
    return spans;
  }

  /// Totals per span name, restricted to spans starting in [from, to).
  static std::map<std::string, SpanTotals> Totals(const std::vector<Span>& spans,
                                                  int64_t from, int64_t to) {
    std::map<int64_t, int64_t> child_ns;  // parent id -> covered time
    for (const Span& s : spans) {
      if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
    }
    std::map<std::string, SpanTotals> totals;
    for (const Span& s : spans) {
      if (s.start_ns < from || s.start_ns >= to) continue;
      SpanTotals& t = totals[s.name];
      ++t.count;
      t.busy_ns += s.end_ns - s.start_ns;
      auto it = child_ns.find(s.id);
      t.self_ns += s.end_ns - s.start_ns - (it == child_ns.end() ? 0 : it->second);
    }
    return totals;
  }

 private:
  int64_t NextId() {
    std::lock_guard<std::mutex> lock(mutex_);
    return ++last_id_;
  }
  void Record(const Span& span) {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(span);
  }
  static int64_t ThreadIndex() {
    static std::atomic<int64_t> next{0};
    thread_local int64_t index = ++next;
    return index;
  }

  const bool enabled_;
  std::mutex mutex_;
  int64_t last_id_ = 0;
  std::vector<Span> spans_;
  static thread_local int64_t current_;  ///< innermost open span
  static thread_local int64_t request_;  ///< … and its request id
};

inline thread_local int64_t Tracer::current_ = 0;
inline thread_local int64_t Tracer::request_ = 0;

}  // namespace e2e

#endif  // E2EBENCH_TRACE_H_
