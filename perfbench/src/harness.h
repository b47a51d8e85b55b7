// Shared pieces of the SuccinctEdge benchmark: command-line options,
// latency samples, pass/fail tallies, the in-memory span tracer, the
// metric report, oracle isolation in a child process, and the
// environment record printed with every result.
//
// The benchmark drives the engine only through its public surfaces
// (Database, serve::QueryService, ShardedDatabase, the sparql/store/sds
// read APIs and the obs::MetricsRegistry series). Spans are recorded
// here, around the benchmark's own calls into each module — never inside
// the engine.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "util/mutex.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double MillisSince(Clock::time_point t0) {
  return SecondsSince(t0) * 1e3;
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test size: small datasets, one set-up, short windows.
  bool tiny = false;
  /// Self-test hook: perturbs one expected answer so the check must
  /// report a failed operation.
  bool corrupt_expected = false;
  std::string out_dir = ".bench_out";
};

/// Seeds of the independent generators, all derived from --seed.
inline uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Latency or size samples with order statistics.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  /// Quantile q in [0, 1], interpolated between closest ranks; 0 when
  /// empty.
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }
  double Max() const;
  double Sum() const;
  double Mean() const { return empty() ? 0.0 : Sum() / size(); }

 private:
  std::vector<double> values_;
};

/// Operations attempted and failed. A rejected request, an answer that
/// differs from its oracle and a failed write each count as one failure.
class Tally {
 public:
  void Ok() { attempted_.fetch_add(1, std::memory_order_relaxed); }
  void Fail(const std::string& what);
  /// Records one attempt whose answer must equal `expected`.
  void Check(uint64_t got, uint64_t expected, const std::string& what);
  uint64_t attempted() const { return attempted_.load(); }
  uint64_t failed() const { return failed_.load(); }

 private:
  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
};

/// In-memory span tracer. Spans carry a name ("<layer>.<operation>"),
/// start, end, parent span and request id; they are written out once, at
/// exit. Disabled, a span costs one relaxed load.
class Tracer {
 public:
  struct Record {
    uint64_t id;
    uint64_t parent;
    uint64_t request;
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
  };

  static Tracer& Get();

  void set_enabled(bool on) { enabled_.store(on); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  uint64_t NewRequest() { return next_request_.fetch_add(1) + 1; }

  /// RAII span. `request` 0 inherits the enclosing span's request.
  class Span {
   public:
    explicit Span(const char* name, uint64_t request = 0);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    bool active_ = false;
    Record rec_{};
    uint64_t saved_parent_ = 0;
    uint64_t saved_request_ = 0;
  };

  size_t size() const;
  /// Distinct request ids seen.
  size_t requests() const;
  /// Self time per layer (name prefix before '.') in seconds: each span's
  /// duration minus the part of it its child spans cover.
  std::map<std::string, double> SelfSecondsByLayer() const;
  /// One JSON object per line.
  bool WriteJsonl(const std::string& path) const;

 private:
  Tracer() = default;
  void Push(const Record& rec);

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{0};
  std::atomic<uint64_t> next_request_{0};
  const Clock::time_point epoch_ = Clock::now();
  mutable sedge::util::Mutex mu_;
  std::vector<Record> records_ SEDGE_GUARDED_BY(mu_);

  friend class Span;
};

using Span = Tracer::Span;

/// Metric values by name; units come from the catalog in main.cc.
using Values = std::map<std::string, double>;

/// Runs `fn` in a forked child and returns the numbers it produced, so
/// oracle data structures never count toward the parent's peak memory.
/// Call only while no other thread of this process runs engine work.
/// Returns false when the child failed.
bool RunInChild(const std::function<std::vector<uint64_t>()>& fn,
                std::vector<uint64_t>* out);

/// Peak resident set size of this process in MiB.
double PeakRssMb();

/// Histogram readers over a registry; 0 when the series is absent.
double HistQuantileMs(const sedge::obs::MetricsRegistry& m,
                      const std::string& name, double pct,
                      const std::string& label = "");
double HistMeanMs(const sedge::obs::MetricsRegistry& m,
                  const std::string& name, const std::string& label = "");
double CounterValue(const sedge::obs::MetricsRegistry& m,
                    const std::string& name);
double GaugeValue(const sedge::obs::MetricsRegistry& m,
                  const std::string& name);

/// a / b, or 0 when b is 0.
inline double Ratio(double a, double b) { return b != 0.0 ? a / b : 0.0; }

/// Nanoseconds per item of `fn`, which processes `items` items per call:
/// the median of `reps` timed calls after one warm-up call.
double NsPerItem(const std::function<void()>& fn, double items, int reps = 7);

/// Median wall time of `fn` in microseconds over `reps` calls after one
/// warm-up call.
double MedianMicros(const std::function<void()>& fn, int reps = 7);

/// Environment record: git sha, source digest, compiler, build type,
/// cores, select dispatch, observability build flag, seed.
std::string EnvironmentJson(const Options& opts, const std::string& source_sha,
                            const std::string& source_digest);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
