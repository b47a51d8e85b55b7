#include "harness.h"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "sds/broadword.h"

namespace perfbench {

// ------------------------------------------------------------ Samples

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  // Linear interpolation between closest ranks (the usual "type 7").
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

double Samples::Max() const {
  return values_.empty() ? 0.0 : *std::max_element(values_.begin(),
                                                   values_.end());
}

double Samples::Sum() const {
  double s = 0.0;
  for (const double v : values_) s += v;
  return s;
}

// -------------------------------------------------------------- Tally

void Tally::Fail(const std::string& what) {
  attempted_.fetch_add(1, std::memory_order_relaxed);
  const uint64_t n = failed_.fetch_add(1, std::memory_order_relaxed);
  if (n < 5) std::fprintf(stderr, "failed operation: %s\n", what.c_str());
}

void Tally::Check(uint64_t got, uint64_t expected, const std::string& what) {
  if (got == expected) {
    Ok();
  } else {
    Fail(what + ": got " + std::to_string(got) + ", expected " +
         std::to_string(expected));
  }
}

// ------------------------------------------------------------- Tracer

namespace {
thread_local uint64_t tls_parent = 0;
thread_local uint64_t tls_request = 0;
}  // namespace

Tracer& Tracer::Get() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

Tracer::Span::Span(const char* name, uint64_t request) {
  Tracer& t = Tracer::Get();
  if (!t.enabled()) return;
  active_ = true;
  rec_.id = t.next_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  rec_.parent = tls_parent;
  rec_.request = request != 0 ? request : tls_request;
  rec_.name = name;
  saved_parent_ = tls_parent;
  saved_request_ = tls_request;
  tls_parent = rec_.id;
  tls_request = rec_.request;
  rec_.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - t.epoch_)
                      .count();
}

Tracer::Span::~Span() {
  if (!active_) return;
  Tracer& t = Tracer::Get();
  rec_.end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    Clock::now() - t.epoch_)
                    .count();
  tls_parent = saved_parent_;
  tls_request = saved_request_;
  t.Push(rec_);
}

void Tracer::Push(const Record& rec) {
  sedge::util::MutexLock lk(&mu_);
  records_.push_back(rec);
}

size_t Tracer::size() const {
  sedge::util::MutexLock lk(&mu_);
  return records_.size();
}

size_t Tracer::requests() const {
  sedge::util::MutexLock lk(&mu_);
  std::unordered_set<uint64_t> ids;
  for (const Record& r : records_) {
    if (r.request != 0) ids.insert(r.request);
  }
  return ids.size();
}

std::map<std::string, double> Tracer::SelfSecondsByLayer() const {
  sedge::util::MutexLock lk(&mu_);
  // Children of one span run on the span's own thread, one after the
  // other, so the covered part is the sum of their durations.
  std::unordered_map<uint64_t, int64_t> child_ns;
  for (const Record& r : records_) {
    if (r.parent != 0) child_ns[r.parent] += r.end_ns - r.start_ns;
  }
  std::map<std::string, double> out;
  for (const Record& r : records_) {
    const std::string name = r.name;
    const std::string layer = name.substr(0, name.find('.'));
    const auto it = child_ns.find(r.id);
    const int64_t covered = it == child_ns.end() ? 0 : it->second;
    const int64_t self = std::max<int64_t>(0, r.end_ns - r.start_ns - covered);
    out[layer] += static_cast<double>(self) * 1e-9;
  }
  return out;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  sedge::util::MutexLock lk(&mu_);
  for (const Record& r : records_) {
    std::fprintf(f,
                 "{\"id\":%llu,\"parent\":%llu,\"request\":%llu,"
                 "\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 static_cast<unsigned long long>(r.id),
                 static_cast<unsigned long long>(r.parent),
                 static_cast<unsigned long long>(r.request), r.name,
                 static_cast<long long>(r.start_ns),
                 static_cast<long long>(r.end_ns));
  }
  return std::fclose(f) == 0;
}

// ------------------------------------------------------ child oracles

bool RunInChild(const std::function<std::vector<uint64_t>()>& fn,
                std::vector<uint64_t>* out) {
  std::fflush(stdout);
  std::fflush(stderr);
  int fds[2];
  if (pipe(fds) != 0) return false;
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return false;
  }
  if (pid == 0) {
    close(fds[0]);
    const std::vector<uint64_t> values = fn();
    const uint64_t n = values.size();
    bool ok = write(fds[1], &n, sizeof(n)) == sizeof(n);
    const char* p = reinterpret_cast<const char*>(values.data());
    size_t left = values.size() * sizeof(uint64_t);
    while (ok && left > 0) {
      const ssize_t w = write(fds[1], p, left);
      if (w <= 0) ok = false;
      else {
        p += w;
        left -= static_cast<size_t>(w);
      }
    }
    close(fds[1]);
    _exit(ok ? 0 : 1);
  }
  close(fds[1]);
  bool ok = true;
  const auto read_all = [&](void* dst, size_t len) {
    char* p = static_cast<char*>(dst);
    while (len > 0) {
      const ssize_t r = read(fds[0], p, len);
      if (r <= 0) return false;
      p += r;
      len -= static_cast<size_t>(r);
    }
    return true;
  };
  uint64_t n = 0;
  if (!read_all(&n, sizeof(n)) || n > (1ULL << 32)) {
    ok = false;
  } else {
    out->assign(n, 0);
    ok = read_all(out->data(), n * sizeof(uint64_t));
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
  }
  return ok && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ----------------------------------------------------- registry reads

double HistQuantileMs(const sedge::obs::MetricsRegistry& m,
                      const std::string& name, double pct,
                      const std::string& label) {
  const sedge::obs::Histogram* h = m.FindHistogram(name, label);
  return h != nullptr && h->count() > 0 ? h->Percentile(pct) * 1e3 : 0.0;
}

double HistMeanMs(const sedge::obs::MetricsRegistry& m,
                  const std::string& name, const std::string& label) {
  const sedge::obs::Histogram* h = m.FindHistogram(name, label);
  return h != nullptr && h->count() > 0
             ? h->sum() * 1e3 / static_cast<double>(h->count())
             : 0.0;
}

double CounterValue(const sedge::obs::MetricsRegistry& m,
                    const std::string& name) {
  const sedge::obs::Counter* c = m.FindCounter(name);
  return c != nullptr ? static_cast<double>(c->value()) : 0.0;
}

double GaugeValue(const sedge::obs::MetricsRegistry& m,
                  const std::string& name) {
  const sedge::obs::Gauge* g = m.FindGauge(name);
  return g != nullptr ? g->value() : 0.0;
}

// ------------------------------------------------------ micro timing

double NsPerItem(const std::function<void()>& fn, double items, int reps) {
  if (items <= 0) return 0.0;
  return MedianMicros(fn, reps) * 1e3 / items;
}

double MedianMicros(const std::function<void()>& fn, int reps) {
  fn();
  Samples s;
  for (int i = 0; i < reps; ++i) {
    const Clock::time_point t0 = Clock::now();
    fn();
    s.Add(SecondsSince(t0) * 1e6);
  }
  return s.Median();
}

// -------------------------------------------------------- environment

std::string EnvironmentJson(const Options& opts, const std::string& source_sha,
                            const std::string& source_digest) {
#ifdef SEDGE_OBS_DISABLED
  const bool obs_disabled = true;
#else
  const bool obs_disabled = false;
#endif
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\"git_sha\":\"%s\",\"source_digest\":\"%s\",\"compiler\":\"%s\","
      "\"build_type\":\"%s\",\"nproc\":%u,\"bmi2_select\":%s,"
      "\"obs_disabled\":%s,\"workload\":\"%s\",\"seed\":%llu,"
      "\"seconds\":%g,\"trace\":%d,\"tiny\":%d}",
      source_sha.c_str(), source_digest.c_str(), PERFBENCH_COMPILER,
      PERFBENCH_BUILD_TYPE, std::thread::hardware_concurrency(),
      sedge::sds::broadword::UsingBmi2Select() ? "true" : "false",
      obs_disabled ? "true" : "false", opts.workload.c_str(),
      static_cast<unsigned long long>(opts.seed), opts.seconds,
      opts.trace ? 1 : 0, opts.tiny ? 1 : 0);
  return buf;
}

}  // namespace perfbench
