// serve-mixed: serve::QueryService with two readers over LUBM1, fed by an
// open-loop generator at a fixed offered rate; each request is timed from
// the moment it was due. Most requests are S1-S10-shaped point lookups
// whose constants are drawn Zipf-style from every subject and object of
// the graph (hot keys fit the result cache, the cold tail does not); the
// rest are the fixed S11-S15 and M1-M5 queries. A writer lane inserts
// sensor batches at a fixed rate — vocabulary disjoint from every
// request, so answers stay known — and starts a background fold every
// kFoldEvery batches. Every response is checked against single-threaded
// counts taken before the service started.

#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <deque>
#include <future>
#include <memory>
#include <thread>
#include <unordered_map>

#include "core/database.h"
#include "layers.h"
#include "rdf/vocabulary.h"
#include "serve/query_service.h"
#include "util/rng.h"
#include "workloads.h"
#include "workloads/lubm_generator.h"
#include "workloads/sensor_generator.h"

namespace perfbench {

namespace sw = sedge::workloads;

namespace {

constexpr double kRate = 500.0;          // offered requests per second
constexpr double kTinyRate = 100.0;
constexpr double kWriterRate = 10.0;     // write batches per second
constexpr int kFoldEvery = 25;           // batches between background folds
// The request mix is chosen, not taken from a measured query log: 5%
// fixed S11-S15 and M1-M5, the rest point lookups whose keys follow
// Zipf(1.0). The traced run reports the result-cache hit share it gives
// (serve.result_cache_hit_share).
constexpr double kFixedShare = 0.05;
constexpr double kZipfExponent = 1.0;
constexpr double kLatencyLimitMs = 50.0; // p99 limit for the goodput ladder
const double kLadder[] = {1, 1.5, 2, 3, 4, 6, 8};

/// Distinct request texts and the order they are offered in.
struct RequestStream {
  std::vector<std::string> texts;
  std::vector<uint32_t> schedule;
};

/// Zipf(kZipfExponent) ranks over [0, n) by inverse CDF.
class Zipf {
 public:
  explicit Zipf(size_t n) : cdf_(n) {
    double sum = 0.0;
    for (size_t k = 0; k < n; ++k) {
      sum += 1.0 / std::pow(static_cast<double>(k + 1), kZipfExponent);
      cdf_[k] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  size_t Draw(sedge::Rng* rng) const {
    const double u = rng->NextDouble();
    return static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end() - 1, u) - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

RequestStream MakeStream(const sedge::rdf::Graph& graph, size_t requests,
                         uint64_t seed) {
  // Keys: every subject and every IRI object of an object property, with
  // the predicates they occur under.
  std::unordered_map<std::string, std::vector<std::string>> by_subject,
      by_object;
  std::vector<std::string> subjects, objects;
  for (const sedge::rdf::Triple& t : graph.triples()) {
    if (!t.object.is_iri() || t.predicate.lexical() == sedge::rdf::kRdfType) {
      continue;
    }
    auto& sp = by_subject[t.subject.lexical()];
    if (sp.empty()) subjects.push_back(t.subject.lexical());
    if (std::find(sp.begin(), sp.end(), t.predicate.lexical()) == sp.end()) {
      sp.push_back(t.predicate.lexical());
    }
    auto& op = by_object[t.object.lexical()];
    if (op.empty()) objects.push_back(t.object.lexical());
    if (std::find(op.begin(), op.end(), t.predicate.lexical()) == op.end()) {
      op.push_back(t.predicate.lexical());
    }
  }
  sedge::Rng rng(seed);
  // Which key is hot is itself drawn from the seed.
  for (auto* keys : {&subjects, &objects}) {
    for (size_t i = keys->size(); i > 1; --i) {
      std::swap((*keys)[i - 1], (*keys)[rng.Uniform(i)]);
    }
  }
  std::vector<sw::QuerySpec> fixed = sw::LubmQueries::SingleP();
  for (auto& m : sw::LubmQueries::Multi(graph)) fixed.push_back(std::move(m));

  RequestStream stream;
  std::unordered_map<std::string, uint32_t> index;
  const auto add = [&](std::string text) {
    auto [it, fresh] =
        index.emplace(std::move(text), static_cast<uint32_t>(stream.texts.size()));
    if (fresh) stream.texts.push_back(it->first);
    stream.schedule.push_back(it->second);
  };
  const Zipf zs(subjects.size()), zo(objects.size());
  for (size_t i = 0; i < requests; ++i) {
    const double u = rng.NextDouble();
    if (u < kFixedShare) {
      add(fixed[rng.Uniform(fixed.size())].sparql);
    } else if (u < kFixedShare + (1 - kFixedShare) / 2) {
      const std::string& s = subjects[zs.Draw(&rng)];
      const auto& ps = by_subject[s];
      add("SELECT ?o WHERE { <" + s + "> <" + ps[rng.Uniform(ps.size())] +
          "> ?o }");
    } else {
      const std::string& o = objects[zo.Draw(&rng)];
      const auto& ps = by_object[o];
      add("SELECT ?s WHERE { ?s <" + ps[rng.Uniform(ps.size())] + "> <" + o +
          "> }");
    }
  }
  return stream;
}

/// Offers schedule[*next ...] at `rate` for `seconds`, then waits for
/// every outstanding response; latencies run from each request's due
/// time, and `lag_max_ms` keeps how late the generator ever sent.
///
/// The generator thread is also the collector. Between sends it blocks on
/// the oldest outstanding response until the next request is due; each
/// time it wakes it stamps every response completed by then. Readers take
/// requests in FIFO order, so the oldest usually completes first. One that
/// overtakes it (a point lookup on one reader beside a heavy query on the
/// other) is stamped at the next wake-up: while two or more responses are
/// outstanding the wait is capped at kSweep, which bounds that error.
Window OpenLoop(sedge::serve::QueryService* service,
                const RequestStream& stream,
                const std::vector<uint64_t>& expected, double rate,
                double seconds, size_t* next, Tally* tally,
                double* lag_max_ms) {
  struct Pending {
    Clock::time_point due;
    uint32_t text;
    std::future<sedge::serve::QueryService::Response> response;
  };
  constexpr auto kSweep = std::chrono::microseconds(200);
  Window res;
  std::deque<Pending> pending;  // in submission order
  const auto sweep = [&] {
    const Clock::time_point now = Clock::now();
    for (auto it = pending.begin(); it != pending.end();) {
      if (it->response.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        ++it;
        continue;
      }
      res.query_ms.Add(
          std::chrono::duration<double, std::milli>(now - it->due).count());
      const sedge::serve::QueryService::Response r = it->response.get();
      if (!r.status.ok()) {
        tally->Fail("request: " + r.status.ToString());
      } else {
        tally->Check(r.rows, expected[it->text],
                     "request " + std::to_string(it->text));
      }
      it = pending.erase(it);
    }
  };
  // Sends and wake-ups are timed waits: keep them exact (the default
  // timer slack adds up to 50 us to each).
  prctl(PR_SET_TIMERSLACK, 1000UL);
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / rate));
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  Clock::time_point due = start;
  for (;;) {
    const bool sending = due < end && *next < stream.schedule.size();
    if (!sending && pending.empty()) break;
    const Clock::time_point now = Clock::now();
    if (sending && now >= due) {
      *lag_max_ms = std::max(
          *lag_max_ms,
          std::chrono::duration<double, std::milli>(now - due).count());
      const uint32_t text = stream.schedule[(*next)++];
      Span span("serve.submit", Tracer::Get().NewRequest());
      pending.push_back({due, text, service->Submit(stream.texts[text])});
      due += interval;
      continue;
    }
    if (pending.empty()) {
      std::this_thread::sleep_until(due);
      continue;
    }
    if (pending.size() > 1) {
      pending.front().response.wait_until(
          sending ? std::min<Clock::time_point>(due, now + kSweep)
                  : now + kSweep);
    } else if (sending) {
      pending.front().response.wait_until(due);
    } else {
      pending.front().response.wait();
    }
    sweep();
  }
  res.seconds = SecondsSince(start);
  return res;
}

}  // namespace

bool RunServeMixed(const Options& opts, Tally* tally, RunResult* out) {
  const sedge::ontology::Ontology onto = sw::LubmGenerator::BuildOntology();
  const double rate = opts.tiny ? kTinyRate : kRate;
  std::unique_ptr<sedge::Database> db;
  sedge::rdf::Graph graph;
  const auto setup = [&] {
    graph = LubmGraph(opts);
    db = std::make_unique<sedge::Database>();
    db->set_reasoning(false);
    db->LoadOntology(onto);
    db->set_compaction_ratio(0);  // the writer lane schedules folds
    return db->LoadData(graph).ok();
  };
  const double setup_s = SetupSeconds(opts, setup);
  if (setup_s < 0 || !setup()) return false;
  // Requests for the whole run: the window plus, when traced, every
  // ladder step at its multiple of the rate.
  const double step_s = opts.tiny ? 0.3 : 1.0;
  double base_rate_seconds = opts.seconds;
  if (opts.trace) {
    for (const double m : kLadder) base_rate_seconds += step_s * m;
  }
  const RequestStream stream = MakeStream(
      graph, static_cast<size_t>(rate * base_rate_seconds) + 16,
      DeriveSeed(opts.seed, 3));
  std::vector<uint64_t> expected;
  if (!RunInChild(
          [&] {
            std::vector<uint64_t> counts;
            for (const std::string& text : stream.texts) {
              const auto n = db->QueryCount(text);
              counts.push_back(n.ok() ? n.value() : UINT64_MAX);
            }
            return counts;
          },
          &expected) ||
      expected.size() != stream.texts.size()) {
    std::fprintf(stderr, "serve-mixed: oracle failed\n");
    return false;
  }
  if (opts.corrupt_expected) expected[stream.schedule[0]] += 1;

  sedge::serve::ServeOptions sopts;
  sopts.readers = 2;
  sopts.queue_depth = 4096;
  sedge::serve::QueryService service(db.get(), sopts);

  // Writer lane: fixed-rate sensor batches, folds on a fixed schedule.
  sw::SensorConfig sensor;
  sensor.seed = DeriveSeed(opts.seed, 2);
  sensor.observations_per_sensor = 2;  // 8 observations, 56 triples
  std::atomic<bool> stop{false};
  Samples write_ms;
  double batches = 0, user_bytes = 0, user_triples = 0;
  std::thread writer([&] {
    const auto interval = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1.0 / kWriterRate));
    Clock::time_point due = Clock::now();
    for (int i = 0; !stop.load(); ++i) {
      const sedge::rdf::Graph batch =
          sw::SensorGraphGenerator::GenerateObservationBatch(sensor, i);
      {
        Span span("core.insert", Tracer::Get().NewRequest());
        const Clock::time_point t0 = Clock::now();
        const sedge::Status st = db->Insert(batch);
        write_ms.Add(MillisSince(t0));
        if (!st.ok()) {
          tally->Fail("insert: " + st.ToString());
        } else {
          tally->Ok();
          batches += 1;
          user_triples += static_cast<double>(batch.size());
          for (const auto& t : batch.triples()) user_bytes += NTriplesBytes(t);
        }
      }
      if ((i + 1) % kFoldEvery == 0 && !db->compaction_in_flight()) {
        if (!db->CompactAsync().ok()) tally->Fail("fold");
      }
      due += interval;
      std::this_thread::sleep_until(due);
    }
  });

  size_t next = 0;
  double lag_max_ms = 0.0;
  SetQueryValues(MeasureWindows(opts,
                                [&](double seconds) {
                                  return OpenLoop(&service, stream, expected,
                                                  rate, seconds, &next, tally,
                                                  &lag_max_ms);
                                }),
                 out);
  Tracer::Get().set_enabled(false);
  Values& e2e = out->e2e;
  e2e["setup_s"] = setup_s;

  Values& v = out->layers;
  if (opts.trace) {
    v["serve.generator_lag_ms_max"] = lag_max_ms;
    // Goodput: the highest offered rate of the ladder whose p99, timed
    // from the due time, stays under the limit.
    double goodput = 0.0;
    for (const double m : kLadder) {
      const uint64_t failed_before = tally->failed();
      const Window step = OpenLoop(&service, stream, expected, rate * m,
                                   step_s, &next, tally, &lag_max_ms);
      if (step.query_ms.Quantile(0.99) > kLatencyLimitMs ||
          tally->failed() != failed_before) {
        break;
      }
      goodput = static_cast<double>(step.query_ms.size()) / step.seconds;
    }
    v["serve.goodput_qps"] = goodput;
  }
  stop.store(true);
  writer.join();
  service.Shutdown();
  if (!db->WaitForCompaction().ok()) return false;

  if (opts.trace) {
    ServeLayers(db->metrics(), &v);
    CoreIoLayers(db->metrics(), batches, user_bytes, user_triples, &v);
    std::vector<std::string> sample(
        stream.texts.begin(),
        stream.texts.begin() +
            static_cast<long>(std::min<size_t>(200, stream.texts.size())));
    ParseLayer(sample, &v);
    v["core.write_p50_ms"] = write_ms.Quantile(0.5);
    v["core.write_p99_ms"] = write_ms.Quantile(0.99);
  }
  if (!db->Compact().ok()) return false;
  e2e["store_bytes_per_triple"] =
      static_cast<double>(db->snapshot()->store().SizeInBytes()) /
      static_cast<double>(db->num_triples());
  e2e["peak_rss_mb"] = PeakRssMb();
  return true;
}

}  // namespace perfbench
