// Shared infrastructure for the paper-reproduction benches.
//
// Conventions (Section 7 of the paper):
//  - datasets: ENGIE-style sensor graphs of 250/500 triples plus LUBM1
//    (~100K triples) truncated to 1K/5K/10K/25K/50K;
//  - systems: SuccinctEdge + the four baseline design points;
//  - timing: hot runs — one warm-up execution, then the median of kReps;
//  - the simulated SD card costs 20 us per block read and 5 us per block
//    write for the disk-resident baselines (absolute numbers are not the
//    paper's Raspberry Pi, the relative shape is what must hold).

#ifndef SEDGE_BENCH_BENCH_UTIL_H_
#define SEDGE_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "baselines/baseline_engine.h"
#include "baselines/jena_inmem_like.h"
#include "baselines/jena_tdb_like.h"
#include "baselines/rdf4j_like.h"
#include "baselines/rdf4led_like.h"
#include "core/database.h"
#include "sparql/executor.h"
#include "sparql/sparql_parser.h"
#include "util/timer.h"
#include "workloads/lubm_generator.h"
#include "workloads/sensor_generator.h"

namespace sedge::bench {

inline constexpr int kReps = 5;
inline constexpr double kSdReadUs = 20.0;
inline constexpr double kSdWriteUs = 5.0;
inline constexpr uint64_t kCachePages = 256;

struct Dataset {
  std::string label;
  rdf::Graph graph;
  ontology::Ontology onto;
  bool is_sensor = false;
};

/// The full LUBM1-scale graph (~100K triples), generated once per binary.
inline const rdf::Graph& LubmFull() {
  static const rdf::Graph graph = [] {
    workloads::LubmConfig config;
    return workloads::LubmGenerator::Generate(config);
  }();
  return graph;
}

/// The eight evaluation datasets of Section 7.2.
inline std::vector<Dataset> PaperDatasets() {
  std::vector<Dataset> out;
  const ontology::Ontology sensor_onto =
      workloads::SensorGraphGenerator::BuildOntology();
  const ontology::Ontology lubm_onto =
      workloads::LubmGenerator::BuildOntology();
  for (const int n : {250, 500}) {
    out.push_back(
        {std::to_string(n),
         workloads::SensorGraphGenerator::GenerateWithTripleTarget(n),
         sensor_onto, true});
  }
  for (const size_t n : {1000ul, 5000ul, 10000ul, 25000ul, 50000ul}) {
    rdf::Graph g = LubmFull();
    g.Truncate(n);
    out.push_back({std::to_string(n / 1000) + "K", std::move(g), lubm_onto,
                   false});
  }
  out.push_back({"100K", LubmFull(), lubm_onto, false});
  return out;
}

/// The four baseline stores with the standard device parameters.
inline std::vector<std::unique_ptr<baselines::BaselineStore>>
MakeAllBaselines() {
  std::vector<std::unique_ptr<baselines::BaselineStore>> out;
  out.push_back(std::make_unique<baselines::Rdf4jLikeStore>());
  out.push_back(std::make_unique<baselines::JenaInMemLikeStore>());
  out.push_back(std::make_unique<baselines::JenaTdbLikeStore>(
      kSdReadUs, kSdWriteUs, kCachePages));
  out.push_back(
      std::make_unique<baselines::Rdf4LedLikeStore>(kSdReadUs, kSdWriteUs));
  return out;
}

/// Hot-run timing: one warm-up, then the median wall time of kReps runs.
inline double MedianMillis(const std::function<void()>& fn, int reps = kReps) {
  fn();  // warm-up (the paper reports hot runs only)
  std::vector<double> times;
  times.reserve(reps);
  for (int i = 0; i < reps; ++i) {
    WallTimer timer;
    fn();
    times.push_back(timer.ElapsedMillis());
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

/// Builds SuccinctEdge plus all four baselines over one graph and times
/// query counts on each — the harness for Tables 1/2 and Figures 12-14.
class QueryBench {
 public:
  QueryBench(const rdf::Graph& graph, const ontology::Ontology& onto)
      : graph_(graph), onto_(onto) {
    sedge_.LoadOntology(onto);
    const Status st = sedge_.LoadData(graph);
    SEDGE_CHECK(st.ok()) << st.ToString();
    baselines_ = MakeAllBaselines();
    for (auto& store : baselines_) {
      SEDGE_CHECK(store->Build(graph).ok()) << store->name();
    }
  }

  Database& sedge() { return sedge_; }
  const ontology::Ontology& onto() const { return onto_; }
  std::vector<std::unique_ptr<baselines::BaselineStore>>& stores() {
    return baselines_;
  }

  /// Median hot-run time of the query on SuccinctEdge; `count` receives the
  /// answer-set size. Parsing happens once and the executor is reused, the
  /// same footing the baselines get in TimeBaseline.
  double TimeSedge(const std::string& sparql, bool reasoning,
                   uint64_t* count = nullptr) {
    auto parsed = sparql::ParseQuery(sparql);
    SEDGE_CHECK(parsed.ok()) << parsed.status().ToString();
    sparql::Executor::Options opts;
    opts.reasoning = reasoning;
    sparql::Executor executor(sedge_.snapshot(), opts);
    uint64_t n = 0;
    const double ms = MedianMillis([&] {
      const auto result = executor.ExecuteEncoded(parsed.value());
      SEDGE_CHECK(result.ok()) << result.status().ToString();
      n = result.value().rows.size();
    });
    if (count != nullptr) *count = n;
    return ms;
  }

  /// Median hot-run time on one baseline. Returns a negative value if the
  /// store rejects the query (RDF4Led vs UNION).
  double TimeBaseline(baselines::BaselineStore* store,
                      const sparql::Query& query,
                      uint64_t* count = nullptr) {
    baselines::BaselineEngine engine(store);
    const auto probe = engine.ExecuteCount(query);
    if (!probe.ok()) return -1.0;
    if (count != nullptr) *count = probe.value();
    return MedianMillis([&] {
      const auto result = engine.ExecuteCount(query);
      SEDGE_CHECK(result.ok());
    });
  }

 private:
  const rdf::Graph& graph_;
  const ontology::Ontology& onto_;
  Database sedge_;
  std::vector<std::unique_ptr<baselines::BaselineStore>> baselines_;
};

/// Fixed-width row printing helpers for paper-shaped tables.
inline void PrintRow(const std::string& label,
                     const std::vector<std::string>& cells, int width = 14) {
  std::printf("%-22s", label.c_str());
  for (const std::string& cell : cells) {
    std::printf("%*s", width, cell.c_str());
  }
  std::printf("\n");
}

inline std::string FormatMs(double ms) {
  char buf[32];
  if (ms < 10) {
    std::snprintf(buf, sizeof(buf), "%.3f", ms);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1f", ms);
  }
  return buf;
}

inline std::string FormatKb(uint64_t bytes) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", static_cast<double>(bytes) / 1024.0);
  return buf;
}

/// Machine-readable bench output: one JSON object per line (JSONL), shape
///   {"bench": "...", "dataset": "...", "<metric>": <value>, ...}
/// shared by every bench that wants scripted consumption next to its
/// human-readable table.
inline void PrintJsonRecord(
    const std::string& bench, const std::string& dataset,
    const std::vector<std::pair<std::string, double>>& metrics) {
  std::printf("{\"bench\":\"%s\",\"dataset\":\"%s\"", bench.c_str(),
              dataset.c_str());
  for (const auto& [name, value] : metrics) {
    std::printf(",\"%s\":%.6g", name.c_str(), value);
  }
  std::printf("}\n");
}

/// One JSONL record embedding a full metrics-registry snapshot under a
/// `"metrics"` field:
///   {"bench":"...","dataset":"...","metrics":{"counters":{...},...}}
/// ExportJson() is itself one JSON object, so the line stays valid JSONL
/// and scripted consumers can pick out e.g.
/// .metrics.histograms["wal_sync_seconds"].p99.
inline void PrintMetricsSnapshotRecord(const std::string& bench,
                                       const std::string& dataset,
                                       const obs::MetricsRegistry& registry) {
  std::printf("{\"bench\":\"%s\",\"dataset\":\"%s\",\"metrics\":%s}\n",
              bench.c_str(), dataset.c_str(),
              registry.ExportJson().c_str());
}

}  // namespace sedge::bench

#endif  // SEDGE_BENCH_BENCH_UTIL_H_
