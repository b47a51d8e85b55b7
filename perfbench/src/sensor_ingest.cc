// sensor-ingest: the edge_monitor deployment loop on a simulated SD card
// (20 us block reads, 55 us block writes), with a sliding retention
// window so the store size stays stationary and fold/checkpoint cycles
// repeat: insert observation batch i, remove batch i-W, let a fold they
// set off finish, run the three registered queries. At the end the
// database is closed and reopened from the device several times.
//
// Checks: the observation count and the sensors-per-platform count have
// closed forms; the anomaly count is compared with a plain in-memory
// Database replaying the same stream; every reopen must restore the
// pre-close triple count.

#include <deque>
#include <memory>

#include "core/database.h"
#include "io/block_device.h"
#include "layers.h"
#include "workloads.h"
#include "workloads/sensor_generator.h"

namespace perfbench {

namespace sw = sedge::workloads;

namespace {

constexpr int kWindow = 8;  // batches kept live

const char* const kObservationCount =
    "PREFIX sosa: <http://www.w3.org/ns/sosa/>\n"
    "SELECT ?o WHERE { ?o a sosa:Observation }";
const char* const kSensorsPerPlatform =
    "PREFIX sosa: <http://www.w3.org/ns/sosa/>\n"
    "SELECT DISTINCT ?x ?s WHERE { ?x a sosa:Platform ; sosa:hosts ?s }";

sw::SensorConfig StreamConfig(const Options& opts) {
  sw::SensorConfig cfg;
  cfg.seed = DeriveSeed(opts.seed, 2);
  cfg.stations = 2;
  cfg.sensors_per_station = 2;
  cfg.observations_per_sensor = opts.tiny ? 5 : 25;
  cfg.anomaly_rate = 0.05;
  return cfg;
}

/// The anomaly count after each step, replayed on an in-memory Database.
std::vector<uint64_t> ReplayAnomalies(const sw::SensorConfig& cfg,
                                      const sedge::ontology::Ontology& onto,
                                      int steps) {
  std::vector<uint64_t> counts;
  sedge::Database db;
  db.LoadOntology(onto);
  if (!db.Insert(sw::SensorGraphGenerator::GenerateTopology(cfg)).ok()) {
    return counts;
  }
  for (int i = 0; i < kWindow; ++i) {
    if (!db.Insert(sw::SensorGraphGenerator::GenerateObservationBatch(cfg, i))
             .ok()) {
      return counts;
    }
  }
  const std::string anomaly = sw::SensorGraphGenerator::PressureAnomalyQuery();
  for (int i = kWindow; i < kWindow + steps; ++i) {
    if (!db.Insert(sw::SensorGraphGenerator::GenerateObservationBatch(cfg, i))
             .ok() ||
        !db.Remove(sw::SensorGraphGenerator::GenerateObservationBatch(
                       cfg, i - kWindow))
             .ok()) {
      return counts;
    }
    const auto n = db.QueryCount(anomaly);
    counts.push_back(n.ok() ? n.value() : UINT64_MAX);
  }
  return counts;
}

}  // namespace

bool RunSensorIngest(const Options& opts, Tally* tally, RunResult* out) {
  const sedge::ontology::Ontology onto =
      sw::SensorGraphGenerator::BuildOntology();
  const sw::SensorConfig cfg = StreamConfig(opts);
  const uint64_t obs_per_batch = static_cast<uint64_t>(
      cfg.stations * cfg.sensors_per_station * cfg.observations_per_sensor);

  std::unique_ptr<sedge::io::SimulatedBlockDevice> device;
  std::unique_ptr<sedge::Database> db;
  const auto open = [&]() -> bool {
    sedge::Database::OpenOptions options;
    options.wal_capacity_blocks = 512;
    options.bootstrap_ontology = onto;
    auto opened = sedge::Database::Open(device.get(), options);
    if (!opened.ok()) {
      std::fprintf(stderr, "sensor-ingest open: %s\n",
                   opened.status().ToString().c_str());
      return false;
    }
    db = std::move(opened).value();
    db->set_compaction_ratio(0.25);
    db->set_async_compaction(true);
    return true;
  };

  std::deque<sedge::rdf::Graph> window;
  const auto setup = [&] {
    db.reset();
    window.clear();
    device = std::make_unique<sedge::io::SimulatedBlockDevice>(20.0, 55.0);
    if (!open() ||
        !db->Insert(sw::SensorGraphGenerator::GenerateTopology(cfg)).ok() ||
        !db->Checkpoint().ok()) {
      return false;
    }
    for (int i = 0; i < kWindow; ++i) {
      window.push_back(sw::SensorGraphGenerator::GenerateObservationBatch(cfg, i));
      if (!db->Insert(window.back()).ok()) return false;
    }
    return db->WaitForCompaction().ok();
  };
  const double setup_s = SetupSeconds(opts, setup);
  if (setup_s < 0 || !setup()) return false;
  db->reset_query_stats();

  const std::string anomaly = sw::SensorGraphGenerator::PressureAnomalyQuery();
  std::vector<uint64_t> anomalies;  // per step, checked after the run
  int next_batch = kWindow;
  Samples write_ms;
  Samples delta_entries, tombstone_ratio;
  double user_batches = 0, user_bytes = 0, user_triples = 0, loop_s = 0;
  const sedge::obs::Gauge* entries_gauge =
      db->metrics().FindGauge("delta_overlay_entries");
  const sedge::obs::Gauge* tomb_gauge =
      db->metrics().FindGauge("delta_tombstone_ratio");

  const auto write = [&](const sedge::rdf::Graph& batch, bool insert) {
    Span span(insert ? "core.insert" : "core.remove");
    const Clock::time_point t0 = Clock::now();
    const sedge::Status st = insert ? db->Insert(batch) : db->Remove(batch);
    write_ms.Add(MillisSince(t0));
    if (!st.ok()) {
      tally->Fail(std::string(insert ? "insert: " : "remove: ") + st.ToString());
      return;
    }
    tally->Ok();
    user_batches += 1;
    user_triples += static_cast<double>(batch.size());
    for (const auto& t : batch.triples()) user_bytes += NTriplesBytes(t);
  };
  const auto query = [&](const std::string& text, Samples* query_ms) {
    Span span("core.query");
    const Clock::time_point t0 = Clock::now();
    auto r = db->Query(text);
    query_ms->Add(MillisSince(t0));
    // An error answers UINT64_MAX, which the count check then fails.
    return r.ok() ? static_cast<uint64_t>(r.value().size()) : UINT64_MAX;
  };

  const auto measure = [&](double seconds) {
    Window w;
    const Clock::time_point start = Clock::now();
    while (SecondsSince(start) < seconds) {
      Span step("bench.step", Tracer::Get().NewRequest());
      window.push_back(
          sw::SensorGraphGenerator::GenerateObservationBatch(cfg, next_batch++));
      write(window.back(), true);
      write(window.front(), false);
      window.pop_front();
      // A fold the writes set off finishes before the queries, so they
      // read an overlay whose size follows from the step number alone,
      // not from how far a concurrent rebuild has got on a busy host, and
      // they do not share the cores with its build threads.
      if (!db->WaitForCompaction().ok()) tally->Fail("fold");
      anomalies.push_back(query(anomaly, &w.query_ms));
      tally->Check(query(kObservationCount, &w.query_ms),
                   kWindow * obs_per_batch, "observation-count");
      tally->Check(query(kSensorsPerPlatform, &w.query_ms),
                   static_cast<uint64_t>(cfg.stations *
                                         cfg.sensors_per_station),
                   "sensors-per-platform");
      if (entries_gauge != nullptr) delta_entries.Add(entries_gauge->value());
      if (tomb_gauge != nullptr) tombstone_ratio.Add(tomb_gauge->value());
    }
    w.seconds = SecondsSince(start);
    loop_s += w.seconds;
    return w;
  };
  SetQueryValues(MeasureWindows(opts, measure), out);
  Values& e2e = out->e2e;
  e2e["setup_s"] = setup_s;

  Values& v = out->layers;
  if (opts.trace) {
    const auto snap = db->snapshot();
    SeekBatchLayer(snap->store(), &v);
    StoreBytes(snap->store(), &v);
    ParseLayer({anomaly, kObservationCount, kSensorsPerPlatform}, &v);
    const sedge::sparql::ExecutorStats s = db->query_stats();
    v["sparql.merge_join_share"] =
        Ratio(static_cast<double>(s.merge_join_extends),
              static_cast<double>(s.merge_join_extends + s.row_extends));
    v["core.write_p50_ms"] = write_ms.Quantile(0.5);
    v["core.write_p99_ms"] = write_ms.Quantile(0.99);
    v["core.ingest_triples_per_s"] = user_triples / loop_s;
    v["store.delta_entries"] = delta_entries.Mean();
    v["store.tombstone_ratio"] = tombstone_ratio.Mean();
  }
  if (!db->WaitForCompaction().ok()) return false;
  CoreIoLayers(db->metrics(), user_batches, user_bytes, user_triples, &v);

  // Close and reopen from the device alone.
  const uint64_t live = db->num_triples();
  Samples reopen_ms, reopen_reads;
  for (int rep = 0; rep < (opts.tiny ? 2 : 5); ++rep) {
    db.reset();
    const uint64_t reads_before = device->stats().reads;
    Span span("core.open", Tracer::Get().NewRequest());
    const Clock::time_point t0 = Clock::now();
    if (!open()) {
      tally->Fail("reopen");
      return false;
    }
    reopen_ms.Add(MillisSince(t0));
    reopen_reads.Add(static_cast<double>(device->stats().reads - reads_before));
    tally->Check(db->num_triples(), live, "reopen triple count");
  }
  v["io.reopen_ms"] = reopen_ms.Median();
  v["io.reopen_block_reads"] = reopen_reads.Median();

  // Compactness after a final fold: the same live data on every run.
  if (!db->Compact().ok()) return false;
  e2e["store_bytes_per_triple"] =
      static_cast<double>(db->snapshot()->store().SizeInBytes()) /
      static_cast<double>(db->num_triples());
  Tracer::Get().set_enabled(false);
  db.reset();

  std::vector<uint64_t> expected;
  const int steps = static_cast<int>(anomalies.size());
  if (!RunInChild([&] { return ReplayAnomalies(cfg, onto, steps); },
                  &expected) ||
      expected.size() != anomalies.size()) {
    std::fprintf(stderr, "sensor-ingest: oracle replay failed\n");
    return false;
  }
  if (opts.corrupt_expected && !expected.empty()) expected[0] += 1;
  for (size_t i = 0; i < anomalies.size(); ++i) {
    tally->Check(anomalies[i], expected[i], "pressure-anomaly step " +
                                                std::to_string(i));
  }
  e2e["peak_rss_mb"] = PeakRssMb();
  return true;
}

}  // namespace perfbench
