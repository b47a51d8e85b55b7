// dist-k4: ShardedDatabase with K=4 subject-hash shards over LUBM1. One
// closed-loop client runs the bench_dist_lubm mix (S11-S15, M1-M5) plus
// Standard14 Q1-Q14, all of which match the single-store oracle at this
// scale; a routed writer inserts sensor batches at a fixed rate and
// starts a background fold on the next shard every third batch, one
// fold at a time. Every
// answer is checked against a single-store Database.

#include <atomic>
#include <memory>
#include <thread>

#include "core/database.h"
#include "core/sharded_database.h"
#include "layers.h"
#include "util/rng.h"
#include "workloads.h"
#include "workloads/lubm_generator.h"
#include "workloads/sensor_generator.h"

namespace perfbench {

namespace sw = sedge::workloads;

namespace {

constexpr int kShards = 4;
// Write batches per second. At 20/s the store grew by a fifth during a
// run and folds ran back to back beside the client, so latency rose from
// window to window; at 5/s it holds level.
constexpr double kWriterRate = 5.0;

}  // namespace

bool RunDistK4(const Options& opts, Tally* tally, RunResult* out) {
  const sedge::ontology::Ontology onto = sw::LubmGenerator::BuildOntology();
  std::unique_ptr<sedge::ShardedDatabase> db;
  sedge::rdf::Graph graph;
  const auto setup = [&] {
    graph = LubmGraph(opts);
    db = std::make_unique<sedge::ShardedDatabase>(kShards);
    db->set_snapshot_isolation(true);
    db->set_async_compaction(true);
    db->set_compaction_ratio(0.0);  // the writer lane schedules folds
    db->LoadOntology(onto);
    return db->LoadData(graph).ok();
  };
  const double setup_s = SetupSeconds(opts, setup);
  if (setup_s < 0 || !setup()) return false;
  std::vector<sw::QuerySpec> mix = sw::LubmQueries::SingleP();
  for (auto& m : sw::LubmQueries::Multi(graph)) mix.push_back(std::move(m));
  for (auto& q : sw::LubmQueries::Standard14(graph)) mix.push_back(std::move(q));
  std::vector<uint64_t> expected;
  if (!RunInChild(
          [&] {
            std::vector<uint64_t> counts;
            sedge::Database oracle;
            oracle.LoadOntology(onto);
            if (!oracle.LoadData(graph).ok()) return counts;
            for (const sw::QuerySpec& spec : mix) {
              oracle.set_reasoning(spec.reasoning);
              const auto n = oracle.QueryCount(spec.sparql);
              counts.push_back(n.ok() ? n.value() : UINT64_MAX);
            }
            return counts;
          },
          &expected) ||
      expected.size() != mix.size()) {
    std::fprintf(stderr, "dist-k4: oracle failed\n");
    return false;
  }
  if (opts.corrupt_expected) expected[0] += 1;

  bool reasoning = true;
  db->set_reasoning(reasoning);
  const auto run_one = [&](size_t i, Samples* query_ms) {
    const sw::QuerySpec& spec = mix[i];
    if (spec.reasoning != reasoning) {
      reasoning = spec.reasoning;
      db->set_reasoning(reasoning);
    }
    Span request("bench.request", Tracer::Get().NewRequest());
    const Clock::time_point t0 = Clock::now();
    uint64_t rows = UINT64_MAX;  // an error fails the count check
    {
      Span span("dist.query");
      const auto r = db->Query(spec.sparql);
      if (r.ok()) rows = r.value().size();
    }
    const double ms = MillisSince(t0);
    if (query_ms == nullptr) return;
    query_ms->Add(ms);
    tally->Check(rows, expected[i], spec.id);
  };
  for (size_t i = 0; i < mix.size(); ++i) run_one(i, nullptr);  // warm-up

  // Routed writer with rotating per-shard folds.
  sw::SensorConfig sensor;
  sensor.seed = DeriveSeed(opts.seed, 2);
  sensor.observations_per_sensor = 2;
  std::atomic<bool> stop{false};
  Samples write_ms;
  double batches = 0, user_bytes = 0, user_triples = 0;
  std::thread writer([&] {
    const auto interval = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1.0 / kWriterRate));
    Clock::time_point due = Clock::now();
    int folds = 0;
    for (int i = 0; !stop.load(); ++i) {
      const sedge::rdf::Graph batch =
          sw::SensorGraphGenerator::GenerateObservationBatch(sensor, i);
      {
        Span span("dist.insert", Tracer::Get().NewRequest());
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
      // Every third batch the next shard folds, one fold at a time.
      bool folding = false;
      for (int k = 0; k < kShards; ++k) {
        folding = folding || db->shard(k).compaction_in_flight();
      }
      if ((i + 1) % 3 == 0 && !folding) {
        if (!db->CompactShardAsync(folds++ % kShards).ok()) tally->Fail("fold");
      }
      due += interval;
      std::this_thread::sleep_until(due);
    }
  });

  sedge::Rng rng(DeriveSeed(opts.seed, 4));
  std::vector<size_t> order(mix.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  const auto measure = [&](double seconds) {
    Window w;
    const Clock::time_point start = Clock::now();
    // Whole shuffled rounds only, so every query weighs the same.
    while (SecondsSince(start) < seconds) {
      for (size_t i = order.size(); i > 1; --i) {
        std::swap(order[i - 1], order[rng.Uniform(i)]);
      }
      for (const size_t i : order) run_one(i, &w.query_ms);
    }
    w.seconds = SecondsSince(start);
    return w;
  };
  SetQueryValues(MeasureWindows(opts, measure), out);
  Values& e2e = out->e2e;
  e2e["setup_s"] = setup_s;
  Values& v = out->layers;
  stop.store(true);
  writer.join();
  if (!db->WaitForCompaction().ok()) return false;

  if (opts.trace) {
    db->set_reasoning(true);
    DistLayers(*db, mix, &v);
    std::vector<std::string> texts;
    for (const sw::QuerySpec& spec : mix) texts.push_back(spec.sparql);
    ParseLayer(texts, &v);
    // Shard engine series: percentiles are the worst shard's, counts sum.
    for (int k = 0; k < kShards; ++k) {
      Values shard;
      CoreIoLayers(db->shard(k).metrics(), batches, user_bytes, user_triples,
                   &shard);
      for (const auto& [name, value] : shard) {
        if (name == "core.folds") v[name] += value;
        else v[name] = std::max(v[name], value);
      }
    }
    v["core.write_p50_ms"] = write_ms.Quantile(0.5);
    v["core.write_p99_ms"] = write_ms.Quantile(0.99);
  }
  Tracer::Get().set_enabled(false);
  double bytes = 0, triples = 0;
  if (!db->Compact().ok()) return false;
  for (int k = 0; k < kShards; ++k) {
    const auto snap = db->shard(k).snapshot();
    if (snap == nullptr) continue;
    bytes += static_cast<double>(snap->store().SizeInBytes());
    triples += static_cast<double>(snap->store().num_triples());
  }
  e2e["store_bytes_per_triple"] = Ratio(bytes, triples);
  e2e["peak_rss_mb"] = PeakRssMb();
  return true;
}

}  // namespace perfbench
