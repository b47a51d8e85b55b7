// SuccinctEdge benchmark program.
//
//   perfbench --workload <lubm-hot|sensor-ingest|serve-mixed|dist-k4>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--tiny] [--corrupt-expected] [--out-dir <dir>]
//             [--source-sha <sha>] [--source-digest <hex>]
//
// Prints the environment record, then, as the last line of stdout, one
// JSON object {"correct", "attempted", "failed", "metrics"}: every
// end-to-end metric with --trace 0, every per-layer metric with
// --trace 1. The result and, when traced, the spans are also written to
// --out-dir. perfbench/run.py builds this program and is the command to
// run; see perfbench/README.md for the metric definitions.

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Reported on every workload with --trace 0.
const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"query_p50_ms", "ms"},
    {"query_p99_ms", "ms"},
    {"qps", "1/s"},
    {"store_bytes_per_triple", "B"},
    {"peak_rss_mb", "MB"},
};

// Reported on every workload with --trace 1; a layer the workload does
// not exercise reads 0.
const MetricDef kPerLayer[] = {
    {"trace.spans", "count"},
    {"trace.overhead_query_p50_ms", "ms"},
    {"trace.overhead_query_p99_ms", "ms"},
    {"trace.self_ms.bench", "ms"},
    {"trace.self_ms.core", "ms"},
    {"trace.self_ms.serve", "ms"},
    {"trace.self_ms.dist", "ms"},
    {"sparql.parse_us", "us"},
    {"sparql.plan_us", "us"},
    {"sparql.execute_ms_p50", "ms"},
    {"sparql.execute_ms_p99", "ms"},
    {"sparql.decode_ms", "ms"},
    {"sparql.tp_merge_join_ms", "ms"},
    {"sparql.tp_row_ms", "ms"},
    {"sparql.tp_type_ms", "ms"},
    {"sparql.rows_per_result", "ratio"},
    {"sparql.merge_join_share", "ratio"},
    {"store.scan_p_ns_per_triple", "ns"},
    {"store.scan_sp_ns", "ns"},
    {"store.scan_po_ns", "ns"},
    {"store.seek_batch_ns_base", "ns"},
    {"store.seek_batch_ns_overlay", "ns"},
    {"store.delta_entries", "count"},
    {"store.tombstone_ratio", "ratio"},
    {"store.bytes.object", "B"},
    {"store.bytes.datatype", "B"},
    {"store.bytes.type", "B"},
    {"store.bytes.dict", "B"},
    {"store.bytes.delta", "B"},
    {"sds.rank1_batch_ns", "ns"},
    {"sds.select1_batch_ns", "ns"},
    {"sds.wt_access_batch_ns", "ns"},
    {"sds.wt_rank_pair_batch_ns", "ns"},
    {"sds.ef_next_geq_ns", "ns"},
    {"litemat.interval_ns", "ns"},
    {"litemat.routes_per_tp", "ratio"},
    {"core.write_p50_ms", "ms"},
    {"core.write_p99_ms", "ms"},
    {"core.ingest_triples_per_s", "1/s"},
    {"core.isolation_fork_ms_p50", "ms"},
    {"core.isolation_fork_ms_p99", "ms"},
    {"core.fold_ms_p50", "ms"},
    {"core.fold_ms_p99", "ms"},
    {"core.fold_build_dict_ms", "ms"},
    {"core.fold_build_type_ms", "ms"},
    {"core.fold_build_pso_ms", "ms"},
    {"core.fold_build_datatype_ms", "ms"},
    {"core.fold_relay_ms", "ms"},
    {"core.fold_swap_ms", "ms"},
    {"core.folds", "count"},
    {"core.fold_triples_per_user_triple", "ratio"},
    {"io.wal_append_ms_p50", "ms"},
    {"io.wal_append_ms_p99", "ms"},
    {"io.wal_sync_ms_p50", "ms"},
    {"io.wal_sync_ms_p99", "ms"},
    {"io.wal_blocks_per_batch", "count"},
    {"io.wal_bytes_per_user_byte", "ratio"},
    {"io.checkpoint_ms_p50", "ms"},
    {"io.checkpoint_ms_p99", "ms"},
    {"io.checkpoint_serialize_ms", "ms"},
    {"io.checkpoint_extent_write_ms", "ms"},
    {"io.checkpoint_superblock_flip_ms", "ms"},
    {"io.checkpoint_wal_truncate_ms", "ms"},
    {"io.device_writes_per_batch", "count"},
    {"io.reopen_ms", "ms"},
    {"io.reopen_block_reads", "count"},
    {"serve.goodput_qps", "1/s"},
    {"serve.queue_wait_ms_p50", "ms"},
    {"serve.queue_wait_ms_p99", "ms"},
    {"serve.execute_ms_p50", "ms"},
    {"serve.execute_ms_p99", "ms"},
    {"serve.plan_cache_hit_share", "ratio"},
    {"serve.result_cache_hit_share", "ratio"},
    {"serve.cache_invalidations", "count"},
    {"serve.generator_lag_ms_max", "ms"},
    {"serve.rejected", "count"},
    {"dist.shard_subquery_ms_p50", "ms"},
    {"dist.shard_subquery_ms_p99", "ms"},
    {"dist.shard_slowest_over_mean", "ratio"},
    {"dist.join_ms", "ms"},
    {"dist.coordinator_self_ms", "ms"},
    {"dist.pushdown_ratio", "ratio"},
    {"dist.fanout_shards", "count"},
    {"dist.term_map_refreshes", "count"},
    {"dist.shard_skew", "ratio"},
};

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <lubm-hot|sensor-ingest|"
               "serve-mixed|dist-k4> --seed N --seconds S --trace 0|1 "
               "[--tiny] [--corrupt-expected] [--out-dir DIR]\n");
  return 2;
}

std::string MetricsJson(const perfbench::Values& values, bool trace,
                        bool* complete) {
  std::string json = "{";
  const auto emit = [&](const MetricDef& def, double value) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  json.size() > 1 ? ", " : "", def.name, value, def.unit);
    json += buf;
  };
  *complete = true;
  if (trace) {
    for (const MetricDef& def : kPerLayer) {
      const auto it = values.find(def.name);
      emit(def, it == values.end() ? 0.0 : it->second);
    }
  } else {
    for (const MetricDef& def : kEndToEnd) {
      const auto it = values.find(def.name);
      if (it == values.end()) {
        std::fprintf(stderr, "missing end-to-end metric %s\n", def.name);
        *complete = false;
        continue;
      }
      emit(def, it->second);
    }
  }
  return json + "}";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opts;
  std::string sha = "unknown", digest = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (arg == "--workload") opts.workload = next();
    else if (arg == "--seed") opts.seed = std::strtoull(next(), nullptr, 10);
    else if (arg == "--seconds") opts.seconds = std::atof(next());
    else if (arg == "--trace") opts.trace = std::atoi(next()) != 0;
    else if (arg == "--tiny") opts.tiny = true;
    else if (arg == "--corrupt-expected") opts.corrupt_expected = true;
    else if (arg == "--out-dir") opts.out_dir = next();
    else if (arg == "--source-sha") sha = next();
    else if (arg == "--source-digest") digest = next();
    else return Usage();
  }
  if (opts.seconds <= 0) return Usage();

  bool (*run)(const perfbench::Options&, perfbench::Tally*,
              perfbench::RunResult*) = nullptr;
  if (opts.workload == "lubm-hot") run = perfbench::RunLubmHot;
  if (opts.workload == "sensor-ingest") run = perfbench::RunSensorIngest;
  if (opts.workload == "serve-mixed") run = perfbench::RunServeMixed;
  if (opts.workload == "dist-k4") run = perfbench::RunDistK4;
  if (run == nullptr) return Usage();

  const std::string env = perfbench::EnvironmentJson(opts, sha, digest);
  std::printf("{\"env\": %s}\n", env.c_str());

  perfbench::Tally tally;
  perfbench::RunResult result;
  if (!run(opts, &tally, &result)) {
    std::fprintf(stderr, "workload %s could not run\n", opts.workload.c_str());
    return 1;
  }
  bool complete = false;
  const std::string metrics =
      MetricsJson(opts.trace ? result.layers : result.e2e, opts.trace,
                  &complete);
  if (!complete || tally.attempted() == 0) return 1;

  char head[160];
  std::snprintf(head, sizeof(head),
                "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, ",
                tally.failed() == 0 ? "true" : "false",
                static_cast<unsigned long long>(tally.attempted()),
                static_cast<unsigned long long>(tally.failed()));
  const std::string line = std::string(head) + "\"metrics\": " + metrics + "}";

  mkdir(opts.out_dir.c_str(), 0755);
  const std::string stem = opts.out_dir + "/" + opts.workload + "-seed" +
                           std::to_string(opts.seed) +
                           (opts.trace ? "-trace" : "");
  if (std::FILE* f = std::fopen((stem + ".json").c_str(), "w")) {
    std::fprintf(f, "{\"env\": %s, \"result\": %s}\n", env.c_str(), line.c_str());
    std::fclose(f);
  }
  if (opts.trace) perfbench::Tracer::Get().WriteJsonl(stem + ".spans.jsonl");

  std::printf("%s\n", line.c_str());
  return 0;
}
