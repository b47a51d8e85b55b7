#include "layers.h"

#include <algorithm>
#include <optional>
#include <set>

#include "dist/decomposer.h"
#include "rdf/vocabulary.h"
#include "sds/bit_vector.h"
#include "sds/elias_fano.h"
#include "sds/succinct_bit_vector.h"
#include "sds/wavelet_tree.h"
#include "sparql/executor.h"
#include "sparql/sparql_parser.h"
#include "util/rng.h"

namespace perfbench {

namespace sw = sedge::workloads;
using sedge::sparql::AsTerm;
using sedge::sparql::IsVar;

namespace {

bool IsType(const sedge::sparql::TermOrVar& p) {
  return !IsVar(p) && AsTerm(p).lexical() == sedge::rdf::kRdfType;
}

bool HasId(const std::string& id, std::initializer_list<const char*> ids) {
  for (const char* x : ids) {
    if (id == x) return true;
  }
  return false;
}

}  // namespace

size_t NTriplesBytes(const sedge::rdf::Triple& t) {
  // "<s> <p> <o> .\n": two brackets per IRI, separators, terminator.
  return t.subject.lexical().size() + t.predicate.lexical().size() +
         t.object.lexical().size() + t.object.datatype().size() + 12;
}

// --------------------------------------------------------------- sparql

void ParseLayer(const std::vector<std::string>& texts, Values* out) {
  if (texts.empty()) return;
  Span span("sparql.parse_replay", Tracer::Get().NewRequest());
  Samples us;
  for (const std::string& text : texts) {
    us.Add(MedianMicros([&] { (void)sedge::sparql::ParseQuery(text); }, 3));
  }
  (*out)["sparql.parse_us"] = us.Median();
}

void SparqlLayers(sedge::Database* db,
                  const std::vector<sw::QuerySpec>& catalog, Values* out) {
  Samples plan_us;
  Samples execute_ms;
  double decode_ms = 0.0;
  double tp_merge_ms = 0.0, tp_row_ms = 0.0, tp_type_ms = 0.0;
  double tp_rows = 0.0, result_rows = 0.0;
  double routes = 0.0, routed_tps = 0.0;
  for (const sw::QuerySpec& spec : catalog) {
    auto parsed = sedge::sparql::ParseQuery(spec.sparql);
    if (!parsed.ok()) continue;
    const sedge::sparql::Query& query = parsed.value();
    sedge::sparql::Executor::Options opts;
    opts.reasoning = spec.reasoning;
    const auto snap = db->snapshot();
    {
      Span span("sparql.plan", Tracer::Get().NewRequest());
      sedge::sparql::Executor ex(snap, opts);
      plan_us.Add(MedianMicros([&] { (void)ex.PlanOrder(query.where.triples); }));
    }
    Samples encoded_ms, full_ms;
    for (int rep = 0; rep < 3; ++rep) {
      {
        Span span("sparql.execute_encoded", Tracer::Get().NewRequest());
        sedge::sparql::Executor ex(snap, opts);
        const Clock::time_point t0 = Clock::now();
        (void)ex.ExecuteEncoded(query);
        encoded_ms.Add(MillisSince(t0));
      }
      {
        Span span("sparql.execute", Tracer::Get().NewRequest());
        sedge::sparql::Executor ex(snap, opts);
        const Clock::time_point t0 = Clock::now();
        (void)ex.Execute(query);
        full_ms.Add(MillisSince(t0));
      }
    }
    execute_ms.Append(encoded_ms);
    if (HasId(spec.id, {"S14", "S15", "Q6", "Q14"})) {
      decode_ms += std::max(0.0, full_ms.Median() - encoded_ms.Median());
    }

    db->set_reasoning(spec.reasoning);
    auto profile = db->ExplainQuery(spec.sparql);
    if (!profile.ok()) continue;
    result_rows += static_cast<double>(profile.value().rows);
    const sedge::obs::ProfileNode* exec = profile.value().root.Find("execute");
    if (exec == nullptr) continue;
    const bool routed = spec.reasoning && (spec.id[0] == 'R' || spec.id[0] == 'Q');
    for (const auto& child : exec->children) {
      if (child->name.rfind("tp", 0) != 0) continue;
      const double ms = child->seconds * 1e3;
      if (child->name == "tp/merge_join") tp_merge_ms += ms;
      if (child->name == "tp/row") tp_row_ms += ms;
      if (child->name == "tp/type") tp_type_ms += ms;
      tp_rows += static_cast<double>(child->StatOr("rows_out", 0));
      if (routed) {
        routes += static_cast<double>(child->StatOr("routes", 0));
        routed_tps += 1.0;
      }
    }
  }
  db->set_reasoning(true);
  (*out)["sparql.plan_us"] = plan_us.Median();
  (*out)["sparql.execute_ms_p50"] = execute_ms.Quantile(0.5);
  (*out)["sparql.execute_ms_p99"] = execute_ms.Quantile(0.99);
  (*out)["sparql.decode_ms"] = decode_ms;
  (*out)["sparql.tp_merge_join_ms"] = tp_merge_ms;
  (*out)["sparql.tp_row_ms"] = tp_row_ms;
  (*out)["sparql.tp_type_ms"] = tp_type_ms;
  (*out)["sparql.rows_per_result"] = Ratio(tp_rows, result_rows);
  (*out)["litemat.routes_per_tp"] = Ratio(routes, routed_tps);
}

// ---------------------------------------------------------------- store

void StoreScanLayers(const sedge::store::TripleStore& store,
                     const std::vector<sw::QuerySpec>& catalog,
                     Values* out) {
  Span span("store.scan_replay", Tracer::Get().NewRequest());
  const sedge::store::PsoIndex& pso = store.object_store();
  const sedge::store::DatatypeStore& dts = store.datatype_store();
  Samples sp_ns, po_ns;
  double p_ns = 0.0, p_triples = 0.0;
  std::vector<std::pair<std::string, bool>> constants;  // (iri, is_concept)
  for (const sw::QuerySpec& spec : catalog) {
    auto parsed = sedge::sparql::ParseQuery(spec.sparql);
    if (!parsed.ok()) continue;
    for (const auto& tp : parsed.value().where.triples) {
      if (IsVar(tp.predicate)) continue;
      if (IsType(tp.predicate)) {
        if (!IsVar(tp.object)) constants.emplace_back(AsTerm(tp.object).lexical(), true);
      } else {
        constants.emplace_back(AsTerm(tp.predicate).lexical(), false);
      }
    }
    if (spec.id.size() < 2 || spec.id[0] != 'S') continue;
    const auto& tp = parsed.value().where.triples.front();
    const std::string& piri = AsTerm(tp.predicate).lexical();
    const std::optional<uint64_t> op = store.ObjectPropertyIdOf(piri);
    const std::optional<uint64_t> dp = store.DatatypePropertyIdOf(piri);
    uint64_t hits = 0;
    const auto pair_sink = [&hits](uint64_t, uint64_t) {
      ++hits;
      return true;
    };
    if (IsVar(tp.subject) && IsVar(tp.object)) {
      // S11-S15: a full predicate run.
      const double us = MedianMicros([&] {
        hits = 0;
        if (op) pso.ScanP(*op, pair_sink);
        else if (dp) dts.ScanP(*dp, pair_sink);
      }, 5);
      p_ns += us * 1e3;
      p_triples += static_cast<double>(hits);
    } else if (!IsVar(tp.subject)) {
      // S1-S5: (s, p, ?o).
      const auto s = store.EncodeInstance(AsTerm(tp.subject));
      if (!s) continue;
      sp_ns.Add(NsPerItem([&] {
        for (int i = 0; i < 64; ++i) {
          if (op) pso.ScanSP(*op, s->id, pair_sink);
          else if (dp) dts.ScanSP(*dp, s->id, pair_sink);
        }
      }, 64));
    } else {
      // S6-S10: (?s, p, o).
      const sedge::rdf::Term& o = AsTerm(tp.object);
      const auto oid = o.is_iri() ? store.EncodeInstance(o) : std::nullopt;
      po_ns.Add(NsPerItem([&] {
        for (int i = 0; i < 64; ++i) {
          if (op && oid) pso.ScanPO(*op, oid->id, pair_sink);
          else if (dp) dts.ScanPO(*dp, o, pair_sink);
        }
      }, 64));
    }
  }
  (*out)["store.scan_p_ns_per_triple"] = Ratio(p_ns, p_triples);
  (*out)["store.scan_sp_ns"] = sp_ns.Median();
  (*out)["store.scan_po_ns"] = po_ns.Median();

  Span lspan("litemat.interval_replay", Tracer::Get().NewRequest());
  size_t found = 0;
  const double ns = NsPerItem([&] {
    found = 0;
    for (const auto& [iri, concept] : constants) {
      const auto iv = concept ? store.ConceptIntervalOf(iri, true)
                              : store.ObjectPropertyIntervalOf(iri, true);
      if (iv) ++found;
      else if (!concept && store.DatatypePropertyIntervalOf(iri, true)) ++found;
    }
  }, static_cast<double>(constants.size()));
  (*out)["litemat.interval_ns"] = found > 0 ? ns : 0.0;
}

void StoreBytes(const sedge::store::TripleStore& store, Values* out) {
  (*out)["store.bytes.object"] =
      static_cast<double>(store.object_store().SizeInBytes());
  (*out)["store.bytes.datatype"] =
      static_cast<double>(store.datatype_store().SizeInBytes());
  (*out)["store.bytes.type"] =
      static_cast<double>(store.type_store().SizeInBytes());
  (*out)["store.bytes.dict"] = static_cast<double>(store.DictionarySizeInBytes());
  (*out)["store.bytes.delta"] = static_cast<double>(store.DeltaSizeInBytes());
}

void SeekBatchLayer(const sedge::store::TripleStore& store, Values* out) {
  Span span("store.seek_batch_replay", Tracer::Get().NewRequest());
  std::map<uint64_t, std::vector<uint64_t>> subjects;  // predicate -> sorted
  store.object_store().ScanAll([&](uint64_t p, uint64_t s, uint64_t) {
    std::vector<uint64_t>& v = subjects[p];
    if (v.empty() || v.back() != s) v.push_back(s);
    return true;
  });
  const sedge::store::delta::MergedObjectView base(&store.object_store(),
                                                   nullptr);
  const sedge::store::delta::MergedObjectView merged = store.object_view();
  double probes = 0.0;
  for (const auto& [p, s] : subjects) probes += static_cast<double>(s.size());
  const auto sweep = [&](const sedge::store::delta::MergedObjectView& view) {
    return NsPerItem([&] {
      for (const auto& [p, s] : subjects) {
        auto cursor = view.OpenRun(p);
        if (cursor.valid()) cursor.SeekBatch(s.data(), s.size());
      }
    }, probes, 5);
  };
  (*out)["store.seek_batch_ns_base"] = sweep(base);
  (*out)["store.seek_batch_ns_overlay"] = store.has_delta() ? sweep(merged) : 0.0;
}

// ------------------------------------------------------------------ sds

void SdsLayers(const sedge::store::PsoIndex& pso, uint64_t seed, Values* out) {
  Span span("sds.kernel_replay", Tracer::Get().NewRequest());
  std::vector<uint64_t> subjects;
  std::vector<uint64_t> run_starts;  // positions opening a (p, s) run
  sedge::sds::BitVector bits;
  uint64_t last_p = ~0ULL, last_s = ~0ULL;
  pso.ScanAll([&](uint64_t p, uint64_t s, uint64_t) {
    const bool opens = p != last_p || s != last_s;
    if (opens) run_starts.push_back(subjects.size());
    bits.PushBack(opens);
    subjects.push_back(s);
    last_p = p;
    last_s = s;
    return true;
  });
  if (subjects.size() < 2) return;
  const sedge::sds::SuccinctBitVector bv(bits);
  const sedge::sds::WaveletTree wt(subjects);
  const sedge::sds::EliasFano ef(run_starts);

  constexpr size_t kBatch = 4096;
  sedge::Rng rng(seed);
  std::vector<uint64_t> positions(kBatch), ks(kBatch), out_buf(kBatch),
      out_hi(kBatch), probes(kBatch);
  for (size_t i = 0; i < kBatch; ++i) {
    positions[i] = rng.Uniform(subjects.size());
    ks[i] = 1 + rng.Uniform(bv.ones());
    probes[i] = rng.Uniform(subjects.size());
  }
  std::sort(positions.begin(), positions.end());
  std::sort(ks.begin(), ks.end());
  // Rank-pair probes: one subject window, a sorted run of its symbols.
  const uint64_t a = rng.Uniform(subjects.size() / 2);
  const uint64_t b = std::min<uint64_t>(subjects.size(), a + 8192);
  std::set<uint64_t> window(subjects.begin() + static_cast<long>(a),
                            subjects.begin() + static_cast<long>(b));
  const std::vector<uint64_t> symbols(window.begin(), window.end());

  (*out)["sds.rank1_batch_ns"] = NsPerItem(
      [&] { bv.Rank1Batch(positions.data(), kBatch, out_buf.data()); }, kBatch);
  (*out)["sds.select1_batch_ns"] = NsPerItem(
      [&] { bv.Select1Batch(ks.data(), kBatch, out_buf.data()); }, kBatch);
  (*out)["sds.wt_access_batch_ns"] = NsPerItem(
      [&] { wt.AccessBatch(positions.data(), kBatch, out_buf.data()); },
      kBatch);
  out_buf.resize(std::max(kBatch, symbols.size()));
  out_hi.resize(out_buf.size());
  (*out)["sds.wt_rank_pair_batch_ns"] = NsPerItem(
      [&] {
        wt.RankPairBatch(a, b, symbols.data(), symbols.size(), out_buf.data(),
                         out_hi.data());
      },
      static_cast<double>(symbols.size()));
  (*out)["sds.ef_next_geq_ns"] = NsPerItem(
      [&] {
        for (const uint64_t x : probes) (void)ef.NextGeq(x);
      },
      kBatch);
}

// ------------------------------------------------------------- core, io

void CoreIoLayers(const sedge::obs::MetricsRegistry& m, double user_batches,
                  double user_bytes, double user_triples, Values* out) {
  Values& v = *out;
  v["core.isolation_fork_ms_p50"] =
      HistQuantileMs(m, "snapshot_isolation_fork_seconds", 50);
  v["core.isolation_fork_ms_p99"] =
      HistQuantileMs(m, "snapshot_isolation_fork_seconds", 99);
  v["core.fold_ms_p50"] = HistQuantileMs(m, "compaction_fold_seconds", 50);
  v["core.fold_ms_p99"] = HistQuantileMs(m, "compaction_fold_seconds", 99);
  for (const char* stage : {"dict", "type", "pso", "datatype"}) {
    v[std::string("core.fold_build_") + stage + "_ms"] = HistMeanMs(
        m, std::string("compaction_build_") + stage + "_seconds");
  }
  v["core.fold_relay_ms"] = HistMeanMs(m, "compaction_relay_seconds");
  v["core.fold_swap_ms"] = HistMeanMs(m, "compaction_swap_seconds");
  v["core.folds"] = CounterValue(m, "compactions_total");
  const sedge::obs::Histogram* folded = m.FindHistogram("compaction_fold_triples");
  v["core.fold_triples_per_user_triple"] =
      Ratio(folded != nullptr ? folded->sum() : 0.0, user_triples);

  v["io.wal_append_ms_p50"] = HistQuantileMs(m, "wal_append_seconds", 50);
  v["io.wal_append_ms_p99"] = HistQuantileMs(m, "wal_append_seconds", 99);
  v["io.wal_sync_ms_p50"] = HistQuantileMs(m, "wal_sync_seconds", 50);
  v["io.wal_sync_ms_p99"] = HistQuantileMs(m, "wal_sync_seconds", 99);
  v["io.wal_blocks_per_batch"] =
      Ratio(CounterValue(m, "wal_blocks_written_total"), user_batches);
  v["io.wal_bytes_per_user_byte"] =
      Ratio(CounterValue(m, "wal_bytes_appended_total"), user_bytes);
  v["io.checkpoint_ms_p50"] = HistQuantileMs(m, "checkpoint_seconds", 50);
  v["io.checkpoint_ms_p99"] = HistQuantileMs(m, "checkpoint_seconds", 99);
  for (const char* phase :
       {"serialize", "extent_write", "superblock_flip", "wal_truncate"}) {
    v[std::string("io.checkpoint_") + phase + "_ms"] =
        HistMeanMs(m, "checkpoint_phase_seconds",
                   std::string("phase=\"") + phase + "\"");
  }
  v["io.device_writes_per_batch"] =
      Ratio(CounterValue(m, "block_device_writes_total"), user_batches);
}

// ---------------------------------------------------------------- serve

void ServeLayers(const sedge::obs::MetricsRegistry& m, Values* out) {
  Values& v = *out;
  v["serve.queue_wait_ms_p50"] = HistQuantileMs(m, "serve_queue_wait_seconds", 50);
  v["serve.queue_wait_ms_p99"] = HistQuantileMs(m, "serve_queue_wait_seconds", 99);
  v["serve.execute_ms_p50"] = HistQuantileMs(m, "serve_execute_seconds", 50);
  v["serve.execute_ms_p99"] = HistQuantileMs(m, "serve_execute_seconds", 99);
  const double ph = CounterValue(m, "serve_plan_cache_hits_total");
  const double pm = CounterValue(m, "serve_plan_cache_misses_total");
  const double rh = CounterValue(m, "serve_result_cache_hits_total");
  const double rm = CounterValue(m, "serve_result_cache_misses_total");
  v["serve.plan_cache_hit_share"] = Ratio(ph, ph + pm);
  v["serve.result_cache_hit_share"] = Ratio(rh, rh + rm);
  v["serve.cache_invalidations"] =
      CounterValue(m, "serve_plan_cache_invalidations_total") +
      CounterValue(m, "serve_result_cache_invalidations_total");
  v["serve.rejected"] = CounterValue(m, "serve_rejected_total");
}

// ----------------------------------------------------------------- dist

void DistLayers(const sedge::ShardedDatabase& db,
                const std::vector<sw::QuerySpec>& mix, Values* out) {
  Values& v = *out;
  const sedge::obs::MetricsRegistry& m = db.metrics();
  v["dist.join_ms"] = HistMeanMs(m, "dist_join_seconds");
  v["dist.pushdown_ratio"] = GaugeValue(m, "dist_pushdown_ratio");
  const sedge::obs::Histogram* fan = m.FindHistogram("dist_fanout_shards");
  v["dist.fanout_shards"] =
      fan != nullptr && fan->count() > 0 ? fan->sum() / fan->count() : 0.0;
  v["dist.term_map_refreshes"] = GaugeValue(m, "dist_term_map_refreshes");
  v["dist.shard_skew"] = GaugeValue(m, "dist_shard_skew");

  // Replay: each query's decomposition, every group on every shard's
  // pinned snapshot, sequentially as the coordinator fans out.
  Samples shard_ms;
  Samples slowest_over_mean;
  double per_query_shard_ms = 0.0;
  size_t queries = 0;
  const sedge::sparql::Executor::Options opts = db.coordinator().exec_options();
  for (const sw::QuerySpec& spec : mix) {
    auto parsed = sedge::sparql::ParseQuery(spec.sparql);
    if (!parsed.ok()) continue;
    sedge::sparql::Executor::Options qopts = opts;
    qopts.reasoning = spec.reasoning;
    const sedge::dist::Decomposition d = sedge::dist::Decompose(
        std::move(parsed.value().where), /*colocate_subjects=*/true);
    ++queries;
    for (const sedge::dist::ShardSubquery& sub : d.groups) {
      Samples per_shard;
      for (int k = 0; k < db.num_shards(); ++k) {
        const auto snap = db.shard(k).snapshot();
        if (snap == nullptr) continue;
        Span span("dist.shard_subquery", Tracer::Get().NewRequest());
        sedge::sparql::Executor ex(snap, qopts);
        const Clock::time_point t0 = Clock::now();
        (void)ex.ExecuteEncoded(sub.query);
        const double ms = MillisSince(t0);
        per_shard.Add(ms);
        shard_ms.Add(ms);
      }
      per_query_shard_ms += per_shard.Sum();
      if (per_shard.Mean() > 0) {
        slowest_over_mean.Add(per_shard.Max() / per_shard.Mean());
      }
    }
  }
  v["dist.shard_subquery_ms_p50"] = shard_ms.Quantile(0.5);
  v["dist.shard_subquery_ms_p99"] = shard_ms.Quantile(0.99);
  v["dist.shard_slowest_over_mean"] = slowest_over_mean.Median();
  const double query_ms = HistMeanMs(m, "dist_query_seconds");
  v["dist.coordinator_self_ms"] = std::max(
      0.0, query_ms - Ratio(per_query_shard_ms, static_cast<double>(queries)) -
               v["dist.join_ms"]);
}

}  // namespace perfbench
