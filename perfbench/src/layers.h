// Per-layer replays: the workload's access pattern re-run against a
// lower module's public API (sparql parser/executor, store scans and
// merged views, sds kernels, LiteMat intervals), plus readers of the
// engine's existing registry series.

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <string>
#include <vector>

#include "core/database.h"
#include "core/sharded_database.h"
#include "harness.h"
#include "obs/metrics.h"
#include "store/triple_store.h"
#include "workloads/lubm_queries.h"

namespace perfbench {

/// sparql.parse_us: median ParseQuery time over `texts`.
void ParseLayer(const std::vector<std::string>& texts, Values* out);

/// sparql.{plan_us, execute_ms_p50/p99, decode_ms, tp_*_ms,
/// rows_per_result} and litemat.routes_per_tp over the catalog, each
/// query run on `db`'s pinned snapshot with its own reasoning flag.
/// Leaves `db` with reasoning on.
void SparqlLayers(sedge::Database* db,
                  const std::vector<sedge::workloads::QuerySpec>& catalog,
                  Values* out);

/// store.scan_{p_ns_per_triple, sp_ns, po_ns} over the S1-S15 predicates
/// and constants; litemat.interval_ns over the catalog's constants.
void StoreScanLayers(const sedge::store::TripleStore& store,
                     const std::vector<sedge::workloads::QuerySpec>& catalog,
                     Values* out);

/// store.bytes.{object,datatype,type,dict,delta}.
void StoreBytes(const sedge::store::TripleStore& store, Values* out);

/// store.seek_batch_ns_{base,overlay}: SeekBatch over every object
/// predicate's base subjects, on the base alone and on the live merged
/// view of `store`.
void SeekBatchLayer(const sedge::store::TripleStore& store, Values* out);

/// sds.* batch kernels on structures rebuilt from the PSO columns.
void SdsLayers(const sedge::store::PsoIndex& pso, uint64_t seed, Values* out);

/// core.* and io.* from a Database registry (`user_batches` write
/// batches carrying `user_bytes` of N-Triples text; `user_triples`
/// inserted plus removed).
void CoreIoLayers(const sedge::obs::MetricsRegistry& m, double user_batches,
                  double user_bytes, double user_triples, Values* out);

/// serve.* from the registry a QueryService records into.
void ServeLayers(const sedge::obs::MetricsRegistry& m, Values* out);

/// dist.* from the coordinator registry, plus the per-shard replay of
/// dist::Decompose output on each shard's pinned snapshot.
void DistLayers(const sedge::ShardedDatabase& db,
                const std::vector<sedge::workloads::QuerySpec>& mix,
                Values* out);

/// Bytes of `t` written as one N-Triples line (user data volume).
size_t NTriplesBytes(const sedge::rdf::Triple& t);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
