#include "dist/coordinator.h"

#include <algorithm>
#include <optional>
#include <set>
#include <string>
#include <utility>

#include "rdf/rdf_parser.h"
#include "sparql/operators.h"
#include "sparql/sparql_parser.h"
#include "util/logging.h"

namespace sedge::dist {

namespace {

using sparql::BindingTable;
using sparql::Variable;
using store::EncodedTerm;
using store::ValueSpace;

}  // namespace

// ----------------------------------------------------------- GlobalDecoder

/// sparql::ValueDecoder over {kInstance, gid} cells, materializing terms
/// through the coordinator's dictionary.
class Coordinator::GlobalDecoder : public sparql::ValueDecoder {
 public:
  explicit GlobalDecoder(const TermMap* map) : map_(map) {}

  rdf::Term Decode(const EncodedTerm& value) const override {
    if (value.space == ValueSpace::kUnbound) return rdf::Term::Iri("");
    return map_->TermOf(value.id);
  }

  std::optional<double> Numeric(const EncodedTerm& value) const override {
    if (value.space == ValueSpace::kUnbound) return std::nullopt;
    const rdf::Term term = map_->TermOf(value.id);
    if (!term.IsNumericLiteral()) return std::nullopt;
    return term.AsDouble();
  }

  std::string Str(const EncodedTerm& value) const override {
    if (value.space == ValueSpace::kUnbound) return "";
    return map_->TermOf(value.id).lexical();
  }

 private:
  const TermMap* map_;
};

// ------------------------------------------------------------ Construction

Coordinator::Coordinator(CoordinatorOptions options)
    : partitioner_(options.partition),
      term_map_(partitioner_.num_shards()) {
  {
    util::MutexLock lk(&opt_mu_);
    exec_options_ = options.exec;
  }
  const int n = partitioner_.num_shards();
  shards_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<Database>());
  }

  met_.queries_total = metrics_.GetCounter("dist_queries_total");
  met_.subqueries_total = metrics_.GetCounter("dist_subqueries_total");
  met_.patterns_total = metrics_.GetCounter("dist_patterns_total");
  met_.pushed_join_edges_total =
      metrics_.GetCounter("dist_pushed_join_edges_total");
  met_.pushed_filters_total = metrics_.GetCounter("dist_pushed_filters_total");
  met_.type_pushdowns_total = metrics_.GetCounter("dist_type_pushdowns_total");
  met_.join_hash_total = metrics_.GetCounter("dist_join_hash_total");
  met_.union_dedup_rows_total =
      metrics_.GetCounter("dist_union_dedup_rows_total");
  met_.inserts_routed_total = metrics_.GetCounter("dist_inserts_routed_total");
  met_.removes_routed_total = metrics_.GetCounter("dist_removes_routed_total");
  met_.query_seconds = metrics_.GetHistogram("dist_query_seconds",
                                             obs::Histogram::Unit::kSeconds);
  met_.join_seconds = metrics_.GetHistogram("dist_join_seconds",
                                            obs::Histogram::Unit::kSeconds);
  met_.fanout_shards = metrics_.GetHistogram("dist_fanout_shards",
                                             obs::Histogram::Unit::kCount);
  met_.pushdown_ratio = metrics_.GetGauge("dist_pushdown_ratio");
  met_.shards = metrics_.GetGauge("dist_shards");
  met_.shards->Set(n);
  met_.term_map_terms = metrics_.GetGauge("dist_term_map_terms");
  met_.term_map_refreshes = metrics_.GetGauge("dist_term_map_refreshes");
  met_.skew = metrics_.GetGauge("dist_shard_skew");
  met_.shard_triples.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    met_.shard_triples.push_back(metrics_.GetGauge(
        "dist_shard_triples", "shard=\"" + std::to_string(i) + "\""));
  }
}

Coordinator::~Coordinator() {
  for (auto& shard : shards_) {
    if (shard) (void)shard->WaitForCompaction();
  }
}

// ------------------------------------------------------------------- Setup

void Coordinator::LoadOntology(const ontology::Ontology& onto) {
  util::MutexLock lk(&write_mu_);
  for (auto& shard : shards_) shard->LoadOntology(onto);
  version_.fetch_add(1);
}

Status Coordinator::LoadOntologyTurtle(std::string_view text) {
  util::MutexLock lk(&write_mu_);
  for (auto& shard : shards_) {
    SEDGE_RETURN_NOT_OK(shard->LoadOntologyTurtle(text));
  }
  version_.fetch_add(1);
  return Status::OK();
}

Status Coordinator::LoadData(const rdf::Graph& graph) {
  util::MutexLock lk(&write_mu_);
  std::vector<rdf::Graph> parts(static_cast<size_t>(num_shards()));
  if (partitioner_.cloud_shard() >= 0) {
    parts[static_cast<size_t>(partitioner_.cloud_shard())] = graph;
  } else {
    for (const rdf::Triple& t : graph.triples()) {
      parts[static_cast<size_t>(partitioner_.ShardOf(t))].Add(t);
    }
  }
  for (size_t i = 0; i < shards_.size(); ++i) {
    SEDGE_RETURN_NOT_OK(shards_[i]->LoadData(parts[i]));
  }
  version_.fetch_add(1);
  UpdateSkewGaugesLocked();
  return Status::OK();
}

Status Coordinator::LoadDataTurtle(std::string_view text) {
  SEDGE_ASSIGN_OR_RETURN(rdf::Graph graph, rdf::ParseTurtle(text));
  return LoadData(graph);
}

// ------------------------------------------------------------------ Writes

Status Coordinator::Insert(const rdf::Graph& graph,
                           Database::InsertReport* report) {
  util::MutexLock lk(&write_mu_);
  std::vector<rdf::Graph> parts(static_cast<size_t>(num_shards()));
  for (const rdf::Triple& t : graph.triples()) {
    parts[static_cast<size_t>(partitioner_.ShardOf(t))].Add(t);
  }
  Database::InsertReport total;
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (parts[i].empty()) continue;
    Database::InsertReport r;
    SEDGE_RETURN_NOT_OK(shards_[i]->Insert(parts[i], &r));
    total.applied += r.applied;
    total.deferred_provisional += r.deferred_provisional;
    total.rejected += r.rejected;
    total.admitted_terms += r.admitted_terms;
    met_.inserts_routed_total->Add(parts[i].size());
  }
  version_.fetch_add(1);
  UpdateSkewGaugesLocked();
  if (report != nullptr) *report = total;
  return Status::OK();
}

Status Coordinator::Insert(const rdf::Triple& triple,
                           Database::InsertReport* report) {
  rdf::Graph g;
  g.Add(triple);
  return Insert(g, report);
}

Status Coordinator::InsertTurtle(std::string_view text,
                                 Database::InsertReport* report) {
  SEDGE_ASSIGN_OR_RETURN(rdf::Graph graph, rdf::ParseTurtle(text));
  return Insert(graph, report);
}

Status Coordinator::Remove(const rdf::Graph& graph) {
  util::MutexLock lk(&write_mu_);
  std::vector<rdf::Graph> parts(static_cast<size_t>(num_shards()));
  const int cloud = partitioner_.cloud_shard();
  for (const rdf::Triple& t : graph.triples()) {
    parts[static_cast<size_t>(partitioner_.ShardOf(t))].Add(t);
    if (cloud >= 0) parts[static_cast<size_t>(cloud)].Add(t);
  }
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (parts[i].empty() || !shards_[i]->has_data()) continue;
    SEDGE_RETURN_NOT_OK(shards_[i]->Remove(parts[i]));
    met_.removes_routed_total->Add(parts[i].size());
  }
  version_.fetch_add(1);
  UpdateSkewGaugesLocked();
  return Status::OK();
}

Status Coordinator::Remove(const rdf::Triple& triple) {
  rdf::Graph g;
  g.Add(triple);
  return Remove(g);
}

Status Coordinator::RemoveTurtle(std::string_view text) {
  SEDGE_ASSIGN_OR_RETURN(rdf::Graph graph, rdf::ParseTurtle(text));
  return Remove(graph);
}

// -------------------------------------------------------------- Compaction

Status Coordinator::Compact() {
  for (auto& shard : shards_) {
    SEDGE_RETURN_NOT_OK(shard->WaitForCompaction());
    SEDGE_RETURN_NOT_OK(shard->Compact());
  }
  return Status::OK();
}

Status Coordinator::CompactShardAsync(int shard) {
  if (shard < 0 || shard >= num_shards()) {
    return Status::InvalidArgument("no such shard");
  }
  return shards_[static_cast<size_t>(shard)]->CompactAsync();
}

Status Coordinator::CompactAsync() {
  for (auto& shard : shards_) {
    SEDGE_RETURN_NOT_OK(shard->CompactAsync());
  }
  return Status::OK();
}

Status Coordinator::WaitForCompactions() {
  for (auto& shard : shards_) {
    SEDGE_RETURN_NOT_OK(shard->WaitForCompaction());
  }
  return Status::OK();
}

// ----------------------------------------------------------- Configuration

void Coordinator::set_snapshot_isolation(bool on) {
  for (auto& shard : shards_) shard->set_snapshot_isolation(on);
}

void Coordinator::set_async_compaction(bool on) {
  for (auto& shard : shards_) shard->set_async_compaction(on);
}

void Coordinator::set_compaction_ratio(double ratio) {
  for (auto& shard : shards_) shard->set_compaction_ratio(ratio);
}

void Coordinator::set_reasoning(bool on) {
  {
    util::MutexLock lk(&opt_mu_);
    exec_options_.reasoning = on;
  }
  for (auto& shard : shards_) shard->set_reasoning(on);
}

void Coordinator::set_merge_join(bool on) {
  {
    util::MutexLock lk(&opt_mu_);
    exec_options_.merge_join = on;
  }
  for (auto& shard : shards_) shard->set_merge_join(on);
}

void Coordinator::set_optimizer(bool on) {
  {
    util::MutexLock lk(&opt_mu_);
    exec_options_.use_optimizer = on;
  }
  for (auto& shard : shards_) shard->set_optimizer(on);
}

sparql::Executor::Options Coordinator::exec_options() const {
  util::MutexLock lk(&opt_mu_);
  return exec_options_;
}

// ----------------------------------------------------------- Introspection

uint64_t Coordinator::num_triples() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->num_triples();
  return total;
}

bool Coordinator::has_data() const {
  for (const auto& shard : shards_) {
    if (shard->has_data()) return true;
  }
  return false;
}

void Coordinator::UpdateSkewGaugesLocked() {
  uint64_t total = 0;
  uint64_t max_shard = 0;
  for (size_t i = 0; i < shards_.size(); ++i) {
    const uint64_t n = shards_[i]->num_triples();
    met_.shard_triples[i]->Set(static_cast<double>(n));
    total += n;
    max_shard = std::max(max_shard, n);
  }
  const double mean =
      static_cast<double>(total) / static_cast<double>(shards_.size());
  met_.skew->Set(mean > 0 ? static_cast<double>(max_shard) / mean : 0.0);
}

// ---------------------------------------------------------------- Querying

Coordinator::ShardPins Coordinator::PinShards() const {
  // Under write_mu_ so a multi-shard write batch is atomic to queries:
  // every pin predates the batch or every pin includes it, never a torn
  // mix across shards. The critical section is K lock-free snapshot
  // loads — execution runs entirely outside the lock.
  util::MutexLock lk(&write_mu_);
  ShardPins pins;
  pins.reserve(shards_.size());
  for (const auto& shard : shards_) pins.push_back(shard->snapshot());
  return pins;
}

Result<BindingTable> Coordinator::FanOutSubquery(
    const ShardSubquery& sub, const ShardPins& pins) const {
  BindingTable out;
  out.vars = sub.vars;
  const sparql::Executor::Options options = exec_options();
  // With a cloud base shard a triple can live on two shards, so a whole
  // star-group assignment can surface twice; dedup restores the set
  // semantics a single store would produce. (Within one shard a group's
  // rows are already distinct: the projection keeps every group variable,
  // so a row determines the exact triples it matched, and the store holds
  // each triple once.) Pure routing places each triple on one shard only
  // — concatenation is already exact there.
  const bool dedupe = partitioner_.cloud_shard() >= 0;
  std::set<std::vector<EncodedTerm>> seen;
  for (size_t s = 0; s < pins.size(); ++s) {
    const auto& pin = pins[s];
    if (pin == nullptr) continue;  // shard has no data yet
    sparql::Executor executor(pin, options);
    SEDGE_ASSIGN_OR_RETURN(BindingTable table,
                           executor.ExecuteEncoded(sub.query));
    met_.subqueries_total->Increment();
    shards_[s]->AccumulateQueryStats(executor);
    const uint64_t gen = pin->number();
    const store::TripleStore& store = pin->store();
    for (auto& row : table.rows) {
      for (EncodedTerm& cell : row) {
        if (cell.space == ValueSpace::kUnbound) continue;
        cell = {ValueSpace::kInstance,
                term_map_.MapShardValue(static_cast<int>(s), gen, store,
                                        cell)};
      }
      if (dedupe && !seen.insert(row).second) {
        met_.union_dedup_rows_total->Increment();
        continue;
      }
      out.rows.push_back(std::move(row));
    }
  }
  return out;
}

BindingTable Coordinator::JoinGroups(std::vector<BindingTable> tables,
                                     const sparql::ValueDecoder& decoder) const {
  if (tables.empty()) return BindingTable::Unit();
  obs::ScopedSpan span(met_.join_seconds);
  const auto connected = [](const BindingTable& a, const BindingTable& b) {
    return std::any_of(b.vars.begin(), b.vars.end(),
                       [&a](const Variable& v) { return a.IndexOf(v) >= 0; });
  };
  // Greedy order: start from the smallest group, then always join in the
  // smallest *connected* remaining table (cartesian only as a last
  // resort) — the coordinator-side analogue of the shard optimizer's
  // cardinality heuristic.
  size_t first = 0;
  for (size_t i = 1; i < tables.size(); ++i) {
    if (tables[i].rows.size() < tables[first].rows.size()) first = i;
  }
  BindingTable acc = std::move(tables[first]);
  tables.erase(tables.begin() + static_cast<ptrdiff_t>(first));
  while (!tables.empty()) {
    size_t best = 0;
    bool best_connected = false;
    bool have_best = false;
    for (size_t i = 0; i < tables.size(); ++i) {
      const bool is_connected = connected(acc, tables[i]);
      const bool better =
          !have_best || (is_connected && !best_connected) ||
          (is_connected == best_connected &&
           tables[i].rows.size() < tables[best].rows.size());
      if (better) {
        best = i;
        best_connected = is_connected;
        have_best = true;
      }
    }
    BindingTable next = std::move(tables[best]);
    tables.erase(tables.begin() + static_cast<ptrdiff_t>(best));
    met_.join_hash_total->Increment();
    acc = sparql::HashJoin(std::move(acc), std::move(next), decoder);
  }
  return acc;
}

Result<BindingTable> Coordinator::EvaluateGroupDist(
    sparql::GroupPattern group, const ShardPins& pins) const {
  Decomposition dec =
      Decompose(std::move(group), partitioner_.colocates_subjects());
  met_.patterns_total->Add(dec.patterns_total);
  met_.pushed_join_edges_total->Add(dec.pushed_join_edges);
  for (const ShardSubquery& g : dec.groups) {
    met_.pushed_filters_total->Add(g.pushed_filters);
    met_.type_pushdowns_total->Add(g.type_patterns);
  }

  std::vector<BindingTable> tables;
  tables.reserve(dec.groups.size());
  for (const ShardSubquery& g : dec.groups) {
    SEDGE_ASSIGN_OR_RETURN(BindingTable t, FanOutSubquery(g, pins));
    tables.push_back(std::move(t));
  }
  const GlobalDecoder decoder(&term_map_);
  BindingTable table = JoinGroups(std::move(tables), decoder);

  // The residual: each UNION alternative is a distributed group of its
  // own (one more coordinator join per block); BIND values intern into
  // the term map.
  met_.join_hash_total->Add(dec.residual.unions.size());
  const auto evaluate_alternative = [&](size_t block, size_t alt) {
    return EvaluateGroupDist(
        std::move(dec.residual.unions[block].alternatives[alt]), pins);
  };
  const auto encode = [this](rdf::Term term, std::optional<double>) {
    return EncodedTerm{ValueSpace::kInstance, term_map_.InternTerm(term)};
  };
  SEDGE_RETURN_NOT_OK(sparql::FinishGroup(dec.residual, evaluate_alternative,
                                          decoder, encode, &table));
  return table;
}

Result<BindingTable> Coordinator::ExecuteDistributed(
    sparql::Query query) const {
  const ShardPins pins = PinShards();
  uint64_t active = 0;
  for (const auto& pin : pins) {
    if (pin != nullptr) ++active;
  }
  if (active == 0) return Status::InvalidArgument("no data loaded");
  met_.fanout_shards->RecordValue(active);

  // Resolve SELECT * before the where-group is consumed below.
  if (query.select.empty()) query.select = query.MentionedVariables();
  SEDGE_ASSIGN_OR_RETURN(BindingTable table,
                         EvaluateGroupDist(std::move(query.where), pins));
  table = sparql::ApplyModifiers(std::move(table), query,
                                 GlobalDecoder(&term_map_));

  met_.queries_total->Increment();
  const double pushed =
      static_cast<double>(met_.pushed_join_edges_total->value());
  const double coordinated =
      static_cast<double>(met_.join_hash_total->value());
  met_.pushdown_ratio->Set(pushed / std::max(1.0, pushed + coordinated));
  met_.term_map_terms->Set(static_cast<double>(term_map_.size()));
  met_.term_map_refreshes->Set(static_cast<double>(term_map_.refreshes()));
  return table;
}

Result<sparql::QueryResult> Coordinator::Query(std::string_view sparql) const {
  obs::ScopedSpan span(met_.query_seconds);
  SEDGE_ASSIGN_OR_RETURN(sparql::Query query, sparql::ParseQuery(sparql));
  SEDGE_ASSIGN_OR_RETURN(BindingTable table,
                         ExecuteDistributed(std::move(query)));
  return sparql::DecodeTable(table, GlobalDecoder(&term_map_));
}

Result<uint64_t> Coordinator::QueryCount(std::string_view sparql) const {
  obs::ScopedSpan span(met_.query_seconds);
  SEDGE_ASSIGN_OR_RETURN(sparql::Query query, sparql::ParseQuery(sparql));
  SEDGE_ASSIGN_OR_RETURN(BindingTable table,
                         ExecuteDistributed(std::move(query)));
  return static_cast<uint64_t>(table.rows.size());
}

}  // namespace sedge::dist
