// lubm-hot: one closed-loop client running Database::Query (decoded
// results) over a compacted LUBM1 store with no writes. The catalog mixes
// 30 us point lookups (S1) with 120 ms joins (Q7), each query with its own
// reasoning flag; answers are checked against the baseline engine over a
// plain triple store, reasoning queries over the entailed graph.

#include <algorithm>
#include <memory>
#include <unordered_set>

#include "baselines/baseline_engine.h"
#include "baselines/rdf4j_like.h"
#include "core/database.h"
#include "layers.h"
#include "rdf/vocabulary.h"
#include "sparql/sparql_parser.h"
#include "util/rng.h"
#include "workloads.h"
#include "workloads/lubm_generator.h"

namespace perfbench {

namespace sw = sedge::workloads;

namespace {

/// `graph` plus every triple the class and property hierarchies entail.
sedge::rdf::Graph Entailed(const sedge::rdf::Graph& graph,
                           const sedge::ontology::Ontology& onto) {
  sedge::rdf::Graph out = graph;
  for (const sedge::rdf::Triple& t : graph.triples()) {
    const bool type = t.predicate.lexical() == sedge::rdf::kRdfType;
    std::vector<std::string> ups;
    std::vector<std::string> todo = {type ? t.object.lexical()
                                          : t.predicate.lexical()};
    while (!todo.empty()) {
      const std::string cur = todo.back();
      todo.pop_back();
      for (const std::string& up : type ? onto.SuperClasses(cur)
                                        : onto.SuperProperties(cur)) {
        if (std::find(ups.begin(), ups.end(), up) == ups.end()) {
          ups.push_back(up);
          todo.push_back(up);
        }
      }
    }
    for (const std::string& up : ups) {
      const sedge::rdf::Term term = sedge::rdf::Term::Iri(up);
      out.Add(t.subject, type ? t.predicate : term, type ? term : t.object);
    }
  }
  return out;
}

/// Distinct-solution counts for the catalog from the baseline engine:
/// reasoning queries over the entailed graph, the others over the plain
/// one (UINT64_MAX when the baseline cannot answer, which then fails the
/// check).
std::vector<uint64_t> BaselineCounts(const sedge::rdf::Graph& graph,
                                     const sedge::ontology::Ontology& onto,
                                     const std::vector<sw::QuerySpec>& catalog) {
  std::vector<uint64_t> counts(catalog.size(), UINT64_MAX);
  sedge::baselines::Rdf4jLikeStore plain, entailed;
  if (!plain.Build(graph).ok() || !entailed.Build(Entailed(graph, onto)).ok()) {
    return counts;
  }
  sedge::baselines::BaselineEngine plain_engine(&plain);
  sedge::baselines::BaselineEngine entailed_engine(&entailed);
  for (size_t i = 0; i < catalog.size(); ++i) {
    auto parsed = sedge::sparql::ParseQuery(catalog[i].sparql);
    if (!parsed.ok()) continue;
    parsed.value().distinct = true;
    const auto n = (catalog[i].reasoning ? entailed_engine : plain_engine)
                       .ExecuteCount(parsed.value());
    if (n.ok()) counts[i] = n.value();
  }
  return counts;
}

/// Number of distinct rows of a decoded result.
uint64_t DistinctRows(const sedge::sparql::QueryResult& result) {
  std::unordered_set<std::string> keys;
  for (const auto& row : result.rows) {
    std::string key;
    for (const auto& cell : row) {
      if (cell) key += cell->lexical() + '\x1f' + cell->datatype();
      key += '\x1e';
    }
    keys.insert(std::move(key));
  }
  return keys.size();
}

}  // namespace

bool RunLubmHot(const Options& opts, Tally* tally, RunResult* out) {
  const sedge::ontology::Ontology onto = sw::LubmGenerator::BuildOntology();
  std::unique_ptr<sedge::Database> db;
  sedge::rdf::Graph graph;
  const auto setup = [&] {
    graph = LubmGraph(opts);
    db = std::make_unique<sedge::Database>();
    db->LoadOntology(onto);
    const sedge::Status st = db->LoadData(graph);
    if (!st.ok()) std::fprintf(stderr, "lubm-hot load: %s\n", st.ToString().c_str());
    return st.ok();
  };
  const double setup_s = SetupSeconds(opts, setup);
  if (setup_s < 0 || !setup()) return false;
  const std::vector<sw::QuerySpec> catalog = LubmCatalog(graph);
  std::vector<uint64_t> expected;
  if (!RunInChild([&] { return BaselineCounts(graph, onto, catalog); },
                  &expected) ||
      expected.size() != catalog.size()) {
    std::fprintf(stderr, "lubm-hot: oracle failed\n");
    return false;
  }
  if (opts.corrupt_expected) expected[0] += 1;

  // The warm-up pass checks each answer, as a set of distinct rows,
  // against the oracle: the engine returns a solution once per stored
  // type inside a LiteMat interval, so a subject typed twice under one
  // concept may repeat. Timed runs must then reproduce the checked
  // answer's row count.
  std::vector<uint64_t> answer_rows(catalog.size(), UINT64_MAX);
  bool reasoning = db->options().reasoning;
  const auto run_one = [&](size_t i, Samples* query_ms) {
    const sw::QuerySpec& spec = catalog[i];
    if (spec.reasoning != reasoning) {
      reasoning = spec.reasoning;
      db->set_reasoning(reasoning);
    }
    Span request("bench.request", Tracer::Get().NewRequest());
    const Clock::time_point t0 = Clock::now();
    sedge::Result<sedge::sparql::QueryResult> r = [&] {
      Span span("core.query");
      return db->Query(spec.sparql);
    }();
    const double ms = MillisSince(t0);
    const uint64_t rows = r.ok() ? r.value().size() : UINT64_MAX;
    if (query_ms == nullptr) {
      tally->Check(r.ok() ? DistinctRows(r.value()) : UINT64_MAX, expected[i],
                   spec.id + " distinct rows");
      answer_rows[i] = rows;
      return;
    }
    query_ms->Add(ms);
    tally->Check(rows, answer_rows[i], spec.id);
  };

  for (size_t i = 0; i < catalog.size(); ++i) run_one(i, nullptr);
  db->reset_query_stats();

  sedge::Rng rng(DeriveSeed(opts.seed, 4));
  std::vector<size_t> order(catalog.size());
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
  e2e["store_bytes_per_triple"] =
      static_cast<double>(db->store().SizeInBytes()) /
      static_cast<double>(db->num_triples());

  if (opts.trace) {
    Values& v = out->layers;
    const sedge::sparql::ExecutorStats s = db->query_stats();
    v["sparql.merge_join_share"] =
        Ratio(static_cast<double>(s.merge_join_extends),
              static_cast<double>(s.merge_join_extends + s.row_extends));
    std::vector<std::string> texts;
    for (const sw::QuerySpec& spec : catalog) texts.push_back(spec.sparql);
    ParseLayer(texts, &v);
    SparqlLayers(db.get(), catalog, &v);
    StoreScanLayers(db->store(), catalog, &v);
    StoreBytes(db->store(), &v);
    SdsLayers(db->store().object_store(), DeriveSeed(opts.seed, 5), &v);
  }
  Tracer::Get().set_enabled(false);
  e2e["peak_rss_mb"] = PeakRssMb();
  return true;
}

}  // namespace perfbench
