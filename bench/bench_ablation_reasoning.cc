// Ablation: LiteMat interval reasoning vs UNION rewriting on the same
// engine (SuccinctEdge), isolating the encoding's contribution from the
// store differences that Figure 14 mixes in.

#include "bench/bench_util.h"
#include "sparql/executor.h"
#include "sparql/union_rewriter.h"
#include "workloads/lubm_queries.h"

int main() {
  using namespace sedge;
  const rdf::Graph& graph = bench::LubmFull();
  const ontology::Ontology onto = workloads::LubmGenerator::BuildOntology();
  Database db;
  db.LoadOntology(onto);
  SEDGE_CHECK(db.LoadData(graph).ok());

  std::printf("=== Ablation: LiteMat intervals vs UNION rewriting, both on "
              "SuccinctEdge (ms) ===\n");
  bench::PrintRow("query", {"LiteMat", "UNION-rewritten", "branches"});
  for (const auto& spec : workloads::LubmQueries::Reasoning(graph)) {
    auto parsed = sparql::ParseQuery(spec.sparql);
    SEDGE_CHECK(parsed.ok());
    auto expanded = sparql::RewriteWithUnions(parsed.value(), onto);
    SEDGE_CHECK(expanded.ok());
    const size_t branches =
        expanded.value().where.unions.empty()
            ? 1
            : expanded.value().where.unions[0].alternatives.size();

    db.set_reasoning(true);
    const double native_ms = bench::MedianMillis([&] {
      const auto r = db.QueryCount(spec.sparql);
      SEDGE_CHECK(r.ok());
    });
    // Rewritten query evaluated with reasoning off: entailment comes from
    // the UNION branches alone.
    db.set_reasoning(false);
    sparql::Executor::Options opts;
    opts.reasoning = false;
    const double rewritten_ms = bench::MedianMillis([&] {
      sparql::Executor executor(db.snapshot(), opts);
      const auto r = executor.ExecuteEncoded(expanded.value());
      SEDGE_CHECK(r.ok());
    });
    bench::PrintRow(spec.id, {bench::FormatMs(native_ms),
                              bench::FormatMs(rewritten_ms),
                              std::to_string(branches)});
  }
  return 0;
}
