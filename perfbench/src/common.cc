#include <algorithm>

#include "workloads.h"
#include "workloads/lubm_generator.h"

namespace perfbench {

sedge::rdf::Graph LubmGraph(const Options& opts) {
  sedge::workloads::LubmConfig config;
  config.seed = DeriveSeed(opts.seed, 1);
  if (opts.tiny) config.departments_per_university = 2;
  return sedge::workloads::LubmGenerator::Generate(config);
}

std::vector<sedge::workloads::QuerySpec> LubmCatalog(
    const sedge::rdf::Graph& graph) {
  std::vector<sedge::workloads::QuerySpec> catalog =
      sedge::workloads::LubmQueries::Standard14(graph);
  for (auto& spec : sedge::workloads::LubmQueries::All(graph)) {
    catalog.push_back(std::move(spec));
  }
  return catalog;
}

Phases MeasureWindows(const Options& opts,
                      const std::function<Window(double seconds)>& measure) {
  const int windows = opts.tiny ? 2 : 8;
  const double each = opts.seconds / windows;
  Phases phases;
  for (int w = 0; w < windows; ++w) {
    const bool traced = opts.trace && w >= windows / 2;
    Tracer::Get().set_enabled(traced);
    (traced ? phases.traced : phases.untraced).push_back(measure(each));
  }
  return phases;
}

void SetQueryValues(const Phases& phases, RunResult* out) {
  Samples p50, qps, untraced, traced;
  for (const Window& w : phases.untraced) {
    p50.Add(w.query_ms.Quantile(0.5));
    qps.Add(static_cast<double>(w.query_ms.size()) / w.seconds);
    untraced.Append(w.query_ms);
  }
  out->e2e["query_p50_ms"] = p50.Median();
  out->e2e["query_p99_ms"] = untraced.Quantile(0.99);
  out->e2e["qps"] = qps.Median();
  if (phases.traced.empty()) return;

  for (const Window& w : phases.traced) traced.Append(w.query_ms);
  Values& v = out->layers;
  v["trace.overhead_query_p50_ms"] =
      traced.Quantile(0.5) - untraced.Quantile(0.5);
  v["trace.overhead_query_p99_ms"] =
      traced.Quantile(0.99) - untraced.Quantile(0.99);
  const Tracer& t = Tracer::Get();
  v["trace.spans"] = static_cast<double>(t.size());
  const double requests = static_cast<double>(std::max<size_t>(1, t.requests()));
  const std::map<std::string, double> self = t.SelfSecondsByLayer();
  for (const char* layer : {"bench", "core", "serve", "dist"}) {
    const auto it = self.find(layer);
    v[std::string("trace.self_ms.") + layer] =
        it == self.end() ? 0.0 : it->second * 1e3 / requests;
  }
}

double SetupSeconds(const Options& opts, const std::function<bool()>& setup) {
  if (opts.trace) return 0.0;
  Samples seconds;
  for (int rep = 0; rep < (opts.tiny ? 1 : 9); ++rep) {
    std::vector<uint64_t> ns;
    const bool ran = RunInChild(
        [&] {
          const Clock::time_point t0 = Clock::now();
          const bool ok = setup();
          return std::vector<uint64_t>{
              ok ? static_cast<uint64_t>(SecondsSince(t0) * 1e9) : UINT64_MAX};
        },
        &ns);
    if (!ran || ns.size() != 1 || ns[0] == UINT64_MAX) return -1.0;
    seconds.Add(static_cast<double>(ns[0]) * 1e-9);
  }
  return seconds.Median();
}

}  // namespace perfbench
