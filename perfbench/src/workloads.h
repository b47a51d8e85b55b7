// The four benchmark workloads. Each one sets itself up from the seed,
// measures for the requested time, checks every answer against an
// oracle, and fills the end-to-end values (and, when traced, the
// per-layer values) it can measure.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <functional>
#include <string>
#include <vector>

#include "harness.h"
#include "rdf/triple.h"
#include "workloads/lubm_queries.h"

namespace perfbench {

struct RunResult {
  Values e2e;
  Values layers;
};

/// Returns false when the workload could not run at all (set-up error);
/// answer mismatches and failed operations go to `tally` instead.
bool RunLubmHot(const Options& opts, Tally* tally, RunResult* out);
bool RunSensorIngest(const Options& opts, Tally* tally, RunResult* out);
bool RunServeMixed(const Options& opts, Tally* tally, RunResult* out);
bool RunDistK4(const Options& opts, Tally* tally, RunResult* out);

// -- Shared between workloads -------------------------------------------

/// LUBM1 (one university; two departments at self-test size) for `seed`.
sedge::rdf::Graph LubmGraph(const Options& opts);

/// The lubm-hot catalog: Standard14 Q1-Q14, then the paper's S1-S15,
/// M1-M5 and R1-R6, each with its own reasoning flag.
std::vector<sedge::workloads::QuerySpec> LubmCatalog(
    const sedge::rdf::Graph& graph);

/// Query latencies of one measurement window and its wall time.
struct Window {
  Samples query_ms;
  double seconds = 0.0;
};

/// A run's windows. The measured time is split into equal windows;
/// query_p50_ms and qps are medians over windows of each window's figure,
/// so a burst of machine noise in one window does not move them, and
/// query_p99_ms is taken over every untraced sample, so that more than
/// ten samples lie beyond it.
/// A traced run measures its first half untraced and its second half
/// traced (the tracer stays on afterwards, for the replays).
struct Phases {
  std::vector<Window> untraced;
  std::vector<Window> traced;
};
Phases MeasureWindows(const Options& opts,
                      const std::function<Window(double seconds)>& measure);

/// Sets query_p50_ms, query_p99_ms and qps (completed queries per second)
/// from the untraced windows, and when traced the trace.* values:
/// overhead (traced minus untraced), per-layer self time and span count.
void SetQueryValues(const Phases& phases, RunResult* out);

/// setup_s: the median of nine timed set-ups (one at self-test size),
/// each in its own forked child so that their allocations never reach the
/// parent's peak memory. 0 for traced runs, which do not report it;
/// negative when a set-up failed.
double SetupSeconds(const Options& opts, const std::function<bool()>& setup);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
