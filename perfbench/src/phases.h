// The three measurement phases every perfbench run goes through. A workload
// names the phase it runs first and at full scale; the others follow at
// reduced scale, so that every run reports every metric.
#ifndef PERFBENCH_PHASES_H_
#define PERFBENCH_PHASES_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "harness.h"
#include "mth/runner.h"

namespace perfbench {

using mtbase::Result;
using mtbase::Status;

/// State shared by the phases of one run.
///
/// The databases are MT-H dbgen output at dbgen's fixed default seed, as
/// TPC-H's dbgen fixes its data: the 22 queries' cost then does not move
/// with the run's seed. `seed` drives every random choice of the workloads
/// instead: query order, arrival schedule, session tenants, target rows.
struct RunContext {
  uint64_t seed = 1;
  bool trace = false;  // traced run: record spans, take per-layer metrics
  int nproc = 1;
  Tally tally;
  SpanLog spans{false};
  SpeedProbe probe;
  MetricSet end_to_end;
  MetricSet per_layer;
  /// Reproducibility header fields (key, JSON value) in emission order.
  std::vector<std::pair<std::string, std::string>> header;
  /// Human-readable report lines (percentile sample counts and the like).
  std::vector<std::string> notes;
};

/// Medians over a phase's repeated set-ups, in seconds.
struct SetupTiming {
  double setup_s = 0;  // generate + load (+ baseline load)
  double generate_s = 0;
  double load_s = 0;
  double load_tpch_s = 0;  // 0 when the phase loads no TPC-H baseline
};

/// Generate and load `setups` fresh MT-H environments for `cfg` (the
/// previous one is freed before the next is built), timing each step;
/// returns the last one and, through `timing`, the per-step medians.
Result<std::unique_ptr<mtbase::mth::MthEnvironment>> SetUp(
    const mtbase::mth::MthConfig& cfg, bool with_baseline, int setups,
    RunContext* ctx, SetupTiming* timing);

/// mth-paper: the 22 MT-H queries as warm prepared statements at canonical
/// and o4 and on the TPC-H baseline, serial, client 1, SCOPE "IN ()".
struct PaperOptions {
  double sf = 0.01;
  double seconds = 10;  // measured passes continue until this has elapsed
  int setups = 1;
};
Result<SetupTiming> RunPaper(const PaperOptions& options, RunContext* ctx);

/// The serving_bench statement mix as an open loop with
/// seeded Poisson arrivals at a fixed offered rate.
struct ServingOptions {
  double seconds = 10;  // arrival window
  int setups = 1;
};
Result<SetupTiming> RunServing(const ServingOptions& options,
                               RunContext* ctx);

/// tenant-dml: one closed-loop client cycling own-scope UPDATE / INSERT /
/// DELETE / SUM over the tenants of a ttid-hash-partitioned MT-H database.
struct DmlOptions {
  double sf = 0.01;
  double seconds = 10;
  int setups = 1;
};
Result<SetupTiming> RunDml(const DmlOptions& options, RunContext* ctx);

}  // namespace perfbench

#endif  // PERFBENCH_PHASES_H_
