// perfbench: the repository benchmark (plain main, no external
// benchmark library).
//
//   perfbench --workload mth-paper|tenant-dml --seed N
//             --seconds S --trace 0|1 [--tiny] [--commit ID] [--spans PATH]
//
// Every run goes through the three phases (paper.cc, serving.cc, dml.cc),
// so that every run reports every metric; the workload picks the phase that
// runs first, at full scale. Output: a reproducibility header line, `#`
// report lines, and as the last line one JSON object {"correct",
// "attempted", "failed", "metrics"} holding the end-to-end metrics
// (--trace 0) or the per-layer metrics (--trace 1). A traced run also
// writes its spans to --spans.
//
// --tiny shrinks every phase for the smoke test.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "engine/verify/verifier.h"
#include "mt/audit/audit.h"
#include "phases.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;  // NOLINT

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  std::string commit = "unknown";
  std::string spans_path;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      a->tiny = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a->workload = v;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v, &end, 10);
      have_seed = *end == '\0';
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(v, &end);
      have_seconds = *end == '\0' && a->seconds > 0 && a->seconds <= 600;
    } else if (flag == "--trace") {
      a->trace = std::strcmp(v, "1") == 0;
      have_trace = a->trace || std::strcmp(v, "0") == 0;
    } else if (flag == "--commit") {
      a->commit = v;
    } else if (flag == "--spans") {
      a->spans_path = v;
    } else {
      return false;
    }
  }
  return have_seed && have_seconds && have_trace &&
         (a->workload == "mth-paper" || a->workload == "tenant-dml");
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload mth-paper|tenant-dml "
                 "--seed N --seconds S --trace 0|1 [--tiny] "
                 "[--commit ID] [--spans PATH]\n");
    return 2;
  }
#ifndef NDEBUG
  std::fprintf(stderr, "perfbench: refusing to measure a build without "
                       "NDEBUG (debug builds force the auditor and verifier "
                       "on, a different program)\n");
  return 3;
#endif
  // The gates must take their build defaults; a library built without NDEBUG
  // turns both on by default even when perfbench was built with it.
  for (const char* var : {"MTBASE_VERIFY_PLANS", "MTBASE_AUDIT_REWRITES",
                          "MTBASE_TRACE", "MTBASE_THREADS",
                          "MTBASE_MAX_CONCURRENT_STATEMENTS"}) {
    unsetenv(var);
  }
  if (mtbase::engine::verify::VerificationEnabled() ||
      mtbase::mt::audit::AuditEnabled()) {
    std::fprintf(stderr, "perfbench: refusing to measure libraries built "
                         "without NDEBUG\n");
    return 3;
  }

  RunContext ctx;
  ctx.seed = args.seed;
  ctx.trace = args.trace;
  ctx.nproc =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  ctx.spans.set_enabled(args.trace);

  // The workload's own phase runs first, at sf 0.01 and with repeated
  // set-ups; the other phases follow at sf 0.002. The serving phase (always
  // sf 0.002) runs second. Every phase measures for a full window, except
  // that one mth-paper pass at sf 0.01 outlasts it: that phase measures one
  // pass.
  enum Phase { kPaper = 0, kServing = 1, kDml = 2 };
  const double r = args.seconds;
  const int setups = args.tiny ? 1 : 5;
  const double follower_sf = args.tiny ? 0.001 : 0.002;
  const double own_sf = args.tiny ? 0.002 : 0.01;
  PaperOptions paper{follower_sf, r, 1};
  ServingOptions serving{r, 1};
  DmlOptions dml{follower_sf, r, 1};
  std::vector<Phase> order;
  if (args.workload == "mth-paper") {
    paper = {own_sf, r / 2, setups};
    order = {kPaper, kServing, kDml};
  } else {
    dml = {own_sf, r, setups};
    order = {kDml, kServing, kPaper};
  }
  SetupTiming timing[3];
  for (Phase phase : order) {
    Result<SetupTiming> t = phase == kPaper     ? RunPaper(paper, &ctx)
                            : phase == kServing ? RunServing(serving, &ctx)
                                                : RunDml(dml, &ctx);
    if (!t.ok()) {
      std::fprintf(stderr, "perfbench: %s\n", t.status().ToString().c_str());
      return 1;
    }
    timing[phase] = t.value();
  }
  const SetupTiming& primary = timing[order[0]];

  MetricSet metrics;
  if (args.trace) {
    metrics.Set("mth.generate_s", primary.generate_s, "s");
    metrics.Set("mth.load_s", primary.load_s, "s");
    metrics.Set("mth.load_tpch_s", timing[kPaper].load_tpch_s, "s");
    metrics.Set("bench.speed_probe_ms", ctx.probe.MedianMs(), "ms");
    for (const auto& m : ctx.per_layer.items()) {
      metrics.Set(m.name, m.value, m.unit);
    }
  } else {
    metrics.Set("setup_s", primary.setup_s, "s");
    metrics.Set("peak_rss_mb", PeakRssMb(), "MB");
    for (const auto& m : ctx.end_to_end.items()) {
      metrics.Set(m.name, m.value, m.unit);
    }
  }

  std::string header = "{\"header\": {\"workload\": " +
                       JsonString(args.workload) +
                       ", \"commit\": " + JsonString(args.commit) +
                       ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE) +
                       ", \"ndebug\": true, \"nproc\": " +
                       std::to_string(ctx.nproc) +
                       ", \"seed\": " + std::to_string(args.seed) +
                       ", \"seconds\": " + std::to_string(args.seconds) +
                       ", \"trace\": " + (args.trace ? "true" : "false") +
                       ", \"tiny\": " + (args.tiny ? "true" : "false");
  for (const auto& [key, value] : ctx.header) {
    header += ", " + JsonString(key) + ": " + value;
  }
  std::printf("%s}}\n", header.c_str());
  for (const std::string& note : ctx.notes) std::printf("# %s\n", note.c_str());
  if (args.trace) {
    for (const auto& [layer, ms] : ctx.spans.LayerSelfMs()) {
      std::printf("# span self time %-16s %12.3f ms\n", layer.c_str(), ms);
    }
    if (!args.spans_path.empty() && !ctx.spans.WriteJsonl(args.spans_path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   args.spans_path.c_str());
      return 1;
    }
  }
  if (ctx.tally.failed() > 0) {
    std::printf("# first failure: %s\n", ctx.tally.first_failure().c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              ctx.tally.failed() == 0 ? "true" : "false",
              static_cast<unsigned long long>(ctx.tally.attempted()),
              static_cast<unsigned long long>(ctx.tally.failed()),
              metrics.ToJson().c_str());
  return 0;
}
