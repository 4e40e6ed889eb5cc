#include <memory>
#include <vector>

#include "phases.h"

namespace perfbench {

using namespace mtbase;  // NOLINT

Result<std::unique_ptr<mth::MthEnvironment>> SetUp(
    const mth::MthConfig& cfg, bool with_baseline, int setups,
    RunContext* ctx, SetupTiming* timing) {
  std::vector<double> total, generate, load, load_tpch;
  std::unique_ptr<mth::MthEnvironment> env;
  for (int i = 0; i < setups; ++i) {
    env.reset();  // never hold two environments at once (peak_rss_mb)
    auto next = std::make_unique<mth::MthEnvironment>();
    next->config = cfg;
    SpanLog* spans = &ctx->spans;
    const double f = SpeedProbe::kReferenceMs / ctx->probe.Burst(3);
    Result<mth::MthData> data = Status::Internal("not generated");
    Status st;
    const double gen_ms = TimeCall(spans, "mth/GenerateData", 0, 0, [&] {
      data = mth::GenerateData(cfg);
    });
    if (!data.ok()) return data.status();
    next->mth_db = std::make_unique<engine::Database>();
    next->middleware = std::make_unique<mt::Middleware>(next->mth_db.get());
    const double load_ms = TimeCall(spans, "mth/LoadMth", 0, 0, [&] {
      st = mth::LoadMth(next->mth_db.get(), next->middleware.get(),
                        data.value(), cfg);
    });
    MTB_RETURN_IF_ERROR(st);
    double tpch_ms = 0;
    if (with_baseline) {
      next->tpch_db = std::make_unique<engine::Database>();
      tpch_ms = TimeCall(spans, "mth/LoadTpch", 0, 0, [&] {
        st = mth::LoadTpch(next->tpch_db.get(), data.value());
      });
      MTB_RETURN_IF_ERROR(st);
    }
    generate.push_back(f * gen_ms / 1e3);
    load.push_back(f * load_ms / 1e3);
    load_tpch.push_back(f * tpch_ms / 1e3);
    total.push_back(f * (gen_ms + load_ms + tpch_ms) / 1e3);
    env = std::move(next);
  }
  timing->setup_s = Median(total);
  timing->generate_s = Median(generate);
  timing->load_s = Median(load);
  timing->load_tpch_s = Median(load_tpch);
  return env;
}

}  // namespace perfbench
