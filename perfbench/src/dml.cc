// tenant-dml phase: the catalog/storage write path.
//
// MT-H with 10 tenants, PARTITION BY HASH (ttid) PARTITIONS 8. One
// closed-loop client cycles round-robin over the tenants' own-scope
// sessions; each cycle runs, as warm prepared statements, a single-row
// UPDATE of a seeded existing lineitem row, an INSERT of one lineitem row,
// the DELETE of that row and the own-tenant SUM(l_quantity) scan (pruned to
// the tenant's partition). The scan must equal the tenant's initial sum plus
// its acknowledged updates, so every cycle checks the write path's output.
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "phases.h"

namespace perfbench {

using namespace mtbase;  // NOLINT

namespace {

constexpr int kTenants = 10;
constexpr int kPartitions = 8;
/// sf of the smaller database engine.catalog.update_size_ratio divides by.
constexpr double kRatioBaseSf = 0.002;
constexpr int kRatioUpdatesPerTenant = 3;

enum Stmt { kUpdate = 0, kInsert = 1, kDelete = 2, kScan = 3 };
constexpr const char* kStmtName[] = {"update", "insert", "delete", "scan"};

/// The INSERT adds, and the DELETE removes, line 99 of an existing order of
/// the tenant; generated orders have at most 7 lines.
const char* const kSql[] = {
    "UPDATE lineitem SET l_quantity = l_quantity + 1 "
    "WHERE l_orderkey = $1 AND l_linenumber = $2",
    "INSERT INTO lineitem VALUES ($1, 1, 1, 99, 1.00, 100.00, 0.00, 0.00, "
    "'N', 'O', DATE '1996-01-02', DATE '1996-01-03', DATE '1996-01-04', "
    "'NONE', 'AIR', 'perfbench scratch line')",
    "DELETE FROM lineitem WHERE l_orderkey = $1 AND l_linenumber = 99",
    "SELECT SUM(l_quantity) FROM lineitem",
};

/// One tenant's own-scope session, prepared statements, existing line keys
/// and expected totals.
struct Tenant {
  int64_t ttid = 0;
  std::unique_ptr<mt::Session> session;
  std::vector<std::unique_ptr<mt::PreparedQuery>> stmts;  // by Stmt
  std::vector<std::pair<int64_t, int64_t>> lines;  // (l_orderkey, l_linenumber)
  double initial_sum = 0;
  double initial_count = 0;
  int64_t acked_updates = 0;
};

/// The DML loop over one environment; `samples` are per-Stmt latencies (ms).
class DmlLoop {
 public:
  DmlLoop(RunContext* ctx, mth::MthEnvironment* env) : ctx_(ctx), env_(env) {}

  Status Open() {
    for (int64_t t = 1; t <= kTenants; ++t) {
      Tenant tenant;
      tenant.ttid = t;
      tenant.session = std::make_unique<mt::Session>(env_->middleware.get(), t);
      MTB_ASSIGN_OR_RETURN(
          engine::ResultSet keys,
          tenant.session->Execute(
              "SELECT l_orderkey, l_linenumber FROM lineitem"));
      for (const Row& r : keys.rows) {
        tenant.lines.emplace_back(static_cast<int64_t>(r[0].AsDouble()),
                                  static_cast<int64_t>(r[1].AsDouble()));
      }
      if (tenant.lines.empty()) return Status::Internal("tenant without lines");
      MTB_ASSIGN_OR_RETURN(
          engine::ResultSet totals,
          tenant.session->Execute(
              "SELECT SUM(l_quantity), COUNT(*) FROM lineitem"));
      tenant.initial_sum = totals.rows[0][0].AsDouble();
      tenant.initial_count = totals.rows[0][1].AsDouble();
      for (const char* sql : kSql) {
        MTB_ASSIGN_OR_RETURN(mt::PreparedQuery q, tenant.session->Prepare(sql));
        tenant.stmts.push_back(
            std::make_unique<mt::PreparedQuery>(std::move(q)));
      }
      tenants_.push_back(std::move(tenant));
    }
    return Status::OK();
  }

  /// One cycle on the next tenant; `sampled` records its latencies.
  void Cycle(Rng* rng, bool sampled) {
    ctx_->probe.MaybeProbe();
    const double f = ctx_->probe.Factor();
    Tenant& t = tenants_[next_++ % tenants_.size()];
    const auto& line = t.lines[static_cast<size_t>(
        rng->Uniform(0, static_cast<int64_t>(t.lines.size()) - 1))];
    const int64_t order = t.lines[static_cast<size_t>(rng->Uniform(
        0, static_cast<int64_t>(t.lines.size()) - 1))].first;
    const std::vector<Value> params[] = {
        {Value::Int(line.first), Value::Int(line.second)},
        {Value::Int(order)},
        {Value::Int(order)},
        {},
    };
    const int64_t request = static_cast<int64_t>(next_);
    for (int s : {kUpdate, kInsert, kDelete, kScan}) {
      Result<engine::ResultSet> r = Status::Internal("not run");
      const double ms =
          TimeCall(&ctx_->spans, "mt/PreparedQuery::Execute", 0, request,
                   [&] { r = t.stmts[static_cast<size_t>(s)]->Execute(
                             params[s]); });
      const std::string what =
          std::string(kStmtName[s]) + " (tenant " + std::to_string(t.ttid) +
          ")";
      if (!ctx_->tally.Check(r.ok(), what + ": " + r.status().ToString())) {
        continue;
      }
      if (s == kUpdate) ++t.acked_updates;
      if (s == kScan) {
        const double want =
            t.initial_sum + static_cast<double>(t.acked_updates);
        const double got = r.value().rows[0][0].AsDouble();
        ctx_->tally.Check(std::fabs(got - want) < 0.005,
                          what + ": SUM(l_quantity) " + std::to_string(got) +
                              " vs expected " + std::to_string(want));
      }
      if (sampled) samples[s].push_back(ms * f);
    }
  }

  /// After the loop: every tenant's SUM(l_quantity) is its initial value
  /// plus its acknowledged updates and its row count is unchanged.
  void CheckTotals() {
    for (Tenant& t : tenants_) {
      auto r = t.session->Execute(
          "SELECT SUM(l_quantity), COUNT(*) FROM lineitem");
      const std::string what = "tenant " + std::to_string(t.ttid) + " totals";
      if (!ctx_->tally.Check(r.ok(), what + ": " + r.status().ToString())) {
        continue;
      }
      const Row& row = r.value().rows[0];
      const double want = t.initial_sum + static_cast<double>(t.acked_updates);
      ctx_->tally.Check(std::fabs(row[0].AsDouble() - want) < 0.005 &&
                            row[1].AsDouble() == t.initial_count,
                        what + ": sum " + std::to_string(row[0].AsDouble()) +
                            " vs " + std::to_string(want) + ", count " +
                            std::to_string(row[1].AsDouble()) + " vs " +
                            std::to_string(t.initial_count));
    }
  }

  std::vector<double> samples[4];

 private:
  RunContext* ctx_;
  mth::MthEnvironment* env_;
  std::vector<Tenant> tenants_;
  size_t next_ = 0;
};

mth::MthConfig DmlConfig(double sf) {
  mth::MthConfig cfg;
  cfg.scale_factor = sf;
  cfg.num_tenants = kTenants;
  cfg.partitions = kPartitions;
  return cfg;
}

/// Median single-row UPDATE on a fresh kRatioBaseSf database.
Result<double> BaseUpdateMs(RunContext* ctx) {
  SetupTiming ignored;
  MTB_ASSIGN_OR_RETURN(
      std::unique_ptr<mth::MthEnvironment> env,
      SetUp(DmlConfig(kRatioBaseSf), false, 1, ctx, &ignored));
  DmlLoop loop(ctx, env.get());
  MTB_RETURN_IF_ERROR(loop.Open());
  Rng rng(ctx->seed * 131 + 5);
  for (int i = 0; i < kTenants; ++i) loop.Cycle(&rng, /*sampled=*/false);
  for (int i = 0; i < kTenants * kRatioUpdatesPerTenant; ++i) {
    loop.Cycle(&rng, /*sampled=*/true);
  }
  loop.CheckTotals();
  return Median(loop.samples[kUpdate]);
}

}  // namespace

Result<SetupTiming> RunDml(const DmlOptions& options, RunContext* ctx) {
  SetupTiming timing;
  MTB_ASSIGN_OR_RETURN(
      std::unique_ptr<mth::MthEnvironment> env,
      SetUp(DmlConfig(options.sf), /*with_baseline=*/false,
            options.setups, ctx, &timing));
  DmlLoop loop(ctx, env.get());
  MTB_RETURN_IF_ERROR(loop.Open());
  Rng rng(ctx->seed * 104729 + 17);
  // Warm-up: one cycle per tenant compiles its prepared statements.
  for (int i = 0; i < kTenants; ++i) loop.Cycle(&rng, /*sampled=*/false);
  const Clock::time_point t0 = Clock::now();
  size_t cycles = 0;
  while (cycles < kTenants ||
         SecondsBetween(t0, Clock::now()) < options.seconds) {
    loop.Cycle(&rng, /*sampled=*/true);
    ++cycles;
  }
  loop.CheckTotals();

  const std::vector<double>* s = loop.samples;
  MetricSet& e2e = ctx->end_to_end;
  e2e.Set("update_p50_ms", HdQuantile(s[kUpdate], 0.5), "ms");
  e2e.Set("update_p99_ms", HdQuantile(s[kUpdate], 0.99), "ms");
  e2e.Set("insert_p50_ms", HdQuantile(s[kInsert], 0.5), "ms");
  e2e.Set("delete_p50_ms", HdQuantile(s[kDelete], 0.5), "ms");
  e2e.Set("scan_p50_ms", HdQuantile(s[kScan], 0.5), "ms");
  char note[160];
  std::snprintf(note, sizeof(note),
                "tenant-dml phase: sf %g, %zu cycles; update p50 %.3f ms, "
                "p99 %.3f ms (n=%zu, %zu beyond p99)",
                options.sf, cycles, HdQuantile(s[kUpdate], 0.5),
                HdQuantile(s[kUpdate], 0.99), s[kUpdate].size(),
                s[kUpdate].size() / 100);
  ctx->notes.push_back(note);

  if (ctx->trace) {
    // Every cycle's scan is the tenant's first read after its writes.
    ctx->per_layer.Set("engine.catalog.scan_after_write_ms",
                       Median(s[kScan]), "ms");
    MTB_ASSIGN_OR_RETURN(double base_ms, BaseUpdateMs(ctx));
    ctx->per_layer.Set("engine.catalog.update_size_ratio",
                       Ratio(Median(s[kUpdate]), base_ms), "ratio");
  }
  char header[160];
  std::snprintf(header, sizeof(header),
                "{\"sf\": %g, \"tenants\": %d, \"partitions\": %d, "
                "\"clients\": 1, \"window_s\": %g, \"engine_threads\": "
                "\"auto\"}",
                options.sf, kTenants, kPartitions, options.seconds);
  ctx->header.emplace_back("tenant_dml", header);
  return timing;
}

}  // namespace perfbench
