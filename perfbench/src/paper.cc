// mth-paper phase: the paper's own experiment (section 6, Tables 3-9).
//
// Each of the 22 MT-H queries runs as a warm prepared statement at
// canonical and o4 through a client-1 session with SCOPE "IN ()", and on the
// TPC-H baseline database over the same data, with an engine thread budget
// of 1. The query's time at a level is the median over the measured passes;
// the end-to-end metric is the sum of those medians. Every canonical and o4
// result is compared against the baseline's.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "engine/verify/verifier.h"
#include "mt/audit/audit.h"
#include "mt/optimizer.h"
#include "mt/rewriter.h"
#include "phases.h"
#include "sql/parser.h"
#include "sql/printer.h"

namespace perfbench {

using namespace mtbase;  // NOLINT

namespace {

enum Level { kTpch = 0, kCanonical = 1, kO4 = 2 };
constexpr const char* kLevelName[] = {"tpch", "canonical", "o4"};
constexpr int kTenants = 10;
constexpr int64_t kClient = 1;
constexpr int kCompileReps = 5;  // traced compile-layer sweeps
constexpr int kSpeedupReps = 3;
constexpr int kOverheadReps = 9;

/// One query's prepared handles, reference result and samples (ms).
struct PaperQuery {
  mth::MthQuery query;
  std::unique_ptr<engine::PreparedPlan> tpch;
  std::unique_ptr<mt::PreparedQuery> level[3];  // [kCanonical], [kO4] used
  engine::ResultSet reference;  // the baseline's result on the warm-up pass
  bool has_reference = false;
  std::vector<double> ms[3];
};

/// Counters of one pass at one level (exact Database::stats() deltas).
struct PassCounts {
  uint64_t rows_scanned = 0;
  uint64_t rows_joined = 0;
  uint64_t udf_body_calls = 0;
  uint64_t udf_cache_hits = 0;
};

std::string QueryTag(int number) {
  char buf[8];
  std::snprintf(buf, sizeof(buf), "q%02d", number);
  return buf;
}

/// The o1 rewrite flags a session applies at o4 for dataset D' (mirrors
/// Session::OptionsFor, which is private to the session).
mt::RewriteOptions O4Options(mt::Middleware* mw,
                             const std::vector<int64_t>& dataset) {
  mt::RewriteOptions opts;
  opts.universe = mw->tenants();
  opts.drop_dfilters = mw->IsAllTenants(dataset);
  opts.drop_ttid_joins = dataset.size() == 1;
  opts.drop_conversions = dataset.size() == 1 && dataset[0] == kClient;
  return opts;
}

/// Per-operator-kind totals parsed from EXPLAIN (ANALYZE) output.
struct OpTotals {
  double self_ms = 0;
  uint64_t rows = 0;
};

/// The operator kinds reported per operator; "HashJoin" renders as Join.
/// IndexScan and Distinct never occur in the 22 queries at o4 on the paper
/// layout (the MT-H DDL has no index and o4 plans no Distinct), so they
/// would only ever read 0.
const std::vector<std::string>& OpKinds() {
  static const std::vector<std::string> kinds = {
      "Scan", "Join", "Filter", "Project", "Aggregate", "Sort", "TopN"};
  return kinds;
}

/// Fold one EXPLAIN (ANALYZE) rendering into `totals`. Each operator line
/// is indented two spaces per depth and carries `[actual: rows=N ...
/// time=Xms ...]`; SubPlan/InitPlan header lines carry no actuals and pass
/// their children through to the enclosing operator. An operator's self
/// time is its inclusive time minus its child operators' inclusive times.
void FoldExplain(const std::string& text,
                 std::map<std::string, OpTotals>* totals) {
  struct Line {
    int depth;
    std::string kind;  // empty for header lines
    double ms = 0;
    uint64_t rows = 0;
    double child_ms = 0;
  };
  std::vector<Line> lines;
  std::istringstream in(text);
  std::string raw;
  while (std::getline(in, raw)) {
    const size_t indent = raw.find_first_not_of(' ');
    if (indent == std::string::npos || raw[indent] == '[') continue;
    Line line{static_cast<int>(indent / 2), "", 0, 0, 0};
    const size_t actual = raw.find("[actual: rows=");
    if (actual != std::string::npos) {
      line.kind = raw.substr(indent, raw.find_first_of(" (", indent) - indent);
      if (line.kind == "HashJoin") line.kind = "Join";
      line.rows = std::strtoull(raw.c_str() + actual + 14, nullptr, 10);
      const size_t time = raw.find(" time=", actual);
      if (time != std::string::npos) {
        line.ms = std::strtod(raw.c_str() + time + 6, nullptr);
      }
    }
    lines.push_back(line);
  }
  // Stack of open lines; an operator's parent is the nearest operator below
  // it on the stack.
  std::vector<size_t> stack;
  for (size_t i = 0; i < lines.size(); ++i) {
    while (!stack.empty() && lines[stack.back()].depth >= lines[i].depth) {
      stack.pop_back();
    }
    if (!lines[i].kind.empty()) {
      for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
        if (!lines[*it].kind.empty()) {
          lines[*it].child_ms += lines[i].ms;
          break;
        }
      }
    }
    stack.push_back(i);
  }
  for (const Line& l : lines) {
    if (l.kind.empty()) continue;
    OpTotals& t = (*totals)[l.kind];
    t.self_ms += l.ms - l.child_ms;
    t.rows += l.rows;
  }
}

class PaperPhase {
 public:
  PaperPhase(const PaperOptions& options, RunContext* ctx,
             mth::MthEnvironment* env)
      : options_(options), ctx_(ctx), env_(env), rng_(ctx->seed * 7 + 1) {}

  Status Run() {
    mth::SetMthThreads(env_, 1);
    MTB_RETURN_IF_ERROR(OpenSessions());
    MTB_RETURN_IF_ERROR(Prepare());
    // Warm-up pass: compiles every statement, fills the shared conversion
    // cache and records each query's baseline result.
    RunPass(/*sampled=*/false, nullptr);
    const Clock::time_point t0 = Clock::now();
    PassCounts counts[3];
    for (int pass = 0;
         pass < 1 || SecondsBetween(t0, Clock::now()) < options_.seconds;
         ++pass) {
      RunPass(/*sampled=*/true, pass == 0 ? counts : nullptr);
    }
    Report(counts);
    if (ctx_->trace) {
      MTB_RETURN_IF_ERROR(CompileLayers());
      OperatorCensus();
      ParallelSpeedup();
      TraceOverhead();
    }
    return Status::OK();
  }

 private:
  Status OpenSessions() {
    for (int l : {kCanonical, kO4}) {
      sessions_[l] = std::make_unique<mt::Session>(env_->middleware.get(),
                                                   kClient);
      sessions_[l]->set_optimization_level(
          l == kO4 ? mt::OptLevel::kO4 : mt::OptLevel::kCanonical);
      auto st = sessions_[l]->Execute("SET SCOPE = \"IN ()\"");
      if (!st.ok()) return st.status();
    }
    return Status::OK();
  }

  Status Prepare() {
    for (mth::MthQuery& q : mth::MthQueries(options_.sf)) {
      PaperQuery pq;
      pq.query = std::move(q);
      MTB_ASSIGN_OR_RETURN(engine::PreparedPlan plan,
                           env_->tpch_db->Prepare(pq.query.sql));
      pq.tpch = std::make_unique<engine::PreparedPlan>(std::move(plan));
      for (int l : {kCanonical, kO4}) {
        MTB_ASSIGN_OR_RETURN(mt::PreparedQuery prepared,
                             sessions_[l]->Prepare(pq.query.sql));
        pq.level[l] = std::make_unique<mt::PreparedQuery>(std::move(prepared));
      }
      queries_.push_back(std::move(pq));
    }
    return Status::OK();
  }

  engine::Database* DbFor(int level) {
    return level == kTpch ? env_->tpch_db.get() : env_->mth_db.get();
  }

  /// Execute query `q` at `level` once, check its result against the
  /// baseline and return its wall time in ms.
  double Execute(PaperQuery* q, int level) {
    Result<engine::ResultSet> r = Status::Internal("not run");
    const double ms = TimeCall(
        &ctx_->spans,
        level == kTpch ? "engine/PreparedPlan::Execute"
                       : "mt/PreparedQuery::Execute",
        0, q->query.number, [&] {
          r = level == kTpch ? q->tpch->Execute() : q->level[level]->Execute();
        });
    const std::string what = q->query.name + " " + kLevelName[level];
    if (!ctx_->tally.Check(r.ok(), what + ": " + r.status().ToString())) {
      return ms;
    }
    if (level == kTpch && !q->has_reference) {
      q->reference = std::move(r).value();
      q->has_reference = true;
      return ms;
    }
    std::string why;
    ctx_->tally.Check(
        q->has_reference && mth::ResultsEqual(r.value(), q->reference, &why),
        what + " differs from the TPC-H baseline: " + why);
    return ms;
  }

  /// One pass over the 22 queries, in a seeded order, at the three levels;
  /// `counts`, when set, receives the pass's counters per level.
  void RunPass(bool sampled, PassCounts* counts) {
    std::vector<size_t> order(queries_.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[static_cast<size_t>(rng_.Uniform(
                                  0, static_cast<int64_t>(i) - 1))]);
    }
    for (size_t index : order) {
      PaperQuery& q = queries_[index];
      for (int level : {kTpch, kCanonical, kO4}) {
        ctx_->probe.MaybeProbe();
        engine::ExecStats before = *DbFor(level)->stats();
        const double ms = Execute(&q, level);
        if (sampled) q.ms[level].push_back(ms * ctx_->probe.Factor());
        if (counts != nullptr) {
          const engine::ExecStats d = *DbFor(level)->stats() - before;
          counts[level].rows_scanned += d.rows_scanned;
          counts[level].rows_joined += d.rows_joined;
          counts[level].udf_body_calls += d.udf_calls;
          counts[level].udf_cache_hits += d.udf_cache_hits;
        }
      }
    }
  }

  void Report(const PassCounts* counts) {
    double sum[3] = {0, 0, 0};
    int o4_losses = 0;
    size_t passes = 0;
    for (const PaperQuery& q : queries_) {
      const std::string tag = QueryTag(q.query.number);
      for (int l : {kTpch, kCanonical, kO4}) {
        const double med = Median(q.ms[l]);
        sum[l] += med;
        ctx_->per_layer.Set(tag + "." + kLevelName[l] + "_ms", med, "ms");
      }
      const double loss = Median(q.ms[kO4]) - Median(q.ms[kCanonical]);
      if (loss > Iqr(q.ms[kO4]) && loss > Iqr(q.ms[kCanonical])) ++o4_losses;
      passes = q.ms[kTpch].size();
    }
    MetricSet& e2e = ctx_->end_to_end;
    e2e.Set("tpch_sum_ms", sum[kTpch], "ms");
    e2e.Set("canonical_sum_ms", sum[kCanonical], "ms");
    e2e.Set("o4_sum_ms", sum[kO4], "ms");
    char note[160];
    std::snprintf(note, sizeof(note),
                  "mth-paper phase: sf %g, %zu measured passes, sums "
                  "tpch %.1f / canonical %.1f / o4 %.1f ms",
                  options_.sf, passes, sum[kTpch], sum[kCanonical], sum[kO4]);
    ctx_->notes.push_back(note);

    MetricSet& layer = ctx_->per_layer;
    layer.Set("mt.overhead_ratio.canonical", Ratio(sum[kCanonical], sum[kTpch]),
              "ratio");
    layer.Set("mt.overhead_ratio.o4", Ratio(sum[kO4], sum[kTpch]), "ratio");
    layer.Set("mt.o4_losses", o4_losses, "count");
    layer.Set("engine.rows_scanned.o4",
              static_cast<double>(counts[kO4].rows_scanned), "count");
    layer.Set("engine.rows_joined.o4",
              static_cast<double>(counts[kO4].rows_joined), "count");
    for (int l : {kTpch, kO4}) {
      const double rows = static_cast<double>(counts[l].rows_scanned +
                                              counts[l].rows_joined);
      layer.Set(std::string("engine.ns_per_row.") + kLevelName[l],
                Ratio(sum[l] * 1e6, rows), "ns");
    }
    const PassCounts& can = counts[kCanonical];
    const uint64_t invocations = can.udf_body_calls + can.udf_cache_hits;
    layer.Set("engine.udf.invocations.canonical",
              static_cast<double>(invocations), "count");
    layer.Set("engine.udf.body_calls.canonical",
              static_cast<double>(can.udf_body_calls), "count");
    layer.Set("engine.udf.cache_hit_ratio.canonical",
              Ratio(static_cast<double>(can.udf_cache_hits),
                    static_cast<double>(invocations)),
              "ratio");
  }

  /// Times each compile layer over the 22 query texts, kCompileReps times;
  /// every metric is the median of the per-sweep totals.
  Status CompileLayers() {
    mt::Middleware* mw = env_->middleware.get();
    engine::Database* db = env_->mth_db.get();
    SpanLog* spans = &ctx_->spans;
    std::vector<double> parse, rewrite, optimize, audit, print, prepare,
        prepare_verified;
    for (int rep = 0; rep < kCompileReps; ++rep) {
      double t[7] = {0, 0, 0, 0, 0, 0, 0};
      for (const PaperQuery& q : queries_) {
        const int64_t req = q.query.number;
        Result<sql::Stmt> parsed = Status::Internal("not parsed");
        t[0] += TimeCall(spans, "sql/ParseStatement", 0, req,
                         [&] { parsed = sql::ParseStatement(q.query.sql); });
        if (!parsed.ok()) return parsed.status();
        MTB_ASSIGN_OR_RETURN(std::vector<int64_t> dataset,
                             sessions_[kO4]->ResolveDataset(parsed.value()));
        const mt::RewriteOptions opts = O4Options(mw, dataset);
        mt::Rewriter rewriter(mw->schema(), mw->conversions(), kClient,
                              dataset, opts);
        Result<std::vector<sql::Stmt>> rewritten =
            Status::Internal("not rewritten");
        t[1] += TimeCall(spans, "mt/Rewriter::RewriteStatement", 0, req, [&] {
          rewritten = rewriter.RewriteStatement(parsed.value());
        });
        if (!rewritten.ok()) return rewritten.status();

        mt::audit::AuditContext actx;
        actx.schema = mw->schema();
        actx.conversions = mw->conversions();
        actx.catalog = db->catalog();
        actx.udfs = db->udfs();
        actx.client = kClient;
        actx.dataset = dataset;
        std::sort(actx.dataset.begin(), actx.dataset.end());
        actx.all_tenants = mw->tenants();
        actx.options = opts;
        mt::audit::RewriteAuditor auditor(&actx);
        engine::verify::VerifyContext vctx;
        vctx.check_tenant = true;
        vctx.tenant_tables = mw->schema()->TenantSpecificTables();
        vctx.expected_tenants = actx.dataset;
        vctx.allow_unfiltered = opts.drop_dfilters;

        for (sql::Stmt& stmt : rewritten.value()) {
          if (stmt.kind != sql::Stmt::Kind::kSelect) continue;
          mt::audit::StatementAudit report;
          t[3] += TimeCall(spans, "mt/audit/RewriteAuditor::AuditRewrite", 0,
                           req, [&] { auditor.AuditRewrite(stmt, &report); });
          std::unique_ptr<sql::SelectStmt> canonical = stmt.select->Clone();
          Status st;
          mt::Optimizer optimizer(mw->conversions(), kClient);
          t[2] += TimeCall(spans, "mt/Optimizer::Optimize", 0, req, [&] {
            st = optimizer.Optimize(stmt.select.get(), mt::OptLevel::kO4);
          });
          MTB_RETURN_IF_ERROR(st);
          t[3] += TimeCall(spans, "mt/audit/RewriteAuditor::AuditOptimized", 0,
                           req, [&] {
                             auditor.AuditOptimized(*canonical, *stmt.select,
                                                    &report);
                           });
          ctx_->tally.Check(report.ok(), q.query.name + " o4 rewrite audit: " +
                                             report.Summary());
          std::string text;
          t[4] += TimeCall(spans, "sql/PrintStmt", 0, req,
                           [&] { text = sql::PrintStmt(stmt); });
          // The verifier gate is read per call: the same Prepare with it off
          // and on isolates the verification cost (which goes first
          // alternates between sweeps).
          for (int verified : {rep % 2, 1 - rep % 2}) {
            setenv("MTBASE_VERIFY_PLANS", verified ? "1" : "0", 1);
            db->set_verify_context(vctx);
            Result<engine::PreparedPlan> plan = Status::Internal("no plan");
            t[5 + verified] += TimeCall(
                spans,
                verified ? "engine/verify/Database::Prepare"
                         : "engine/Database::Prepare",
                0, req, [&] { plan = db->Prepare(text); });
            ctx_->tally.Check(plan.ok(), q.query.name + " o4 prepare: " +
                                             plan.status().ToString());
          }
          unsetenv("MTBASE_VERIFY_PLANS");
        }
      }
      for (double* sink : {&t[0], &t[1], &t[2], &t[3], &t[4], &t[5], &t[6]}) {
        *sink *= 1e3;  // ms -> us
      }
      parse.push_back(t[0]);
      rewrite.push_back(t[1]);
      optimize.push_back(t[2]);
      audit.push_back(t[3]);
      print.push_back(t[4]);
      prepare.push_back(t[5]);
      prepare_verified.push_back(t[6]);
    }
    MetricSet& layer = ctx_->per_layer;
    layer.Set("sql.parse_us", Median(parse), "us");
    layer.Set("sql.print_us", Median(print), "us");
    layer.Set("mt.rewrite_us", Median(rewrite), "us");
    layer.Set("mt.optimize_us", Median(optimize), "us");
    layer.Set("mt.audit.audit_us", Median(audit), "us");
    layer.Set("engine.prepare_us", Median(prepare), "us");
    layer.Set("engine.verify.verify_us",
              Median(prepare_verified) - Median(prepare), "us");
    return Status::OK();
  }

  /// Per-operator self time and ns/row from EXPLAIN (ANALYZE) of the 22
  /// queries at o4.
  void OperatorCensus() {
    std::map<std::string, OpTotals> totals;
    mt::ExplainOptions analyze;
    analyze.analyze = true;
    for (const PaperQuery& q : queries_) {
      Result<std::string> text = Status::Internal("not explained");
      TimeCall(&ctx_->spans, "mt/Session::Explain", 0, q.query.number,
               [&] { text = sessions_[kO4]->Explain(q.query.sql, analyze); });
      if (!ctx_->tally.Check(text.ok(), q.query.name + " EXPLAIN (ANALYZE): " +
                                            text.status().ToString())) {
        continue;
      }
      FoldExplain(text.value(), &totals);
    }
    for (const std::string& kind : OpKinds()) {
      const OpTotals& t = totals[kind];
      ctx_->per_layer.Set("op." + kind + ".self_ms", t.self_ms, "ms");
      ctx_->per_layer.Set("op." + kind + ".ns_per_row",
                          Ratio(t.self_ms * 1e6, static_cast<double>(t.rows)),
                          "ns");
    }
  }

  double MedianOf(PaperQuery* q, int level, int reps) {
    std::vector<double> ms;
    for (int i = 0; i < reps; ++i) ms.push_back(Execute(q, level));
    return Median(ms);
  }

  /// o4 median at thread budget 1 over the median at nproc, for Q1/Q3/Q6.
  void ParallelSpeedup() {
    mt::Middleware* mw = env_->middleware.get();
    for (int number : {1, 3, 6}) {
      PaperQuery* q = &queries_[static_cast<size_t>(number - 1)];
      const double serial = MedianOf(q, kO4, kSpeedupReps);
      mw->SetMaxThreads(ctx_->nproc);
      Execute(q, kO4);  // recompiles under the new budget
      const double parallel = MedianOf(q, kO4, kSpeedupReps);
      mw->SetMaxThreads(1);
      Execute(q, kO4);
      ctx_->per_layer.Set("engine.parallel.speedup." + QueryTag(number),
                          Ratio(serial, parallel), "ratio");
    }
  }

  /// Span recording on vs off around identical Q6 o4 executions.
  void TraceOverhead() {
    PaperQuery* q = &queries_[5];
    std::vector<double> on, off;
    for (int i = 0; i < kOverheadReps; ++i) {
      for (bool traced : {true, false}) {
        ctx_->spans.set_enabled(traced);
        const Clock::time_point t0 = Clock::now();
        Execute(q, kO4);
        (traced ? on : off).push_back(MsBetween(t0, Clock::now()));
      }
    }
    ctx_->spans.set_enabled(true);
    ctx_->per_layer.Set("trace.overhead_pct",
                        (Ratio(Median(on), Median(off)) - 1) * 100, "%");
  }

  PaperOptions options_;
  RunContext* ctx_;
  mth::MthEnvironment* env_;
  std::unique_ptr<mt::Session> sessions_[3];  // [kCanonical], [kO4] used
  std::vector<PaperQuery> queries_;
  Rng rng_;  // each pass runs the queries in a fresh seeded order
};

}  // namespace

Result<SetupTiming> RunPaper(const PaperOptions& options, RunContext* ctx) {
  mth::MthConfig cfg;
  cfg.scale_factor = options.sf;
  cfg.num_tenants = kTenants;
  SetupTiming timing;
  MTB_ASSIGN_OR_RETURN(std::unique_ptr<mth::MthEnvironment> env,
                       SetUp(cfg, /*with_baseline=*/true, options.setups, ctx,
                             &timing));
  PaperPhase phase(options, ctx, env.get());
  MTB_RETURN_IF_ERROR(phase.Run());
  char header[128];
  std::snprintf(header, sizeof(header),
                "{\"sf\": %g, \"tenants\": %d, \"engine_threads\": 1, "
                "\"scope\": \"IN ()\"}",
                options.sf, kTenants);
  ctx->header.emplace_back("mth_paper", header);
  return timing;
}

}  // namespace perfbench
