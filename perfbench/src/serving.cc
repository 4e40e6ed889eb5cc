// serving phase: the serving_bench statement mix as an open loop.
//
// 64 sessions over 12 Zipf(1.0) tenants at sf 0.002. Every third session is
// a cross-tenant SCOPE "IN ()" analytic reader; the others are own-scope
// tenant sessions sending 25% single-row `UPDATE customer` and otherwise the
// own-scope customer lookup. A generator thread releases a seeded Poisson
// arrival schedule at a fixed offered rate to nproc client threads; every
// statement is timed from its due time, so a stall also delays the requests
// queued behind it. Engine defaults apply (auto thread budget, default
// admission cap).
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "engine/obs/metrics.h"
#include "phases.h"

namespace perfbench {

using namespace mtbase;  // NOLINT

namespace {

constexpr double kSf = 0.002;
constexpr int kTenants = 12;
constexpr double kZipf = 1.0;
constexpr int kSessions = 64;
constexpr int kWriteEvery = 4;  // 25% of a tenant session's statements
/// Offered load: about a seventh of the closed-loop capacity of this mix
/// at 4 client threads on a 4-core machine (675-735 statements/s), so that
/// the host's other tenants taking CPU does not push the open loop into
/// queueing.
constexpr double kOfferedPerS = 100;
constexpr int kOverheadReps = 200;
constexpr int kSlices = 4;  // speed-probe points across the window

const std::vector<std::string>& AnalyticSql() {
  static const std::vector<std::string> sql = {
      "SELECT COUNT(*), SUM(o_totalprice) FROM orders",
      "SELECT l_returnflag, COUNT(*), SUM(l_extendedprice) FROM lineitem "
      "GROUP BY l_returnflag ORDER BY l_returnflag",
      "SELECT c_mktsegment, COUNT(*) FROM customer "
      "GROUP BY c_mktsegment ORDER BY c_mktsegment",
  };
  return sql;
}
const char* const kLookupSql = "SELECT COUNT(*), SUM(c_acctbal) FROM customer";

enum Kind { kAnalytic = 0, kRead = 1, kWrite = 2 };
constexpr const char* kKindName[] = {"analytic", "read", "write"};

struct Connection {
  std::unique_ptr<mt::Session> session;
  int64_t tenant = 0;
  bool analytic = false;
  int64_t custkey = 0;  // the tenant session's UPDATE target (own row)
  std::mutex mu;        // one statement at a time per connection
};

struct Request {
  double offset_s = 0;  // due time relative to the window start
  Clock::time_point due;
  int conn = 0;
  Kind kind = kRead;
  int stmt = 0;       // analytic statement index
  double factor = 1;  // SpeedProbe factor of the request's slice
};

/// Acknowledged UPDATEs per tenant, kept per client thread and merged after
/// the window.
struct ClientLog {
  std::map<int64_t, int64_t> acked;
  Clock::time_point last_end{};
  uint64_t ok = 0;
};

/// Sum and count of a histogram from the registry's JSON rendering (the
/// registry exposes no direct accessor for the sum).
void HistogramSumCount(const std::string& name, double* sum, double* count) {
  const std::string json = obs::MetricsRegistry::Global()->RenderJson();
  *sum = 0;
  *count = 0;
  const size_t at = json.find("\"" + name + "\": {\"count\": ");
  if (at == std::string::npos) return;
  const char* p = json.c_str() + at + name.size() + 14;
  char* end = nullptr;
  *count = std::strtod(p, &end);
  const char* s = std::strstr(end, "\"sum\": ");
  if (s != nullptr) *sum = std::strtod(s + 7, nullptr);
}

class ServingPhase {
 public:
  ServingPhase(const ServingOptions& options, RunContext* ctx,
               mth::MthEnvironment* env)
      : options_(options), ctx_(ctx), env_(env) {}

  Status Run() {
    MTB_RETURN_IF_ERROR(OpenSessions());
    BuildSchedule();
    obs::MetricsRegistry* reg = obs::MetricsRegistry::Global();
    const uint64_t hits0 = reg->CounterValue("mtbase_mt_plan_cache_hits_total");
    const uint64_t miss0 =
        reg->CounterValue("mtbase_mt_plan_cache_misses_total");
    const uint64_t admitted0 =
        reg->CounterValue("mtbase_engine_statements_admitted_total");
    const uint64_t queued0 =
        reg->CounterValue("mtbase_engine_statements_queued_total");
    double wait_sum0 = 0, wait_n0 = 0;
    HistogramSumCount("mtbase_engine_admission_wait_seconds", &wait_sum0,
                      &wait_n0);

    const Clock::time_point start = Clock::now();
    Drive();

    double wait_sum = 0, wait_n = 0;
    HistogramSumCount("mtbase_engine_admission_wait_seconds", &wait_sum,
                      &wait_n);
    const double hits = static_cast<double>(
        reg->CounterValue("mtbase_mt_plan_cache_hits_total") - hits0);
    const double misses = static_cast<double>(
        reg->CounterValue("mtbase_mt_plan_cache_misses_total") - miss0);
    const double admitted = static_cast<double>(
        reg->CounterValue("mtbase_engine_statements_admitted_total") -
        admitted0);
    const double queued = static_cast<double>(
        reg->CounterValue("mtbase_engine_statements_queued_total") - queued0);

    Report(start);
    MetricSet& layer = ctx_->per_layer;
    layer.Set("mt.plan_cache_hit_ratio", Ratio(hits, hits + misses), "ratio");
    layer.Set("engine.admission.wait_ms_mean",
              Ratio((wait_sum - wait_sum0) * 1e3, wait_n - wait_n0), "ms");
    layer.Set("engine.admission.queued_ratio", Ratio(queued, admitted),
              "ratio");
    CheckBalances();
    if (ctx_->trace) MTB_RETURN_IF_ERROR(SessionOverhead());
    return Status::OK();
  }

 private:
  /// Own-scope one-shot statement on a scratch session of `tenant`.
  Result<engine::ResultSet> OwnScope(int64_t tenant, const std::string& sql) {
    mt::Session s(env_->middleware.get(), tenant);
    return s.Execute(sql);
  }

  Status OpenSessions() {
    ZipfGenerator tenant_pick(kTenants, kZipf, ctx_->seed * 31 + 7);
    Rng rng(ctx_->seed * 17 + 3);
    // Per tenant: its own customer keys (so every UPDATE hits exactly one
    // row) and the lookup's initial COUNT / SUM.
    for (int64_t t = 1; t <= kTenants; ++t) {
      MTB_ASSIGN_OR_RETURN(engine::ResultSet keys,
                           OwnScope(t, "SELECT c_custkey FROM customer"));
      for (const Row& r : keys.rows) {
        custkeys_[t].push_back(static_cast<int64_t>(r[0].AsDouble()));
      }
      MTB_ASSIGN_OR_RETURN(initial_[t], OwnScope(t, kLookupSql));
    }
    conns_.resize(kSessions);
    for (int i = 0; i < kSessions; ++i) {
      auto c = std::make_unique<Connection>();
      c->tenant = tenant_pick.Next();
      c->session = std::make_unique<mt::Session>(env_->middleware.get(),
                                                 c->tenant);
      c->analytic = i % 3 == 0;
      if (c->analytic) {
        auto st = c->session->Execute("SET SCOPE = \"IN ()\"");
        if (!st.ok()) return st.status();
        // Expected analytic results in this client's formats. The analytic
        // statements read only never-written data (order totals, lineitem
        // groups, customer segment counts).
        if (expected_.count(c->tenant) == 0) {
          for (const std::string& sql : AnalyticSql()) {
            MTB_ASSIGN_OR_RETURN(engine::ResultSet r, c->session->Execute(sql));
            expected_[c->tenant].push_back(std::move(r));
          }
        }
      } else {
        const std::vector<int64_t>& keys = custkeys_[c->tenant];
        if (keys.empty()) {
          return Status::Internal("tenant without customers");
        }
        c->custkey = keys[static_cast<size_t>(
            rng.Uniform(0, static_cast<int64_t>(keys.size()) - 1))];
      }
      conns_[static_cast<size_t>(i)] = std::move(c);
    }
    return Status::OK();
  }

  /// Seeded Poisson arrivals on uniformly picked sessions. Each session
  /// cycles through its statements from a seeded offset — an analytic
  /// session through the three analytic statements, a tenant session
  /// through one UPDATE per kWriteEvery statements — so the class mix is
  /// exact in every run and only the timing and placement are random.
  void BuildSchedule() {
    Rng rng(ctx_->seed * 7919 + 11);
    std::vector<int64_t> cursor(kSessions);
    for (int64_t& c : cursor) c = rng.Uniform(0, 11);
    double t = 0;
    for (;;) {
      t += -std::log(1.0 - rng.UniformReal(0.0, 1.0)) / kOfferedPerS;
      if (t >= options_.seconds) break;
      Request r;
      r.offset_s = t;
      r.conn = static_cast<int>(rng.Uniform(0, kSessions - 1));
      const int64_t n = cursor[static_cast<size_t>(r.conn)]++;
      if (conns_[static_cast<size_t>(r.conn)]->analytic) {
        r.kind = kAnalytic;
        r.stmt = static_cast<int>(n % 3);
      } else {
        r.kind = n % kWriteEvery == 0 ? kWrite : kRead;
      }
      schedule_.push_back(r);
    }
  }

  /// Run request `index` on its connection, check it and log its latency
  /// (ms from its due time).
  void Serve(size_t index, ClientLog* log) {
    const Request& req = schedule_[index];
    Connection& c = *conns_[static_cast<size_t>(req.conn)];
    std::lock_guard<std::mutex> lock(c.mu);
    std::string sql;
    if (req.kind == kAnalytic) {
      sql = AnalyticSql()[static_cast<size_t>(req.stmt)];
    } else if (req.kind == kWrite) {
      sql = "UPDATE customer SET c_acctbal = c_acctbal + 1.00 "
            "WHERE c_custkey = " + std::to_string(c.custkey);
    } else {
      sql = kLookupSql;
    }
    SpanLog* spans = &ctx_->spans;
    const int64_t request_span = spans->NewId();
    Result<engine::ResultSet> r = Status::Internal("not run");
    TimeCall(spans, "mt/Session::Execute", request_span, request_span,
             [&] { r = c.session->Execute(sql); });
    const Clock::time_point end = Clock::now();
    if (spans->enabled()) {
      spans->Record(request_span, "serving/request", req.due, end, 0,
                    request_span);
    }
    const std::string what = std::string(kKindName[req.kind]) +
                              " (tenant " + std::to_string(c.tenant) + ")";
    if (!ctx_->tally.Check(r.ok(), what + ": " + r.status().ToString())) {
      return;
    }
    bool ok = true;
    std::string why;
    if (req.kind == kAnalytic) {
      ok = mth::ResultsEqual(
          r.value(), expected_.at(c.tenant)[static_cast<size_t>(req.stmt)],
          &why);
    } else if (req.kind == kRead) {
      const engine::ResultSet& init = initial_.at(c.tenant);
      ok = !r.value().rows.empty() &&
           r.value().rows[0][0].AsDouble() == init.rows[0][0].AsDouble();
      why = "customer count changed";
    } else {
      ++log->acked[c.tenant];
    }
    if (!ctx_->tally.Check(ok, what + " result: " + why)) return;
    latency_ms_[index] = MsBetween(req.due, end);
    log->last_end = std::max(log->last_end, end);
    ++log->ok;
  }

  /// Releases the schedule slice by slice. After each slice the generator
  /// waits until every released request has finished and probes the whole
  /// machine's speed while it is idle: probing during a slice would time
  /// the workload's own load. A slice's latencies are scaled by the mean of
  /// the probes before and after it.
  void Drive() {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<size_t> ready;  // guarded by mu
    size_t finished = 0;       // guarded by mu
    bool done = false;         // guarded by mu
    logs_.resize(static_cast<size_t>(ctx_->nproc));
    latency_ms_.assign(schedule_.size(), -1);
    std::vector<std::thread> clients;
    for (int i = 0; i < ctx_->nproc; ++i) {
      clients.emplace_back([&, i] {
        ClientLog* log = &logs_[static_cast<size_t>(i)];
        for (;;) {
          size_t next = 0;
          {
            std::unique_lock<std::mutex> lock(mu);
            cv.wait(lock, [&] { return !ready.empty() || done; });
            if (ready.empty()) return;
            next = ready.front();
            ready.pop_front();
          }
          Serve(next, log);
          {
            std::lock_guard<std::mutex> lock(mu);
            ++finished;
          }
          cv.notify_all();
        }
      });
    }
    double probe_ms = SpeedProbe::ParallelBurst(3, ctx_->nproc);
    size_t next = 0;
    const double slice_s = options_.seconds / kSlices;
    for (int slice = 0; slice < kSlices; ++slice) {
      const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(5);
      const size_t first = next;
      for (; next < schedule_.size() &&
             schedule_[next].offset_s < (slice + 1) * slice_s;
           ++next) {
        Request& r = schedule_[next];
        r.due = t0 + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(r.offset_s -
                                                       slice * slice_s));
        std::this_thread::sleep_until(r.due);
        lag_ms_.push_back(MsBetween(r.due, Clock::now()));
        {
          std::lock_guard<std::mutex> lock(mu);
          ready.push_back(next);
        }
        cv.notify_one();
      }
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return finished == next; });
      }
      const double after = SpeedProbe::ParallelBurst(3, ctx_->nproc);
      const double factor = SpeedProbe::kReferenceMs / ((probe_ms + after) / 2);
      for (size_t i = first; i < next; ++i) schedule_[i].factor = factor;
      probe_ms = after;
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      done = true;
    }
    cv.notify_all();
    for (std::thread& t : clients) t.join();
  }

  void Report(Clock::time_point start) {
    std::vector<double> ms[3];
    Clock::time_point last_end = start;
    uint64_t served = 0;
    for (size_t i = 0; i < schedule_.size(); ++i) {
      if (latency_ms_[i] >= 0) {
        ms[schedule_[i].kind].push_back(latency_ms_[i] * schedule_[i].factor);
      }
    }
    for (const ClientLog& log : logs_) {
      for (const auto& [tenant, n] : log.acked) acked_[tenant] += n;
      last_end = std::max(last_end, log.last_end);
      served += log.ok;
    }
    MetricSet& e2e = ctx_->end_to_end;
    e2e.Set("analytic_p50_ms", HdQuantile(ms[kAnalytic], 0.5), "ms");
    e2e.Set("read_p50_ms", HdQuantile(ms[kRead], 0.5), "ms");
    // The tails: a few hundred samples per class and run. On a shared host
    // they spread by up to 0.23 (analytic) and 0.4-0.5 (read, write) IQR
    // over median between runs, so they are per-layer (unbounded) numbers.
    MetricSet& layer = ctx_->per_layer;
    layer.Set("analytic_p99_ms", HdQuantile(ms[kAnalytic], 0.99), "ms");
    layer.Set("read_p99_ms", HdQuantile(ms[kRead], 0.99), "ms");
    layer.Set("write_p99_ms", HdQuantile(ms[kWrite], 0.99), "ms");
    for (int k : {kAnalytic, kRead, kWrite}) {
      char note[160];
      std::snprintf(note, sizeof(note),
                    "serving phase: %s p50 %.3f ms, p99 %.3f ms (n=%zu, "
                    "%zu beyond p99)",
                    kKindName[k], HdQuantile(ms[k], 0.5),
                    HdQuantile(ms[k], 0.99),
                    ms[k].size(), ms[k].size() / 100);
      ctx_->notes.push_back(note);
    }
    layer.Set("serving.offered_per_s",
              static_cast<double>(schedule_.size()) / options_.seconds, "1/s");
    layer.Set("serving.served_per_s",
              Ratio(static_cast<double>(served),
                    SecondsBetween(start, last_end)),
              "1/s");
    layer.Set("serving.generator_lag_ms", Quantile(lag_ms_, 0.99), "ms");
  }

  /// Each tenant's c_acctbal total rose by exactly 1.00 per acknowledged
  /// UPDATE, read in that tenant's own scope.
  void CheckBalances() {
    for (int64_t t = 1; t <= kTenants; ++t) {
      Result<engine::ResultSet> r = OwnScope(t, kLookupSql);
      const std::string what = "tenant " + std::to_string(t) + " balance";
      if (!ctx_->tally.Check(r.ok(), what + ": " + r.status().ToString())) {
        continue;
      }
      const double want = initial_.at(t).rows[0][1].AsDouble() +
                          static_cast<double>(acked_[t]);
      const double got = r.value().rows[0][1].AsDouble();
      ctx_->tally.Check(std::fabs(got - want) < 0.005,
                        what + ": " + std::to_string(got) + " vs expected " +
                            std::to_string(want));
    }
  }

  /// Median PreparedQuery::Execute minus median PreparedPlan::Execute of the
  /// same rewritten SQL, on the own-scope tenant lookup.
  Status SessionOverhead() {
    mt::Session s(env_->middleware.get(), conns_[1]->tenant);
    MTB_ASSIGN_OR_RETURN(mt::PreparedQuery query, s.Prepare(kLookupSql));
    auto warm = query.Execute();  // compiles; sql() is the rewritten text
    if (!warm.ok()) return warm.status();
    MTB_ASSIGN_OR_RETURN(engine::PreparedPlan plan,
                         env_->mth_db->Prepare(query.sql()));
    std::vector<double> session_us, engine_us;
    for (int i = 0; i < kOverheadReps; ++i) {
      Result<engine::ResultSet> a = Status::Internal("not run");
      Result<engine::ResultSet> b = Status::Internal("not run");
      session_us.push_back(1e3 * TimeCall(&ctx_->spans,
                                          "mt/PreparedQuery::Execute", 0, 0,
                                          [&] { a = query.Execute(); }));
      engine_us.push_back(1e3 * TimeCall(&ctx_->spans,
                                         "engine/PreparedPlan::Execute", 0, 0,
                                         [&] { b = plan.Execute(); }));
      std::string why;
      ctx_->tally.Check(a.ok() && b.ok() &&
                            mth::ResultsEqual(a.value(), b.value(), &why),
                        "session vs engine lookup: " + why);
    }
    ctx_->per_layer.Set("mt.session_overhead_us",
                        Median(session_us) - Median(engine_us), "us");
    return Status::OK();
  }

  ServingOptions options_;
  RunContext* ctx_;
  mth::MthEnvironment* env_;
  std::vector<std::unique_ptr<Connection>> conns_;
  std::map<int64_t, std::vector<int64_t>> custkeys_;
  std::map<int64_t, engine::ResultSet> initial_;  // lookup before the window
  std::map<int64_t, std::vector<engine::ResultSet>> expected_;  // analytic
  std::vector<Request> schedule_;
  std::vector<ClientLog> logs_;
  std::vector<double> lag_ms_;
  std::vector<double> latency_ms_;  // by schedule index; -1 = failed
  std::map<int64_t, int64_t> acked_;
};

}  // namespace

Result<SetupTiming> RunServing(const ServingOptions& options,
                               RunContext* ctx) {
  mth::MthConfig cfg;
  cfg.scale_factor = kSf;
  cfg.num_tenants = kTenants;
  cfg.distribution = mth::MthConfig::Distribution::kZipf;
  SetupTiming timing;
  MTB_ASSIGN_OR_RETURN(std::unique_ptr<mth::MthEnvironment> env,
                       SetUp(cfg, /*with_baseline=*/false, options.setups, ctx,
                             &timing));
  ServingPhase phase(options, ctx, env.get());
  MTB_RETURN_IF_ERROR(phase.Run());
  char header[192];
  std::snprintf(header, sizeof(header),
                "{\"sf\": %g, \"tenants\": %d, \"zipf\": %g, \"sessions\": %d, "
                "\"client_threads\": %d, \"offered_per_s\": %g, "
                "\"window_s\": %g, \"engine_threads\": \"auto\"}",
                kSf, kTenants, kZipf, kSessions, ctx->nproc, kOfferedPerS,
                options.seconds);
  ctx->header.emplace_back("serving_mix", header);
  return timing;
}

}  // namespace perfbench
