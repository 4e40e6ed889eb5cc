// Shared plumbing of perfbench: timing, quantiles, metric sets,
// the attempted/failed tally and the traced run's in-memory span log.
//
// perfbench measures the MTBase libraries only through their public
// functions. Every layer number comes from timing perfbench's own calls
// into that layer; nothing in src/ is instrumented for it.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Quantile of `v` by linear interpolation between closest ranks (q in
/// [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> v, double q);
inline double Median(std::vector<double> v) {
  return Quantile(std::move(v), 0.5);
}
/// Harrell-Davis estimate of quantile q: a Beta-weighted average of all
/// order statistics. Far less jumpy than a single order statistic for tail
/// quantiles of a few hundred samples; 0 for an empty sample.
double HdQuantile(std::vector<double> v, double q);
/// Distance between the first and third quartile.
double Iqr(const std::vector<double>& v);
/// a / b, or 0 when b is 0 (a ratio over no work reads 0, never NaN).
inline double Ratio(double a, double b) { return b != 0 ? a / b : 0.0; }

/// Metric values in emission order.
class MetricSet {
 public:
  struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
  };

  void Set(const std::string& name, double value, const std::string& unit);
  const std::vector<Metric>& items() const { return items_; }
  /// `{"name": {"value": v, "unit": "u"}, ...}` with every digit of v.
  std::string ToJson() const;

 private:
  std::vector<Metric> items_;
};

/// Operations attempted and failed over a whole run. A statement error and
/// an output mismatch are both failures. Thread-safe.
class Tally {
 public:
  /// Count one operation; `ok == false` makes it a failure described by
  /// `what` (the first failure is kept for the log). Returns `ok`.
  bool Check(bool ok, const std::string& what);
  uint64_t attempted() const { return attempted_.load(); }
  uint64_t failed() const { return failed_.load(); }
  std::string first_failure() const;

 private:
  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
  mutable std::mutex mu_;
  std::string first_failure_;  // guarded by mu_
};

/// The traced run's span log: one span per public library call perfbench
/// makes (name "<layer>/<call>", start, end, parent span, request id), kept
/// in memory and written out at exit. Disabled logs record nothing and hand
/// out id 0. Thread-safe.
class SpanLog {
 public:
  struct Span {
    const char* name;  // string literal: "<layer>/<call>"
    int64_t id;
    int64_t parent;   // 0 = root
    int64_t request;  // spans of one request share it
    Clock::time_point start;
    Clock::time_point end;
  };

  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  /// The trace-overhead probe toggles recording around identical calls.
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  /// A fresh span id (0 when disabled), for spans that parent others.
  int64_t NewId();
  void Record(int64_t id, const char* name, Clock::time_point start,
              Clock::time_point end, int64_t parent, int64_t request);

  /// Self time per layer in ms: each span's duration minus the time its
  /// child spans cover, summed by the span name's layer prefix.
  std::vector<std::pair<std::string, double>> LayerSelfMs() const;
  /// Write every span as one JSON object per line; false on I/O error.
  bool WriteJsonl(const std::string& path) const;

 private:
  std::atomic<bool> enabled_;
  std::atomic<int64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
  Clock::time_point origin_ = Clock::now();
};

/// Run `fn`, return its wall time in ms and, when tracing, record it as a
/// span named `name`.
template <typename F>
double TimeCall(SpanLog* log, const char* name, int64_t parent,
                int64_t request, F&& fn) {
  const Clock::time_point t0 = Clock::now();
  fn();
  const Clock::time_point t1 = Clock::now();
  if (log->enabled()) log->Record(log->NewId(), name, t0, t1, parent, request);
  return MsBetween(t0, t1);
}

/// Machine-speed probe. The benchmark's host is shared with other virtual
/// machines whose load moves this machine's throughput by up to ~2x over
/// minutes, which no amount of repetition inside one run averages out. A
/// fixed sort + hash-table kernel, timed beside the measured work while no
/// benchmark work is in flight, tracks that drift; end-to-end times are
/// reported at the reference speed: measured ms x kReferenceMs / probe ms.
/// Not thread-safe: probe from one thread.
class SpeedProbe {
 public:
  /// The kernel's time at the reference speed; defines the unit.
  static constexpr double kReferenceMs = 10.0;

  /// Time the kernel once; returns ms and remembers the sample.
  double Probe();
  /// Probe unless the last probe is less than kIntervalMs old.
  void MaybeProbe();
  /// Median of `n` fresh probes.
  double Burst(int n);
  /// Median over `n` rounds of the mean time of `threads` kernels run at
  /// once: the speed of the whole machine, for multi-threaded work. Not
  /// kept as a probe sample.
  static double ParallelBurst(int n, int threads);
  /// kReferenceMs over the median of the most recent probes (1 before the
  /// first probe): multiply a measured time by it.
  double Factor() const;
  /// Median of every probe of the run (ms).
  double MedianMs() const { return Median(probes_); }

 private:
  static constexpr double kIntervalMs = 300;
  static constexpr size_t kRecent = 3;
  std::vector<double> probes_;
  Clock::time_point last_{};
};

/// Peak resident set size of this process in MiB.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
