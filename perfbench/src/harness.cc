#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <thread>
#include <unordered_map>

namespace perfbench {

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

namespace {

/// Continued fraction of the incomplete beta function (modified Lentz).
double BetaContinuedFraction(double a, double b, double x) {
  constexpr double kTiny = 1e-300;
  double c = 1, d = 1 - (a + b) * x / (a + 1);
  if (std::fabs(d) < kTiny) d = kTiny;
  d = 1 / d;
  double h = d;
  for (int m = 1; m <= 1000; ++m) {
    const double m2 = 2.0 * m;
    double aa = m * (b - m) * x / ((a + m2 - 1) * (a + m2));
    for (int step = 0; step < 2; ++step) {
      d = 1 + aa * d;
      if (std::fabs(d) < kTiny) d = kTiny;
      c = 1 + aa / c;
      if (std::fabs(c) < kTiny) c = kTiny;
      d = 1 / d;
      h *= d * c;
      aa = -(a + m) * (a + b + m) * x / ((a + m2) * (a + m2 + 1));
    }
    if (std::fabs(d * c - 1) < 1e-12) break;
  }
  return h;
}

/// Regularized incomplete beta function I_x(a, b).
double IncompleteBeta(double a, double b, double x) {
  if (x <= 0) return 0;
  if (x >= 1) return 1;
  const double front = std::exp(std::lgamma(a + b) - std::lgamma(a) -
                                std::lgamma(b) + a * std::log(x) +
                                b * std::log1p(-x));
  if (x < (a + 1) / (a + b + 2)) {
    return front * BetaContinuedFraction(a, b, x) / a;
  }
  return 1 - front * BetaContinuedFraction(b, a, 1 - x) / b;
}

}  // namespace

double HdQuantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  const double a = (n + 1) * q, b = (n + 1) * (1 - q);
  double sum = 0, prev = 0;
  for (size_t i = 1; i <= v.size(); ++i) {
    const double cur = IncompleteBeta(a, b, static_cast<double>(i) / n);
    sum += (cur - prev) * v[i - 1];
    prev = cur;
  }
  return sum;
}

double Iqr(const std::vector<double>& v) {
  return Quantile(v, 0.75) - Quantile(v, 0.25);
}

void MetricSet::Set(const std::string& name, double value,
                    const std::string& unit) {
  // A ratio or mean over no work could still come out non-finite; JSON has
  // no spelling for that.
  if (!std::isfinite(value)) value = 0;
  items_.push_back({name, value, unit});
}

std::string MetricSet::ToJson() const {
  std::string out = "{";
  char buf[64];
  for (size_t i = 0; i < items_.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g", items_[i].value);
    if (i > 0) out += ", ";
    out += "\"" + items_[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + items_[i].unit + "\"}";
  }
  return out + "}";
}

bool Tally::Check(bool ok, const std::string& what) {
  attempted_.fetch_add(1);
  if (!ok) {
    failed_.fetch_add(1);
    std::lock_guard<std::mutex> lock(mu_);
    if (first_failure_.empty()) first_failure_ = what;
  }
  return ok;
}

std::string Tally::first_failure() const {
  std::lock_guard<std::mutex> lock(mu_);
  return first_failure_;
}

int64_t SpanLog::NewId() { return enabled() ? next_id_.fetch_add(1) : 0; }

void SpanLog::Record(int64_t id, const char* name, Clock::time_point start,
                     Clock::time_point end, int64_t parent, int64_t request) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, id, parent, request, start, end});
}

std::vector<std::pair<std::string, double>> SpanLog::LayerSelfMs() const {
  std::lock_guard<std::mutex> lock(mu_);
  // A child's interval lies inside its parent's and children of one parent
  // never overlap (they run one after another), so the
  // covered part is the sum of the children's durations.
  std::unordered_map<int64_t, double> child_ms;
  for (const Span& s : spans_) {
    if (s.parent != 0) child_ms[s.parent] += MsBetween(s.start, s.end);
  }
  std::map<std::string, double> by_layer;
  for (const Span& s : spans_) {
    std::string name = s.name;
    const std::string layer = name.substr(0, name.rfind('/'));
    auto it = child_ms.find(s.id);
    const double covered = it == child_ms.end() ? 0 : it->second;
    by_layer[layer] += std::max(0.0, MsBetween(s.start, s.end) - covered);
  }
  return {by_layer.begin(), by_layer.end()};
}

bool SpanLog::WriteJsonl(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  char buf[256];
  for (const Span& s : spans_) {
    std::snprintf(
        buf, sizeof(buf),
        "{\"name\": \"%s\", \"id\": %lld, \"parent\": %lld, \"request\": "
        "%lld, \"start_us\": %.3f, \"end_us\": %.3f}\n",
        s.name, static_cast<long long>(s.id),
        static_cast<long long>(s.parent), static_cast<long long>(s.request),
        MsBetween(origin_, s.start) * 1e3, MsBetween(origin_, s.end) * 1e3);
    out << buf;
  }
  out.flush();
  return static_cast<bool>(out);
}

namespace {

uint64_t XorShift(uint64_t* x) {
  *x ^= *x << 13;
  *x ^= *x >> 7;
  *x ^= *x << 17;
  return *x;
}

/// A random single-cycle permutation of 8 Mi slots (32 MiB): far beyond a
/// core's L2, so walking it shares the host's L3 and memory bandwidth with
/// the neighbours, as the benchmark's larger tables do.
const std::vector<uint32_t>& Ring() {
  static const std::vector<uint32_t> ring = [] {
    std::vector<uint32_t> r(size_t{1} << 23);
    for (size_t i = 0; i < r.size(); ++i) r[i] = static_cast<uint32_t>(i);
    uint64_t x = 0x9E3779B97F4A7C15ull;
    for (size_t i = r.size() - 1; i > 0; --i) {  // Sattolo: one cycle
      std::swap(r[i], r[XorShift(&x) % i]);
    }
    return r;
  }();
  return ring;
}

/// The probe kernel; returns its wall time in ms.
double ProbeKernel() {
  // Fixed inputs: xorshift keys, sorted, a hash table built over half of
  // them and probed with all of them, then a chain of dependent reads
  // through Ring().
  constexpr size_t kKeys = 32768;
  constexpr int kRingReads = 30000;
  const std::vector<uint32_t>& ring = Ring();
  const Clock::time_point t0 = Clock::now();
  std::vector<uint64_t> keys(kKeys);
  uint64_t x = 88172645463325252ull;
  for (uint64_t& k : keys) k = XorShift(&x);
  std::sort(keys.begin(), keys.end());
  std::unordered_map<uint64_t, uint64_t> table;
  table.reserve(kKeys / 2);
  for (size_t i = 0; i < kKeys; i += 2) table[keys[i]] = i;
  uint64_t hits = 0;
  for (uint64_t k : keys) hits += table.count(k);
  uint32_t at = 0;
  for (int i = 0; i < kRingReads; ++i) at = ring[at];
  const Clock::time_point t1 = Clock::now();
  // Keeps the work observable; the walk never leaves the ring.
  if (hits != kKeys / 2 || at >= ring.size()) std::abort();
  return MsBetween(t0, t1);
}

}  // namespace

double SpeedProbe::Probe() {
  probes_.push_back(ProbeKernel());
  last_ = Clock::now();
  return probes_.back();
}

double SpeedProbe::ParallelBurst(int n, int threads) {
  std::vector<double> rounds;
  for (int i = 0; i < n; ++i) {
    std::vector<double> ms(static_cast<size_t>(threads));
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back(
          [&ms, t] { ms[static_cast<size_t>(t)] = ProbeKernel(); });
    }
    for (std::thread& t : pool) t.join();
    double sum = 0;
    for (double v : ms) sum += v;
    rounds.push_back(sum / threads);
  }
  return Median(rounds);
}

void SpeedProbe::MaybeProbe() {
  if (probes_.empty() || MsBetween(last_, Clock::now()) >= kIntervalMs) {
    Probe();
  }
}

double SpeedProbe::Burst(int n) {
  std::vector<double> ms;
  for (int i = 0; i < n; ++i) ms.push_back(Probe());
  return Median(ms);
}

double SpeedProbe::Factor() const {
  if (probes_.empty()) return 1;
  const size_t n = std::min(kRecent, probes_.size());
  return kReferenceMs /
         Median(std::vector<double>(probes_.end() - static_cast<long>(n),
                                    probes_.end()));
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
