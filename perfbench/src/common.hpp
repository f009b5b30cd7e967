// Shared helpers of the pap_bench harness: wall clock, seeded RNG, sample
// statistics, the metric table a run prints, and the failure type that
// aborts a run (output mismatch, validity guard, transport error).
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace bench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Aborts the run: printed on stderr, no result line, nonzero exit.
struct BenchError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

[[noreturn]] inline void fail(const std::string& what) { throw BenchError(what); }

/// SplitMix64: small, seedable, and independent of the program under test.
class Rng {
 public:
  /// Nearby seeds give unrelated streams: the state starts at a mixed seed.
  explicit Rng(std::uint64_t seed) : s_(mix(seed ^ 0x5DEECE66Dull)) {}
  std::uint64_t next() { return mix(s_ += 0x9E3779B97F4A7C15ull); }
  /// Uniform in [lo, hi] inclusive.
  long uniform(long lo, long hi) {
    return lo + static_cast<long>(next() % static_cast<std::uint64_t>(hi - lo + 1));
  }
  double real(double lo, double hi) {
    return lo + (hi - lo) * static_cast<double>(next() >> 11) * 0x1.0p-53;
  }
  bool chance(double p) { return real(0.0, 1.0) < p; }

 private:
  static std::uint64_t mix(std::uint64_t z) {
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  std::uint64_t s_;
};

inline std::uint64_t fnv1a(const char* data, std::size_t n,
                           std::uint64_t h = 0xcbf29ce484222325ull) {
  for (std::size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 0x100000001b3ull;
  }
  return h;
}
inline std::uint64_t fnv1a(const std::string& s,
                           std::uint64_t h = 0xcbf29ce484222325ull) {
  return fnv1a(s.data(), s.size(), h);
}

/// A bag of samples with linear-interpolated quantiles (the definition
/// numpy and statistics.quantiles(method="inclusive") use).
class Samples {
 public:
  void add(double v) { v_.push_back(v); sorted_ = false; }
  std::size_t count() const { return v_.size(); }
  bool empty() const { return v_.empty(); }
  double quantile(double q) {
    if (v_.empty()) return 0.0;
    sort();
    const double pos = q * static_cast<double>(v_.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v_.size() - 1);
    return v_[lo] + (v_[hi] - v_[lo]) * (pos - static_cast<double>(lo));
  }
  double median() { return quantile(0.5); }
  double sum() const {
    double s = 0.0;
    for (double v : v_) s += v;
    return s;
  }
  /// Samples strictly above quantile q: the "samples beyond" count.
  std::size_t beyond(double q) { return v_.size() - static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v_.size()))); }
  const std::vector<double>& values() const { return v_; }

 private:
  void sort() {
    if (!sorted_) std::sort(v_.begin(), v_.end());
    sorted_ = true;
  }
  std::vector<double> v_;
  bool sorted_ = true;
};

/// Median of a small vector (copies).
inline double median_of(std::vector<double> v) {
  Samples s;
  for (double x : v) s.add(x);
  return s.median();
}

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Ordered metric table plus the free-form report lines printed above the
/// result line (sample counts, metadata, guards, reconciliation).
struct Report {
  std::map<std::string, Metric> metrics;
  std::vector<std::string> lines;
  long attempted = 0;
  long failed = 0;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void note(const char* fmt, ...) __attribute__((format(printf, 2, 3)));
};

}  // namespace bench
