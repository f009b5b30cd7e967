// Statistics collection for simulation experiments: running moments,
// percentile-capable latency histograms, and min/max tracking. Used by every
// bench that reports a latency distribution (motivation_interference,
// fig4_frfcfs_model, the platform scenarios, ...).
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include "common/check.hpp"
#include "common/time.hpp"

namespace pap {

/// Streaming mean/variance/min/max over doubles (Welford's algorithm).
class RunningStats {
 public:
  void add(double x);
  void merge(const RunningStats& other);

  std::int64_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const;  ///< Sample variance (n-1 denominator).
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return n_ ? mean_ * static_cast<double>(n_) : 0.0; }

 private:
  std::int64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Latency histogram with exact percentiles.
///
/// Samples are kept (as picosecond integers); for this repository's scales
/// (at most a few million samples per experiment) exactness beats the memory
/// savings of bucketing, and worst-case analysis work cares about exact
/// maxima.
class LatencyHistogram {
 public:
  void add(Time sample);
  /// Absorb another histogram's samples (e.g. aggregating per-point
  /// distributions collected by a parallel sweep).
  void merge(const LatencyHistogram& other);
  std::size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }

  Time min() const;
  Time max() const;
  Time mean() const;
  /// Exact percentile by nearest-rank; p in [0, 100].
  Time percentile(double p) const;

  /// Render "count/mean/p50/p99/max" on one line, for logs and tables.
  std::string summary() const;

  /// All samples in ascending order, as picosecond counts. Used where an
  /// exact distribution comparison is needed (e.g. pinning trace replay
  /// ps-identical to the originating run).
  const std::vector<std::int64_t>& sorted_samples() const {
    ensure_sorted();
    return samples_;
  }

  /// Fixed-width ASCII bar chart of the distribution (for bench output).
  std::string ascii_chart(int buckets = 20, int width = 40) const;

 private:
  void ensure_sorted() const;
  mutable std::vector<std::int64_t> samples_;
  mutable bool sorted_ = true;
};

/// Fixed-schema occurrence counters (hits, misses, row conflicts, switches,
/// stalls, ...) for the simulator's components.
///
/// A component declares its counter names once, at construction, in the
/// order readers should see them, and bumps them by slot — an enum value
/// indexing that declaration — so counting on a per-access path is one
/// integer add: no string is built, hashed or compared. Readers ask by name
/// through `get(name)` (0 for a name the component does not declare) or
/// walk `entries()`. Names must outlive the Counters (string literals).
///
///   enum Counter : Counters::Slot { kHits, kMisses };
///   Counters counters_{"hits", "misses"};
///   counters_.inc(kHits);
class Counters {
 public:
  using Slot = std::size_t;

  Counters(std::initializer_list<std::string_view> names);

  void inc(Slot slot, std::int64_t by = 1) {
    PAP_CHECK(slot < values_.size());
    values_[slot] += by;
  }
  std::int64_t value(Slot slot) const {
    PAP_CHECK(slot < values_.size());
    return values_[slot];
  }
  std::int64_t get(std::string_view name) const;
  /// Every declared counter with its value, in declaration order.
  std::vector<std::pair<std::string_view, std::int64_t>> entries() const;
  /// Zero every counter (the schema stays).
  void reset();

 private:
  std::vector<std::string_view> names_;
  std::vector<std::int64_t> values_;
};

}  // namespace pap
