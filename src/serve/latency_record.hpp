// Per-endpoint latency record behind papd's `stats` endpoint.
//
// `stats` prints each endpoint's latency count and its p50/p95/p99/max in
// microseconds with one decimal (`%.1f` of the picosecond sample / 1e6).
// Keeping every sample to print four numbers would grow the record with
// the requests served; this record keeps one count per printed 0.1 µs
// value instead, so it grows with the number of distinct values only, and
// the percentiles come from a walk over those counts rather than a sort.
//
// The bucket of a sample is exactly the decimal `%.1f` would print for it
// (round-half-even on the binary double, as glibc formats it). That
// rounding is monotone, and nearest-rank percentiles commute with any
// monotone map, so the rendered figures are byte-identical to sorting the
// exact samples and formatting the picked one. Not thread-safe: the
// service guards each record with its endpoint's mutex.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "common/time.hpp"

namespace pap::serve {

class LatencyRecord {
 public:
  /// Record one non-negative latency sample.
  void add(Time sample);

  std::uint64_t count() const { return count_; }

  /// The `latency_us` object body of a `stats` endpoint entry:
  /// `"count":N` alone when empty, else followed by
  /// `,"p50":…,"p95":…,"p99":…,"max":…` in µs with one decimal.
  std::string json() const;

  /// The value `%.1f` prints for `sample.nanos() / 1000.0`, in tenths of a
  /// microsecond.
  static std::int64_t tenths_us(Time sample);

 private:
  /// Nearest-rank percentile (the `LatencyHistogram` definition), in
  /// tenths of a microsecond. Requires count_ > 0.
  std::int64_t percentile_tenths(double p) const;

  std::map<std::int64_t, std::uint64_t> counts_;  // tenths -> samples
  std::uint64_t count_ = 0;
};

}  // namespace pap::serve
