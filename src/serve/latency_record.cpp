#include "serve/latency_record.hpp"

#include <cmath>
#include <cstdio>

namespace pap::serve {

std::int64_t LatencyRecord::tenths_us(Time sample) {
  // The double `stats` has always formatted, not the exact ps / 1e6: the
  // two differ in the last bit, and `%.1f` rounds the double's exact
  // binary value half-to-even.
  const double us = sample.nanos() / 1000.0;
  // 20 * us exactly, as the rounded product plus its (exact) error.
  const double p = us * 20.0;
  const double err = std::fma(us, 20.0, -p);
  double twice = std::floor(p);
  bool tie = false;
  if (twice == p) {  // integral product: the exact value may sit below it
    if (err < 0) {
      twice -= 1.0;
    } else {
      tie = err == 0;
    }
  }
  // 10 * us lies in [twice / 2, (twice + 1) / 2).
  const auto floor20 = static_cast<std::int64_t>(twice);
  const std::int64_t whole = floor20 / 2;
  if (floor20 % 2 == 0) return whole;  // fraction below one half
  if (tie) return whole % 2 == 0 ? whole : whole + 1;  // exactly one half
  return whole + 1;
}

void LatencyRecord::add(Time sample) {
  ++counts_[tenths_us(sample)];
  ++count_;
}

std::int64_t LatencyRecord::percentile_tenths(double p) const {
  const auto n = static_cast<double>(count_);
  auto rank = static_cast<std::uint64_t>(std::ceil(p / 100.0 * n));
  if (rank == 0) rank = 1;
  if (rank > count_) rank = count_;
  std::uint64_t seen = 0;
  for (const auto& [tenths, samples] : counts_) {
    seen += samples;
    if (seen >= rank) return tenths;
  }
  return counts_.rbegin()->first;
}

std::string LatencyRecord::json() const {
  std::string out = "\"count\":" + std::to_string(count_);
  if (count_ == 0) return out;
  const auto field = [&out](const char* name, std::int64_t tenths) {
    char buf[48];
    std::snprintf(buf, sizeof buf, ",\"%s\":%lld.%lld", name,
                  static_cast<long long>(tenths / 10),
                  static_cast<long long>(tenths % 10));
    out += buf;
  };
  field("p50", percentile_tenths(50));
  field("p95", percentile_tenths(95));
  field("p99", percentile_tenths(99));
  field("max", counts_.rbegin()->first);
  return out;
}

}  // namespace pap::serve
