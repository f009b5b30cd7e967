// Seeded random curves shared by the NC test suites (property, kernel and
// bit-identity digest tests). Every draw comes from the caller's pap::Rng in
// a fixed order, so a seed names the same corpus in every suite and across
// commits.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "nc/curve.hpp"

namespace pap::nc_test {

/// Random segment length; in sub-ns mode most lengths land below 1 ns, the
/// regime where crossing points must come from segment slopes, not from
/// eval(x + 1.0) probes.
inline double random_length(Rng& rng, bool sub_ns) {
  if (sub_ns) return 0.001 + 0.9 * rng.next_double();
  return 0.5 + 19.5 * rng.next_double();
}

/// A curve from (0, y0) through one random-length piece per slope.
inline nc::Curve from_slopes(Rng& rng, const std::vector<double>& slopes,
                             double y0, bool sub_ns) {
  std::vector<nc::Segment> segs;
  segs.reserve(slopes.size());
  double x = 0.0;
  double y = y0;
  for (double slope : slopes) {
    segs.push_back(nc::Segment{x, y, slope});
    const double len = random_length(rng, sub_ns);
    x += len;
    y += slope * len;
  }
  return nc::Curve{segs};
}

/// Concave arrival curve: burst >= 0, strictly decreasing positive slopes.
inline nc::Curve random_concave(Rng& rng, bool sub_ns) {
  const int pieces = static_cast<int>(rng.uniform(1, 10));
  std::vector<double> slopes;
  slopes.reserve(static_cast<std::size_t>(pieces));
  double s = 2.0 + 10.0 * rng.next_double();
  for (int i = 0; i < pieces; ++i) {
    slopes.push_back(s);
    s *= 0.3 + 0.6 * rng.next_double();  // strictly decreasing, positive
  }
  const double burst = rng.chance(0.8) ? 16.0 * rng.next_double() : 0.0;
  return from_slopes(rng, slopes, burst, sub_ns);
}

/// Convex service curve: f(0) = 0, non-decreasing slopes (possibly an
/// initial latency piece of slope 0).
inline nc::Curve random_convex(Rng& rng, bool sub_ns) {
  const int pieces = static_cast<int>(rng.uniform(1, 10));
  std::vector<double> slopes;
  slopes.reserve(static_cast<std::size_t>(pieces));
  double s = rng.chance(0.5) ? 0.0 : 0.5 * rng.next_double();
  for (int i = 0; i < pieces; ++i) {
    slopes.push_back(s);
    s += 0.2 + 3.0 * rng.next_double();  // strictly increasing
  }
  return from_slopes(rng, slopes, 0.0, sub_ns);
}

}  // namespace pap::nc_test
