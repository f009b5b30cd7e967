#include "oracle/wcd_reference.hpp"

#include <utility>
#include <vector>

#include "common/check.hpp"

namespace pap::dram::reference {

nc::Curve service_curve(const WcdAnalysis& analysis, int max_n) {
  PAP_CHECK(max_n >= 1);
  std::vector<std::pair<double, double>> points;
  std::vector<Time> times;
  points.reserve(static_cast<std::size_t>(max_n));
  times.reserve(static_cast<std::size_t>(max_n));
  bool truncated = false;
  for (int n = 1; n <= max_n; ++n) {
    const WcdBounds b = analysis.bounds(n);
    if (!b.converged) {
      // Past write-service saturation this and every deeper position
      // diverge: the curve ends here, flat.
      truncated = true;
      break;
    }
    times.push_back(b.upper);
    points.emplace_back(b.upper.nanos(), static_cast<double>(n));
  }
  if (points.empty()) return nc::Curve::constant(0.0);
  // Asymptotic rate from the last step; one row cycle per request when
  // there is only one point.
  double tail;
  if (truncated) {
    tail = 0.0;
  } else if (times.size() >= 2) {
    const double dt = (times.back() - times[times.size() - 2]).nanos();
    tail = dt > 0 ? 1.0 / dt : 0.0;
  } else {
    tail = 1.0 / analysis.miss_service_time(1).nanos();
  }
  return nc::Curve::from_points(points, tail);
}

}  // namespace pap::dram::reference
