// Service-curve models. "In [real-time calculus] the worst-case service
// offered to a flow by a component is modeled as a function of time, called
// service curve" (Sec. IV). Rate-latency curves model links, TDMA slots and
// schedulers; arbitrary point-wise curves come out of the DRAM WCD analysis.
#pragma once

#include <vector>

#include "common/time.hpp"
#include "nc/curve.hpp"

namespace pap::nc {

/// beta_{R,T}(t) = R * max(0, t - T). Rate in units/ns, latency in ns.
struct RateLatency {
  double rate = 0.0;
  double latency = 0.0;

  Curve to_curve() const { return Curve::rate_latency(rate, latency); }
};

/// Service curve of a TDMA arbiter giving this flow `slot` out of every
/// `frame` time units on a resource serving at `rate` units/ns. The
/// standard lower bound is a rate-latency curve with
/// R' = rate * slot/frame and T = frame - slot.
RateLatency tdma_service(double rate, Time slot, Time frame);

/// Service curve of a round-robin arbiter with `flows` equal-weight flows
/// and per-grant quantum `quantum` (units) on a resource of `rate` units/ns:
/// rate share with one full round of other flows as latency.
RateLatency round_robin_service(double rate, int flows, double quantum);

/// Build a service curve from measured/analysed completion points
/// (t_N, N): "the curve that joins points (t_N, N) is a service curve for
/// this system" (Sec. IV-A). `tail_rate` extends beyond the last point;
/// pass the long-run service rate.
Curve service_from_points(const std::vector<std::pair<Time, double>>& points,
                          double tail_rate);

/// Conservative convex minorant of an arbitrary service curve: the greatest
/// convex curve below it. Convexity is required by the convolution used for
/// end-to-end composition; taking the minorant keeps the result a valid
/// (lower) service curve. Runs convex_minorant_view (defined in curve.cpp).
Curve convex_minorant(const Curve& curve);

}  // namespace pap::nc
