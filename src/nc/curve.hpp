// Piecewise-linear curves for Network Calculus (Section IV of the paper).
//
// A `Curve` is a non-negative, non-decreasing, continuous piecewise-linear
// function f: [0, inf) -> [0, inf) with finitely many segments; the last
// segment extends to infinity with its slope. Arrival curves carry their
// burst as the value at t = 0 (right-continuous convention, standard for
// computing deviations); service curves start at f(0) = 0.
//
// Units: the x axis is time in nanoseconds; the y axis is "work" in
// whatever unit the caller chose (bytes for NoC links, requests for the
// DRAM controller service curve of Sec. IV-A). Operations never mix units —
// that discipline is on the caller, as in the paper.
//
// Implementation: the NC kernels live once, in batch.cpp, and operate on
// CurveView spans. A Curve owns its segments in the same struct-of-arrays
// layout, so view() is free. Every Curve operation (here, ops.hpp,
// bounds.hpp, service.hpp) runs the matching kernel over its inputs'
// views: results are built on a private per-thread scratch arena and
// copied into a new Curve, or, for the one- and two-segment named
// constructors, written into the new Curve and normalized in place.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace pap::nc {

/// One linear piece: on [x, next.x) the curve is y + slope * (t - x).
struct Segment {
  double x = 0.0;      ///< start abscissa (ns)
  double y = 0.0;      ///< value at x
  double slope = 0.0;  ///< units per ns
};

/// Non-owning SoA curve: segment i covers [x[i], x[i+1]) with value
/// y[i] + slope[i] * (t - x[i]); the last segment extends to infinity.
/// Every view handed out by Curve::view() or by a builder or kernel in
/// batch.hpp satisfies the Curve invariants (x[0] == 0, continuous,
/// non-decreasing, non-negative), except the raw output of
/// combine_raw_view. Lookups are implemented in batch.cpp.
struct CurveView {
  const double* x = nullptr;
  const double* y = nullptr;
  const double* slope = nullptr;
  std::uint32_t n = 0;

  double value_at_zero() const { return y[0]; }
  double final_slope() const { return slope[n - 1]; }

  /// f(t) for t >= 0: binary search for the active segment.
  double eval(double t) const;

  /// First t with f(t) >= v, or nullopt if v is never reached.
  std::optional<double> inverse(double v) const;

  bool is_concave() const;  ///< slopes non-increasing
  bool is_convex() const;   ///< slopes non-decreasing and f(0) == 0
};

class Curve {
 public:
  /// The zero function.
  Curve();

  /// Build from explicit segments. Enforces the class invariants
  /// (x strictly increasing starting at 0, continuity, non-decreasing,
  /// non-negative); collinear pieces are merged.
  explicit Curve(const std::vector<Segment>& segments);

  /// Affine curve f(t) = value0 + slope * t  (token bucket when value0 > 0).
  static Curve affine(double value0, double slope);

  /// Constant function.
  static Curve constant(double value);

  /// f(t) = 0 for t <= latency, then rate * (t - latency). The canonical
  /// rate-latency service curve beta_{R,T}.
  static Curve rate_latency(double rate, double latency);

  /// Piecewise-linear interpolation from (0, 0) through `points`
  /// (x strictly increasing, values non-decreasing), extended beyond the
  /// last point with `final_slope`. This is how the DRAM WCD analysis turns
  /// its (t_N, N) points into a service curve ("the curve that joins points
  /// (t_N, N)"). If the first point has x == 0 its y becomes the value at 0.
  static Curve from_points(const std::vector<std::pair<double, double>>& points,
                           double final_slope);

  double eval(double x) const { return view().eval(x); }

  /// First x with f(x) >= y, or nullopt if y is never reached.
  std::optional<double> inverse(double y) const { return view().inverse(y); }

  /// The curve's storage as a view. Valid while this Curve is alive and
  /// unmodified.
  CurveView view() const {
    const std::uint32_t n = size();
    return CurveView{soa_.data(), soa_.data() + n, soa_.data() + 2 * n, n};
  }

  /// The segments, copied out of the SoA storage.
  std::vector<Segment> segments() const;

  double value_at_zero() const { return soa_[size()]; }
  double final_slope() const { return soa_.back(); }

  /// Largest abscissa at which the description changes (0 for affine).
  double last_breakpoint() const { return soa_[size() - 1]; }

  bool is_concave() const { return view().is_concave(); }
  bool is_convex() const { return view().is_convex(); }

  /// f scaled on the y axis (k >= 0).
  Curve scaled(double k) const;

  /// f shifted right by dx >= 0 (f(t - dx) for t >= dx, 0 before) — used to
  /// add a latency term to a service curve.
  Curve shifted_right(double dx) const;

  std::string to_string() const;

  /// Exact equality of the canonical representation.
  friend bool operator==(const Curve& a, const Curve& b);

  /// Copy a view that already satisfies the invariants (see CurveView).
  friend Curve to_curve(CurveView v);

 private:
  /// Storage for `n` segments, to be filled by the caller.
  struct Uninit {};
  Curve(Uninit, std::uint32_t n) : soa_(3 * static_cast<std::size_t>(n)) {}

  std::uint32_t size() const {
    return static_cast<std::uint32_t>(soa_.size() / 3);
  }

  // Invariant: n >= 1 segments stored as [x_0..x_n-1 | y_0..y_n-1 |
  // slope_0..slope_n-1]; x_0 == 0; x strictly increasing; continuous;
  // non-decreasing; non-negative; no two neighbours collinear.
  std::vector<double> soa_;
};

/// Pointwise combinations: merge the breakpoint sets and combine linearly on
/// each elementary interval, adding the exact crossing points where the
/// inputs intersect.
Curve min(const Curve& a, const Curve& b);
Curve max(const Curve& a, const Curve& b);
Curve add(const Curve& a, const Curve& b);

/// Copy a view into an owning Curve without re-normalizing it. `v` must
/// satisfy the Curve invariants — every builder and kernel output does,
/// except combine_raw_view.
Curve to_curve(CurveView v);

/// Running max with 0 of a raw piecewise-linear function (which may dip
/// negative or decrease): produces the non-negative, non-decreasing closure
/// [f]^+ used by residual service computations.
Curve positive_nondecreasing_closure(const std::vector<Segment>& raw);

}  // namespace pap::nc
