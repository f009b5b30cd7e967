// The Network Calculus kernels: struct-of-arrays curves (CurveView) and the
// one implementation of every curve operation, written against storage the
// caller controls — almost always an Arena (arena.hpp).
//
// These are the only NC kernels in the library. The Curve API (curve.hpp,
// ops.hpp, bounds.hpp, service.hpp) is a thin owner that runs them on a
// private scratch arena and copies the result out; core::E2eAnalysis and
// the incremental admission engine call them directly on their decision
// arenas, so a whole decision makes no heap allocation. The retained naive
// originals the kernels are checked against live in the test-only oracle
// library (tests/oracle).
//
// Ownership rules:
//  * CurveView does not own; an arena-backed view is valid only while its
//    arena epoch is unchanged (Arena::epoch()). Do not hold such views
//    across Arena::reset(). Curve::view() is valid while the Curve lives.
//  * Kernels write their result into the arena passed in and return a view
//    of it; inputs and outputs may live in the same arena (outputs never
//    alias inputs — each kernel allocates fresh storage).
//  * To keep a result past the arena, copy it out with to_curve().
#pragma once

#include <cstdint>
#include <optional>

#include "nc/arena.hpp"
#include "nc/curve.hpp"

namespace pap::nc {

/// Mutable view over freshly allocated (arena) storage; `cap` is the
/// allocated segment capacity, `n` the used prefix. Converts to CurveView.
struct MutCurveView {
  double* x = nullptr;
  double* y = nullptr;
  double* slope = nullptr;
  std::uint32_t n = 0;
  std::uint32_t cap = 0;

  operator CurveView() const { return CurveView{x, y, slope, n}; }
};

/// One contiguous SoA allocation for up to `cap` segments.
MutCurveView alloc_curve_view(Arena& arena, std::uint32_t cap);

/// Establish the Curve invariants in place: validates them (aborting on a
/// negative, decreasing, discontinuous or unordered input), clamps -1e-9
/// noise to zero, drops zero-width segments (later definition wins) and
/// merges collinear neighbours (earlier anchor wins).
void normalize_view(MutCurveView* v);

/// Named constructors (canonical normalized representation):
/// f(t) = value0 + slope * t, the constant, and the rate-latency curve
/// beta_{R,T}(t) = R * max(0, t - T).
CurveView affine_view(Arena& arena, double value0, double slope);
CurveView constant_view(Arena& arena, double value);
CurveView rate_latency_view(Arena& arena, double rate, double latency);

/// Piecewise-linear interpolation from (0, 0) through the points
/// (px[i], py[i]) — x strictly increasing, values non-decreasing — extended
/// with `final_slope`; a first point at x == 0 sets the value at 0.
CurveView from_points_view(Arena& arena, const double* px, const double* py,
                           std::uint32_t npoints, double final_slope);

/// The pointwise combination operators, resolved at compile time inside
/// the merge loop.
enum class CombineOp : std::uint8_t { kMin, kMax, kAdd, kSub };

/// Two-pointer merge of both breakpoint sets, O(n + m), applying `op`
/// linearly on each elementary interval; crossing points come exactly from
/// the active segment pair (value difference over slope difference), never
/// from finite-difference probes, so sub-nanosecond segments are exact.
/// The raw result may be negative/decreasing for kSub (feed
/// positive_closure_view).
CurveView combine_raw_view(Arena& arena, CurveView a, CurveView b,
                           CombineOp op);

/// combine_raw_view plus the Curve invariants: min, max and sum of curves.
CurveView combine_view(Arena& arena, CurveView a, CurveView b, CombineOp op);

/// Running max with 0 of a raw piecewise-linear function: the non-negative,
/// non-decreasing closure [f]^+.
CurveView positive_closure_view(Arena& arena, CurveView raw);

/// Residual service under blind multiplexing: [beta - cross]^+ closure.
CurveView residual_blind_view(Arena& arena, CurveView beta, CurveView cross);

/// Min-plus convolution (convex*convex by slope-sorted piece merge, and
/// concave*concave as the pointwise min); aborts on other shapes.
CurveView convolve_view(Arena& arena, CurveView f, CurveView g);

/// Min-plus deconvolution of a concave f by a convex g (rotating-tangent
/// walk, O(n + m)); returns false (and an empty *out) when the supremum is
/// unbounded.
bool deconvolve_view(Arena& arena, CurveView f, CurveView g, CurveView* out);

/// Horizontal (delay) and vertical (backlog) deviation — allocation-free
/// merge walks, O(n + m); nullopt when unbounded.
std::optional<double> h_deviation_view(CurveView alpha, CurveView beta);
std::optional<double> v_deviation_view(CurveView alpha, CurveView beta);

/// Greatest convex curve below `c` (lower convex hull of the breakpoints).
CurveView convex_minorant_view(Arena& arena, CurveView c);

}  // namespace pap::nc
