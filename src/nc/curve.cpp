// The Curve owner and the Curve-level NC operations (curve.hpp, ops.hpp,
// service.hpp's convex_minorant). Each operation runs the matching
// batch.cpp kernel over the inputs' views on this thread's scratch arena
// and copies the result out; none of them computes anything itself.
#include "nc/curve.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/check.hpp"
#include "nc/arena.hpp"
#include "nc/batch.hpp"
#include "nc/ops.hpp"
#include "nc/service.hpp"

namespace pap::nc {

namespace {

constexpr double kEps = 1e-9;

bool nearly_equal(double a, double b) {
  const double scale = std::max({1.0, std::fabs(a), std::fabs(b)});
  return std::fabs(a - b) <= kEps * scale;
}

/// Storage for the kernels behind one Curve operation, rewound on every
/// call: results are copied out before the next operation starts. It is
/// deliberately not thread_arena() — callers such as
/// admit::IncrementalAdmission hold views into that one across Curve calls.
Arena& scratch() {
  thread_local Arena arena(1 << 12);
  arena.reset();
  return arena;
}

/// Normalize SoA storage holding `cap` segments as [x | y | slope] blocks
/// of `cap` entries each, then close the gaps merged segments left behind.
void normalize_soa(std::vector<double>* soa, std::uint32_t cap) {
  double* d = soa->data();
  MutCurveView m{d, d + cap, d + 2 * static_cast<std::size_t>(cap), cap, cap};
  normalize_view(&m);
  if (m.n == cap) return;
  std::copy(m.y, m.y + m.n, d + m.n);
  std::copy(m.slope, m.slope + m.n, d + 2 * static_cast<std::size_t>(m.n));
  soa->resize(3 * static_cast<std::size_t>(m.n));
}

}  // namespace

Curve::Curve() : soa_{0.0, 0.0, 0.0} {}

Curve::Curve(const std::vector<Segment>& segments)
    : Curve(Uninit{}, static_cast<std::uint32_t>(segments.size())) {
  const auto cap = static_cast<std::uint32_t>(segments.size());
  for (std::uint32_t i = 0; i < cap; ++i) {
    soa_[i] = segments[i].x;
    soa_[cap + i] = segments[i].y;
    soa_[2 * static_cast<std::size_t>(cap) + i] = segments[i].slope;
  }
  normalize_soa(&soa_, cap);
}

// The two named constructors below fill their own storage and normalize it
// in place — the curves are one or two segments, too small for a round
// trip through the scratch arena to pay.
Curve Curve::affine(double value0, double slope) {
  Curve c;  // one segment at x = 0
  c.soa_[1] = value0;
  c.soa_[2] = slope;
  normalize_soa(&c.soa_, 1);
  return c;
}

Curve Curve::constant(double value) { return affine(value, 0.0); }

Curve Curve::rate_latency(double rate, double latency) {
  PAP_CHECK(rate >= 0.0 && latency >= 0.0);
  // Flat zero up to `latency`, then `rate`; for a zero latency normalize
  // folds the two segments into affine(0, rate).
  Curve c(Uninit{}, 2);  // zeroed
  c.soa_[1] = latency;
  c.soa_[5] = rate;
  normalize_soa(&c.soa_, 2);
  return c;
}

Curve Curve::from_points(const std::vector<std::pair<double, double>>& points,
                         double final_slope) {
  Arena& arena = scratch();
  const auto n = static_cast<std::uint32_t>(points.size());
  double* px = arena.alloc<double>(n);
  double* py = arena.alloc<double>(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    px[i] = points[i].first;
    py[i] = points[i].second;
  }
  return to_curve(from_points_view(arena, px, py, n, final_slope));
}

std::vector<Segment> Curve::segments() const {
  const CurveView v = view();
  std::vector<Segment> out(v.n);
  for (std::uint32_t i = 0; i < v.n; ++i) {
    out[i] = Segment{v.x[i], v.y[i], v.slope[i]};
  }
  return out;
}

Curve Curve::scaled(double k) const {
  PAP_CHECK(k >= 0.0);
  Curve out = *this;
  const std::uint32_t n = size();
  for (std::size_t i = n; i < out.soa_.size(); ++i) out.soa_[i] *= k;
  normalize_soa(&out.soa_, n);
  return out;
}

Curve Curve::shifted_right(double dx) const {
  PAP_CHECK(dx >= 0.0);
  if (dx == 0.0) return *this;
  PAP_CHECK_MSG(value_at_zero() <= kEps,
                "shifting a curve with a burst at 0 would create a jump");
  // A flat zero piece on [0, dx) (the fresh storage is zeroed), then every
  // segment moved right by dx.
  const CurveView v = view();
  const std::uint32_t cap = v.n + 1;
  Curve out(Uninit{}, cap);
  double* x = out.soa_.data();
  double* y = x + cap;
  double* slope = y + cap;
  for (std::uint32_t i = 0; i < v.n; ++i) {
    x[i + 1] = v.x[i] + dx;
    y[i + 1] = v.y[i];
    slope[i + 1] = v.slope[i];
  }
  normalize_soa(&out.soa_, cap);
  return out;
}

std::string Curve::to_string() const {
  const CurveView v = view();
  std::ostringstream os;
  os << "{";
  for (std::uint32_t i = 0; i < v.n; ++i) {
    if (i) os << ", ";
    os << "(x=" << v.x[i] << ", y=" << v.y[i] << ", m=" << v.slope[i] << ")";
  }
  os << "}";
  return os.str();
}

bool operator==(const Curve& a, const Curve& b) {
  if (a.soa_.size() != b.soa_.size()) return false;
  for (std::size_t i = 0; i < a.soa_.size(); ++i) {
    if (!nearly_equal(a.soa_[i], b.soa_[i])) return false;
  }
  return true;
}

Curve to_curve(CurveView v) {
  PAP_CHECK_MSG(v.n > 0, "curve needs at least one segment");
  Curve c(Curve::Uninit{}, v.n);
  double* d = c.soa_.data();
  std::copy(v.x, v.x + v.n, d);
  std::copy(v.y, v.y + v.n, d + v.n);
  std::copy(v.slope, v.slope + v.n, d + 2 * static_cast<std::size_t>(v.n));
  return c;
}

Curve min(const Curve& a, const Curve& b) {
  return to_curve(combine_view(scratch(), a.view(), b.view(), CombineOp::kMin));
}

Curve max(const Curve& a, const Curve& b) {
  return to_curve(combine_view(scratch(), a.view(), b.view(), CombineOp::kMax));
}

Curve add(const Curve& a, const Curve& b) {
  return to_curve(combine_view(scratch(), a.view(), b.view(), CombineOp::kAdd));
}

Curve positive_nondecreasing_closure(const std::vector<Segment>& raw) {
  PAP_CHECK(!raw.empty());
  Arena& arena = scratch();
  MutCurveView v =
      alloc_curve_view(arena, static_cast<std::uint32_t>(raw.size()));
  for (const Segment& s : raw) {
    v.x[v.n] = s.x;
    v.y[v.n] = s.y;
    v.slope[v.n] = s.slope;
    ++v.n;
  }
  return to_curve(positive_closure_view(arena, v));
}

Curve convolve(const Curve& f, const Curve& g) {
  return to_curve(convolve_view(scratch(), f.view(), g.view()));
}

std::optional<Curve> deconvolve(const Curve& f, const Curve& g) {
  CurveView out;
  if (!deconvolve_view(scratch(), f.view(), g.view(), &out)) {
    return std::nullopt;
  }
  return to_curve(out);
}

std::optional<double> h_deviation(const Curve& alpha, const Curve& beta) {
  return h_deviation_view(alpha.view(), beta.view());
}

std::optional<double> v_deviation(const Curve& alpha, const Curve& beta) {
  return v_deviation_view(alpha.view(), beta.view());
}

Curve residual_blind(const Curve& beta, const Curve& alpha_cross) {
  return to_curve(
      residual_blind_view(scratch(), beta.view(), alpha_cross.view()));
}

Curve convex_minorant(const Curve& curve) {
  return to_curve(convex_minorant_view(scratch(), curve.view()));
}

}  // namespace pap::nc
