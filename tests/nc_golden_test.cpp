// Cross-commit bit-identity of the Network Calculus layer.
//
// Every output of the public NC operations — curve segments, evaluations,
// inverses, deviations, delay bounds — is folded bit for bit into an FNV-1a
// digest over a seeded corpus, and the digest is compared with a committed
// constant. Three corpora, one digest each:
//  * curve algebra: random concave/convex curves (including sub-nanosecond
//    segments) through every public Curve operation;
//  * DRAM service curves: WcdAnalysis::service_curve for depths 1..128 over
//    every device preset x analyzable policy x a write-rate sweep that runs
//    past write-service saturation;
//  * end-to-end bounds: E2eAnalysis::e2e_bounds_into over seeded random flow
//    sets on a 4x4 mesh, with DRAM flows and links driven into saturation.
//
// The constants are the digests of the implementation they were captured
// from. A change to any NC kernel that moves a single bit of any result —
// even well inside every tolerance the property tests use — changes the
// digest. A deliberate numerical change must re-capture the constants and
// say why; a refactor must leave them alone.
#include <cstdint>
#include <cstring>
#include <optional>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "core/e2e_analysis.hpp"
#include "dram/policy.hpp"
#include "dram/timing.hpp"
#include "dram/wcd.hpp"
#include "nc/bounds.hpp"
#include "nc/curve.hpp"
#include "nc/ops.hpp"
#include "nc/service.hpp"
#include "noc/topology.hpp"
#include "random_curves.hpp"

namespace {

using pap::Rng;
using pap::Time;
using pap::nc::Curve;
using pap::nc::Segment;
using pap::nc_test::from_slopes;
using pap::nc_test::random_concave;
using pap::nc_test::random_convex;
using pap::nc_test::random_length;

// Captured digests (see the file comment).
constexpr std::uint64_t kCurveAlgebraDigest = 0x5e63ca343e9e8bd8;
constexpr std::uint64_t kWcdServiceDigest = 0x4bc08403786289c5;
constexpr std::uint64_t kE2eBoundsDigest = 0x416448aa0b8c83bb;

// ---------------------------------------------------------------------------
// FNV-1a over raw bits
// ---------------------------------------------------------------------------

class Digest {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 0x100000001b3ULL;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void flag(bool b) { u64(b ? 1 : 0); }
  void curve(const Curve& c) {
    const auto segs = c.segments();
    u64(segs.size());
    for (const Segment& s : segs) {
      f64(s.x);
      f64(s.y);
      f64(s.slope);
    }
  }
  void opt(const std::optional<double>& v) {
    flag(v.has_value());
    if (v) f64(*v);
  }
  void opt(const std::optional<Time>& v) {
    flag(v.has_value());
    if (v) u64(static_cast<std::uint64_t>(v->picos()));
  }
  void opt(const std::optional<Curve>& v) {
    flag(v.has_value());
    if (v) curve(*v);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

// ---------------------------------------------------------------------------
// Seeded curve corpus: the shared concave/convex generators plus the
// shapes only this corpus needs
// ---------------------------------------------------------------------------

/// Non-negative, non-decreasing but neither concave nor convex: random
/// slopes in any order (the DRAM service-curve shape convex_minorant eats).
Curve random_wiggly(Rng& rng, bool sub_ns) {
  const int pieces = static_cast<int>(rng.uniform(1, 12));
  std::vector<double> slopes;
  for (int i = 0; i < pieces; ++i) {
    slopes.push_back(rng.chance(0.2) ? 0.0 : 4.0 * rng.next_double());
  }
  return from_slopes(rng, slopes, rng.chance(0.5) ? 0.0 : rng.next_double(),
                     sub_ns);
}

/// Continuous piecewise-linear raw function from 0 that may dip and go
/// negative — the input shape of the positive non-decreasing closure.
std::vector<Segment> random_raw(Rng& rng, bool sub_ns) {
  const int pieces = static_cast<int>(rng.uniform(1, 10));
  std::vector<Segment> segs;
  double x = 0.0;
  double y = 8.0 * rng.next_double() - 4.0;
  for (int i = 0; i < pieces; ++i) {
    const double slope = 6.0 * rng.next_double() - 2.0;
    segs.push_back(Segment{x, y, slope});
    const double len = random_length(rng, sub_ns);
    x += len;
    y += slope * len;
  }
  return segs;
}

Curve random_curve(Rng& rng, bool sub_ns) {
  switch (rng.next_below(3)) {
    case 0:
      return random_concave(rng, sub_ns);
    case 1:
      return random_convex(rng, sub_ns);
    default:
      return random_wiggly(rng, sub_ns);
  }
}

void digest_probes(Digest& d, const Curve& c, Rng& rng) {
  const auto segs = c.segments();
  const double span = segs.back().x + 5.0;
  for (const Segment& s : segs) {
    d.f64(c.eval(s.x));
    d.opt(c.inverse(s.y));
  }
  for (int k = 0; k < 6; ++k) {
    const double x = span * rng.next_double();
    d.f64(c.eval(x));
    d.opt(c.inverse(c.eval(x) + rng.next_double()));
  }
  d.flag(c.is_concave());
  d.flag(c.is_convex());
  d.f64(c.value_at_zero());
  d.f64(c.final_slope());
  d.f64(c.last_breakpoint());
}

TEST(NcGolden, CurveAlgebraIsBitIdentical) {
  Rng rng(0x601DE11Cu);
  Digest d;
  const int kCases = 3000;
  for (int i = 0; i < kCases; ++i) {
    const bool sub_ns = i % 3 == 0;
    const Curve cv1 = random_convex(rng, sub_ns);
    const Curve cv2 = random_convex(rng, sub_ns);
    const Curve cc1 = random_concave(rng, sub_ns);
    const Curve cc2 = random_concave(rng, sub_ns);
    const Curve any1 = random_curve(rng, sub_ns);
    const Curve any2 = random_curve(rng, sub_ns);

    // Construction and lookups.
    for (const Curve* c : {&cv1, &cc1, &any1}) digest_probes(d, *c, rng);

    // Pointwise combinations of arbitrary shapes.
    d.curve(pap::nc::min(any1, any2));
    d.curve(pap::nc::max(any1, any2));
    d.curve(pap::nc::add(any1, any2));
    d.curve(pap::nc::min(cc1, cv1));
    d.curve(pap::nc::max(cc1, cv1));
    d.curve(pap::nc::add(cc1, cc2));

    // Min-plus algebra.
    const Curve conv = pap::nc::convolve(cv1, cv2);
    d.curve(conv);
    digest_probes(d, conv, rng);
    d.curve(pap::nc::convolve(cc1, cc2));
    d.opt(pap::nc::deconvolve(cc1, cv1));
    d.opt(pap::nc::output_arrival(cc2, conv));
    d.opt(pap::nc::h_deviation(cc1, cv1));
    d.opt(pap::nc::v_deviation(cc1, cv1));
    d.opt(pap::nc::h_deviation(cc2, conv));
    d.opt(pap::nc::v_deviation(cc2, conv));
    d.opt(pap::nc::delay_bound(cc1, cv2));
    d.opt(pap::nc::backlog_bound(cc1, cv2));
    d.opt(pap::nc::e2e_delay_bound(cc2, {cv1, cv2}));
    const Curve res = pap::nc::residual_blind(cv1, cc1);
    d.curve(res);
    d.curve(pap::nc::residual_blind(conv, cc2));
    d.curve(pap::nc::positive_nondecreasing_closure(random_raw(rng, sub_ns)));
    d.curve(pap::nc::convex_minorant(any1));
    d.curve(pap::nc::convex_minorant(res));

    // Named constructors and transforms.
    const double r = 0.1 + 4.0 * rng.next_double();
    const double t = 20.0 * rng.next_double();
    d.curve(Curve::affine(t, r));
    d.curve(Curve::constant(t));
    d.curve(Curve::rate_latency(r, t));
    d.curve(any1.scaled(0.25 + 3.0 * rng.next_double()));
    d.curve(cv1.shifted_right(t));
    std::vector<std::pair<double, double>> pts;
    double px = rng.chance(0.3) ? 0.0 : rng.next_double();
    double py = 0.0;
    const int npts = static_cast<int>(rng.uniform(1, 12));
    for (int k = 0; k < npts; ++k) {
      pts.emplace_back(px, py);
      px += random_length(rng, sub_ns);
      py += 3.0 * rng.next_double();
    }
    d.curve(Curve::from_points(pts, rng.next_double()));
  }
  EXPECT_EQ(d.value(), kCurveAlgebraDigest) << std::hex << "digest 0x"
                                            << d.value();
}

// ---------------------------------------------------------------------------
// DRAM service curves: device x analyzable policy x write rate x depth
// ---------------------------------------------------------------------------

TEST(NcGolden, WcdServiceCurvesAreBitIdentical) {
  Digest d;
  // Gbps over 64-byte requests, burst 8: from idle writes to well past the
  // write-service saturation of every preset.
  const double kRates[] = {0.0, 1.0, 3.0, 5.0, 6.5, 7.4, 7.8, 8.5, 10.0, 14.0};
  int curves = 0;
  for (const auto& name : pap::dram::device_names()) {
    const pap::dram::Timings timings =
        pap::dram::device_by_name(name).value();
    for (const auto kind : pap::dram::all_policy_kinds()) {
      if (!pap::dram::WcdAnalysis::analyzable(kind)) continue;
      const auto ctrl =
          pap::dram::ControllerConfig{}.policy(kind).build().value();
      for (double gbps : kRates) {
        const auto writes = pap::nc::TokenBucket::from_rate(
            pap::Rate::gbps(gbps), 64, 8.0);
        const pap::dram::WcdAnalysis analysis(timings, ctrl, writes);
        for (int depth = 1; depth <= 128; ++depth) {
          d.curve(analysis.service_curve(depth));
          ++curves;
        }
      }
    }
  }
  EXPECT_GT(curves, 0);
  EXPECT_EQ(d.value(), kWcdServiceDigest) << std::hex << "digest 0x"
                                          << d.value();
}

// ---------------------------------------------------------------------------
// End-to-end bounds over seeded flow sets (the e2e_fuzz_test shape, plus
// DRAM flows and saturating rates)
// ---------------------------------------------------------------------------

TEST(NcGolden, E2eBoundsAreBitIdentical) {
  pap::core::PlatformModel model;
  model.noc.cols = 4;
  model.noc.rows = 4;
  const pap::core::E2eAnalysis analysis(model);
  const pap::noc::Mesh2D mesh(4, 4);
  Digest d;
  std::vector<std::optional<Time>> bounds;
  int bounded = 0;
  int unbounded = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng(0xE2E60000u + seed);
    const int count = static_cast<int>(rng.uniform(1, 10));
    // Every fourth set runs hot enough to saturate shared links.
    const std::int64_t min_period = seed % 4 == 0 ? 8 : 200;
    std::vector<pap::core::AppRequirement> flows;
    for (int i = 0; i < count; ++i) {
      pap::core::AppRequirement r;
      r.app = static_cast<pap::noc::AppId>(i + 1);
      r.src = mesh.node(static_cast<int>(rng.next_below(4)),
                        static_cast<int>(rng.next_below(4)));
      do {
        r.dst = mesh.node(static_cast<int>(rng.next_below(4)),
                          static_cast<int>(rng.next_below(4)));
      } while (r.dst == r.src);
      const std::int64_t period_ns = rng.uniform(min_period, 2'000);
      r.traffic = pap::nc::TokenBucket{static_cast<double>(rng.uniform(1, 4)),
                                       1.0 / static_cast<double>(period_ns)};
      r.flits_per_packet = static_cast<int>(rng.uniform(1, 6));
      r.uses_dram = rng.chance(0.4);
      if (rng.chance(0.3)) {
        r.route_order = pap::noc::Mesh2D::RouteOrder::kYX;
      }
      r.deadline = Time::ms(1);
      flows.push_back(std::move(r));
    }
    analysis.e2e_bounds_into(flows, &bounds);
    ASSERT_EQ(bounds.size(), flows.size());
    for (const auto& b : bounds) {
      d.opt(b);
      (b ? bounded : unbounded)++;
    }
  }
  // The corpus must exercise both outcomes.
  EXPECT_GT(bounded, 0);
  EXPECT_GT(unbounded, 0);
  EXPECT_EQ(d.value(), kE2eBoundsDigest) << std::hex << "digest 0x"
                                         << d.value();
}

}  // namespace
