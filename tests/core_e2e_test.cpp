// End-to-end composition analysis: link residuals, path convolution, DRAM
// service integration, and validation against the NoC simulator.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "core/e2e_analysis.hpp"
#include "oracle/e2e_reference.hpp"
#include "sim/kernel.hpp"

namespace pap::core {
namespace {

PlatformModel model() {
  PlatformModel m;
  m.noc.cols = 4;
  m.noc.rows = 4;
  return m;
}

AppRequirement app(noc::AppId id, double burst, double rate_req_per_ns,
                   noc::NodeId src, noc::NodeId dst, Time deadline,
                   bool dram = false) {
  AppRequirement a;
  a.app = id;
  a.name = "app" + std::to_string(id);
  a.traffic = nc::TokenBucket{burst, rate_req_per_ns};
  a.src = src;
  a.dst = dst;
  a.deadline = deadline;
  a.uses_dram = dram;
  return a;
}

/// The bound of flows[0] within the set `flows`.
std::optional<Time> first_bound(const E2eAnalysis& e,
                                const std::vector<AppRequirement>& flows) {
  std::vector<std::optional<Time>> bounds;
  e.e2e_bounds_into(flows, &bounds);
  return bounds.front();
}

TEST(E2e, LinkRateFromFlitTime) {
  E2eAnalysis e(model());
  // 2 ns/flit, 4 flits: 1 packet per 8 ns.
  EXPECT_DOUBLE_EQ(e.link_rate(4), 1.0 / 8.0);
  EXPECT_EQ(e.hop_latency(), Time::ns(5));
}

TEST(E2e, LinksFollowXyRouteWithInjection) {
  E2eAnalysis e(model());
  noc::Mesh2D mesh(4, 4);
  const auto a = app(1, 1, 0.001, mesh.node(0, 0), mesh.node(2, 1),
                     Time::us(10));
  const auto links = e.links_of(a);
  ASSERT_EQ(links.size(), 5u);  // injection, E, E, N, ejection
  EXPECT_TRUE(links[0].injection);
  EXPECT_EQ(links[1].link.out, noc::Direction::kEast);
  EXPECT_EQ(links[4].link.out, noc::Direction::kLocal);
  EXPECT_FALSE(links[4].injection);
}

TEST(E2e, CoLocatedFlowsContendOnTheInjectionLink) {
  // Two apps on the SAME node heading to disjoint destinations still
  // interfere at their shared injection link.
  E2eAnalysis e(model());
  noc::Mesh2D mesh(4, 4);
  const auto a = app(1, 2, 0.002, mesh.node(0, 0), mesh.node(3, 0),
                     Time::us(10));
  const auto b = app(2, 4, 0.02, mesh.node(0, 0), mesh.node(0, 3),
                     Time::us(10));
  const auto alone = first_bound(e, {a});
  const auto shared = first_bound(e, {a, b});
  ASSERT_TRUE(alone && shared);
  EXPECT_GT(*shared, *alone);
}

TEST(E2e, InterfererBurstRaisesTheBound) {
  // Propagated burstiness: the same interferer with a bigger burst yields
  // a strictly larger bound for the victim.
  E2eAnalysis e(model());
  noc::Mesh2D mesh(4, 4);
  const auto a = app(1, 2, 0.002, mesh.node(0, 0), mesh.node(3, 0),
                     Time::us(10));
  const auto small = app(2, 1, 0.005, mesh.node(0, 1), mesh.node(3, 0),
                         Time::us(10));
  auto big = small;
  big.traffic.burst = 8;
  const auto with_small = first_bound(e, {a, small});
  const auto with_big = first_bound(e, {a, big});
  ASSERT_TRUE(with_small && with_big);
  EXPECT_GT(*with_big, *with_small);
}

TEST(E2e, UncontestedPathBoundIsHopChain) {
  E2eAnalysis e(model());
  noc::Mesh2D mesh(4, 4);
  const auto a = app(1, 1, 0.001, mesh.node(0, 0), mesh.node(3, 0),
                     Time::us(10));
  const auto bound = first_bound(e, {a});
  ASSERT_TRUE(bound.has_value());
  // 4 hops x 5 ns latency plus the burst served at the link rate.
  EXPECT_GE(*bound, Time::ns(20));
  EXPECT_LT(*bound, Time::us(1));
}

TEST(E2e, CrossTrafficRaisesBound) {
  E2eAnalysis e(model());
  noc::Mesh2D mesh(4, 4);
  const auto a = app(1, 2, 0.002, mesh.node(0, 0), mesh.node(3, 0),
                     Time::us(10));
  const auto cross = app(2, 2, 0.02, mesh.node(0, 1), mesh.node(3, 0),
                         Time::us(10));
  const auto alone = first_bound(e, {a});
  const auto contested = first_bound(e, {a, cross});
  ASSERT_TRUE(alone && contested);
  EXPECT_GT(*contested, *alone);
}

TEST(E2e, DisjointCrossTrafficIgnored) {
  E2eAnalysis e(model());
  noc::Mesh2D mesh(4, 4);
  const auto a = app(1, 2, 0.002, mesh.node(0, 0), mesh.node(1, 0),
                     Time::us(10));
  const auto far = app(2, 8, 0.05, mesh.node(0, 3), mesh.node(3, 3),
                       Time::us(10));
  const auto alone = first_bound(e, {a});
  const auto with_far = first_bound(e, {a, far});
  ASSERT_TRUE(alone && with_far);
  EXPECT_EQ(*alone, *with_far);
}

TEST(E2e, SaturatedLinkHasNoBound) {
  E2eAnalysis e(model());
  noc::Mesh2D mesh(4, 4);
  // Cross traffic at the full link rate (1/8 packets/ns).
  const auto a = app(1, 1, 0.001, mesh.node(0, 0), mesh.node(3, 0),
                     Time::us(10));
  const auto hog = app(2, 1, 0.125, mesh.node(0, 1), mesh.node(3, 0),
                       Time::us(10));
  EXPECT_FALSE(first_bound(e, {a, hog}).has_value());
}

TEST(E2e, DramChainExtendsBound) {
  E2eAnalysis e(model());
  auto a = app(1, 2, 0.001, 0, 5, Time::us(100), /*dram=*/true);
  auto no_dram = a;
  no_dram.uses_dram = false;
  const auto with = first_bound(e, {a});
  const auto without = first_bound(e, {no_dram});
  ASSERT_TRUE(with && without);
  EXPECT_GT(*with, *without);
}

TEST(E2e, DramCrossTrafficCountsAsWrites) {
  E2eAnalysis e(model());
  auto a = app(1, 2, 0.001, 0, 5, Time::ms(1), true);
  auto other = app(2, 4, 0.004, 1, 5, Time::ms(1), true);
  const auto alone = first_bound(e, {a});
  const auto shared = first_bound(e, {a, other});
  ASSERT_TRUE(alone && shared);
  EXPECT_GT(*shared, *alone);
}

// Validation against the simulator: the analytic bound must cover the
// simulated worst case for shaped flows through a contested NoC.
TEST(E2e, AnalysisBoundsCoverSimulation) {
  PlatformModel m = model();
  E2eAnalysis e(m);
  noc::Mesh2D mesh(4, 4);
  const auto a = app(1, 2, 1.0 / 500.0, mesh.node(0, 0), mesh.node(3, 0),
                     Time::us(10));
  const auto b = app(2, 2, 1.0 / 400.0, mesh.node(0, 1), mesh.node(3, 0),
                     Time::us(10));
  const auto bound_a = first_bound(e, {a, b});
  ASSERT_TRUE(bound_a.has_value());

  sim::Kernel kernel;
  noc::Network net(kernel, m.noc);
  // Inject conformant traffic: an initial burst of 2, then the sustained
  // rate (the NC bound covers flows that conform to the declared bucket;
  // shaper queueing of non-conformant backlogs is outside it).
  auto inject = [&](const AppRequirement& req, Time period, int count) {
    for (int i = 0; i < count; ++i) {
      const Time at = i < 2 ? Time::zero() : period * (i - 1);
      kernel.schedule_at(at, [&net, &req, i] {
        noc::Packet p;
        p.id = static_cast<std::uint64_t>(i);
        p.src = req.src;
        p.dst = req.dst;
        p.app = req.app;
        net.send(p);
      });
    }
  };
  inject(a, Time::ns(500), 200);
  inject(b, Time::ns(400), 200);
  kernel.run();
  const auto lat = net.latency_of_app(1);
  ASSERT_FALSE(lat.empty());
  EXPECT_LE(lat.max(), *bound_a);
}

// The arena path (e2e_bounds_into) must reproduce the per-flow oracle
// pipeline (tests/oracle/e2e_reference: vector paths, owning Curves, one
// fixpoint per flow) exactly — Time is integer picoseconds, so any
// arithmetic divergence shows up as a hard inequality here. Covers
// NoC-only and DRAM flows, and a saturated set where bounds go unbounded.
TEST(E2e, BatchBoundsMatchPerFlowScalarExactly) {
  E2eAnalysis e(model());
  noc::Mesh2D mesh(4, 4);
  const std::vector<std::vector<AppRequirement>> flow_sets = {
      // Disjoint and contending NoC-only flows.
      {app(1, 2, 0.002, mesh.node(0, 0), mesh.node(3, 0), Time::us(10)),
       app(2, 4, 0.004, mesh.node(0, 1), mesh.node(3, 0), Time::us(10)),
       app(3, 1, 0.001, mesh.node(1, 2), mesh.node(2, 3), Time::us(10))},
      // DRAM users mixed with NoC-only flows.
      {app(1, 2, 0.001, mesh.node(0, 0), mesh.node(1, 1), Time::ms(1), true),
       app(2, 4, 0.004, mesh.node(2, 0), mesh.node(1, 1), Time::ms(1), true),
       app(3, 2, 0.002, mesh.node(3, 3), mesh.node(0, 3), Time::ms(1))},
      // Saturating rate on a shared link: bounds must go unbounded the
      // same way in both paths.
      {app(1, 2, 0.09, mesh.node(0, 0), mesh.node(3, 0), Time::us(10)),
       app(2, 2, 0.09, mesh.node(0, 1), mesh.node(3, 0), Time::us(10))},
  };
  std::vector<std::optional<Time>> batch;
  for (std::size_t s = 0; s < flow_sets.size(); ++s) {
    const auto& flows = flow_sets[s];
    e.e2e_bounds_into(flows, &batch);
    ASSERT_EQ(batch.size(), flows.size());
    for (std::size_t i = 0; i < flows.size(); ++i) {
      const auto scalar = reference::e2e_bound(e, flows[i], flows);
      ASSERT_EQ(batch[i].has_value(), scalar.has_value())
          << "set " << s << " flow " << i;
      if (scalar) {
        EXPECT_EQ(*batch[i], *scalar) << "set " << s << " flow " << i;
      }
    }
  }
}

}  // namespace
}  // namespace pap::core
