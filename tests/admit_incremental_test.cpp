// Incremental-vs-batch equivalence: the dirty-component engine must be
// decision-identical and bound-ps-exact against the batch oracle under
// seeded admit/release churn — same grants, same rejection strings, same
// cached bounds (docs/admission.md). The lockstep harness drives both
// engines through >10k decisions across mesh sizes, saturation regimes,
// the alternate-route retry path and DRAM-coupled mixes.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "admit/incremental.hpp"
#include "core/admission.hpp"
#include "oracle/admission_reference.hpp"

namespace pap {
namespace {

core::PlatformModel model(int cols, int rows) {
  core::PlatformModel m;
  m.noc.cols = cols;
  m.noc.rows = rows;
  return m;
}

core::AppRequirement app(noc::AppId id, double burst, double rate,
                         noc::NodeId src, noc::NodeId dst, Time deadline,
                         bool dram = false) {
  core::AppRequirement a;
  a.app = id;
  a.name = "app" + std::to_string(id);
  a.traffic = nc::TokenBucket{burst, rate};
  a.src = src;
  a.dst = dst;
  a.deadline = deadline;
  a.uses_dram = dram;
  return a;
}

struct ChurnConfig {
  int cols = 4;
  int rows = 4;
  int napps = 24;
  int decisions = 1000;
  double burst_lo = 1.0, burst_hi = 4.0;
  double rate_lo = 0.001, rate_hi = 0.03;
  double dram_fraction = 0.0;
  double deadline_lo_us = 0.5, deadline_hi_us = 100.0;
  std::uint32_t seed = 1;
  int full_check_every = 97;  ///< compare every live bound this often
};

/// Drives the batch oracle and the incremental engine in
/// lockstep and asserts identical behaviour at every step.
void run_lockstep(const ChurnConfig& cfg, std::uint64_t* admitted_out = nullptr,
                  std::uint64_t* flipped_out = nullptr) {
  core::reference::BatchAdmission batch(model(cfg.cols, cfg.rows));
  admit::IncrementalAdmission inc(model(cfg.cols, cfg.rows));
  std::mt19937 rng(cfg.seed);
  std::uniform_real_distribution<double> burst(cfg.burst_lo, cfg.burst_hi);
  std::uniform_real_distribution<double> rate(cfg.rate_lo, cfg.rate_hi);
  std::uniform_real_distribution<double> dl(cfg.deadline_lo_us,
                                            cfg.deadline_hi_us);
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  const int nodes = cfg.cols * cfg.rows;
  std::vector<bool> live(static_cast<std::size_t>(cfg.napps) + 1, false);
  std::uint64_t admitted = 0;
  std::uint64_t flipped = 0;

  for (int d = 0; d < cfg.decisions; ++d) {
    const noc::AppId id = 1 + rng() % cfg.napps;
    if (getenv("PAP_TRACE_CHURN")) {
      fprintf(stderr, "decision %d app %u %s\n", d, unsigned(id),
              live[id] ? "release" : "request");
    }
    if (live[id]) {
      const Status sb = batch.release(id);
      const Status si = inc.release(id);
      ASSERT_EQ(sb.is_ok(), si.is_ok()) << "decision " << d;
      live[id] = false;
    } else {
      core::AppRequirement req =
          app(id, burst(rng), rate(rng), rng() % nodes, rng() % nodes,
              Time::from_ns(dl(rng) * 1e3), uni(rng) < cfg.dram_fraction);
      if (uni(rng) < 0.5) req.route_order = noc::Mesh2D::RouteOrder::kYX;
      const auto rb = batch.request(req);
      const auto ri = inc.request(req);
      ASSERT_EQ(rb.has_value(), ri.has_value())
          << "decision " << d << ": batch says "
          << (rb ? "admit" : rb.error_message()) << ", incremental says "
          << (ri ? "admit" : ri.error_message());
      if (rb.has_value()) {
        // Grants must match field for field, bounds to the picosecond.
        EXPECT_EQ(rb.value().e2e_bound.picos(), ri.value().e2e_bound.picos())
            << "decision " << d;
        EXPECT_EQ(rb.value().route_order, ri.value().route_order)
            << "decision " << d;
        EXPECT_EQ(rb.value().noc_shaper.burst, ri.value().noc_shaper.burst);
        EXPECT_EQ(rb.value().noc_shaper.rate, ri.value().noc_shaper.rate);
        live[id] = true;
        ++admitted;
        if (rb.value().route_order != req.route_order) ++flipped;
      } else {
        // Rejection strings must be byte-identical (same failing flow,
        // same bound rendering, same alternate-route suffix).
        EXPECT_EQ(rb.error_message(), ri.error_message()) << "decision " << d;
      }
    }
    // The touched app's cached bound must match the oracle's.
    {
      const auto bb = batch.current_bound(id);
      const auto bi = inc.current_bound(id);
      ASSERT_EQ(bb.has_value(), bi.has_value()) << "decision " << d;
      if (bb) {
        EXPECT_EQ(bb->picos(), bi->picos()) << "decision " << d;
      }
    }
    if ((d + 1) % cfg.full_check_every == 0) {
      // Every live flow's cached state, and the canonical flow vector.
      const auto& oracle = batch.admitted();
      const auto mine = inc.flows();
      ASSERT_EQ(oracle.size(), mine.size()) << "decision " << d;
      for (std::size_t i = 0; i < oracle.size(); ++i) {
        EXPECT_EQ(oracle[i].app, mine[i].app) << "decision " << d;
        EXPECT_EQ(oracle[i].route_order, mine[i].route_order);
        const auto bb = batch.current_bound(oracle[i].app);
        const auto bi = inc.current_bound(oracle[i].app);
        ASSERT_EQ(bb.has_value(), bi.has_value())
            << "decision " << d << " app " << oracle[i].app;
        if (bb) {
          EXPECT_EQ(bb->picos(), bi->picos())
              << "decision " << d << " app " << oracle[i].app;
        }
      }
    }
  }
  EXPECT_EQ(batch.admissions(), inc.stats().admissions);
  EXPECT_EQ(batch.rejections(), inc.stats().rejections);
  if (admitted_out) *admitted_out = admitted;
  if (flipped_out) *flipped_out = flipped;
}

TEST(AdmitIncremental, ChurnTightMeshSaturates) {
  // High rates on a small mesh: plenty of rejections, protected-app
  // errors and alternate-route retries.
  ChurnConfig cfg;
  cfg.cols = cfg.rows = 4;
  cfg.napps = 24;
  cfg.decisions = 3000;
  cfg.rate_lo = 0.01;
  cfg.rate_hi = 0.06;
  cfg.seed = 11;
  std::uint64_t admitted = 0;
  std::uint64_t flipped = 0;
  run_lockstep(cfg, &admitted, &flipped);
  EXPECT_GT(admitted, 100u);   // the mix admits...
  EXPECT_GT(flipped, 0u);      // ...and the YX retry path fires
}

TEST(AdmitIncremental, ChurnModerateMesh) {
  ChurnConfig cfg;
  cfg.cols = cfg.rows = 8;
  cfg.napps = 80;
  cfg.decisions = 4000;
  cfg.seed = 23;
  run_lockstep(cfg);
}

TEST(AdmitIncremental, ChurnDramCoupledMix) {
  // DRAM users couple globally: every dram admit/release shifts every
  // other dram flow's residual service. The cached-chain refresh must
  // still be ps-exact.
  ChurnConfig cfg;
  cfg.cols = cfg.rows = 6;
  cfg.napps = 40;
  cfg.decisions = 3000;
  cfg.dram_fraction = 0.4;
  cfg.rate_lo = 0.0005;
  cfg.rate_hi = 0.01;
  cfg.seed = 37;
  run_lockstep(cfg);
}

TEST(AdmitIncremental, ChurnSaturationEdge) {
  // A 2x2 mesh with bursty heavy flows: the saturation/unbounded paths
  // and their exact error strings.
  ChurnConfig cfg;
  cfg.cols = cfg.rows = 2;
  cfg.napps = 8;
  cfg.decisions = 800;
  cfg.burst_hi = 12.0;
  cfg.rate_lo = 0.02;
  cfg.rate_hi = 0.12;
  cfg.seed = 5;
  run_lockstep(cfg);
}

TEST(AdmitIncremental, RouteFallbackMatchesOracle) {
  // The pinned fallback scenario from core_admission_test, on the engine.
  admit::IncrementalAdmission inc(model(4, 4));
  noc::Mesh2D mesh(4, 4);
  ASSERT_TRUE(
      inc.request(app(9, 2, 0.055, mesh.node(0, 0), mesh.node(3, 0), Time::ms(10)))
          .has_value());
  ASSERT_TRUE(
      inc.request(app(8, 2, 0.055, mesh.node(1, 0), mesh.node(3, 0), Time::ms(10)))
          .has_value());
  const auto grant =
      inc.request(app(1, 2, 0.02, mesh.node(0, 0), mesh.node(3, 2), Time::ms(10)));
  ASSERT_TRUE(grant.has_value()) << grant.error_message();
  EXPECT_EQ(grant.value().route_order, noc::Mesh2D::RouteOrder::kYX);
}

TEST(AdmitIncremental, SlotsAreReusedUnderChurn) {
  admit::IncrementalAdmission inc(model(4, 4));
  for (int round = 0; round < 50; ++round) {
    ASSERT_TRUE(inc.request(app(1, 2, 0.001, 0, 3, Time::us(10))).has_value());
    ASSERT_TRUE(inc.request(app(2, 2, 0.001, 4, 7, Time::us(10))).has_value());
    ASSERT_TRUE(inc.release(1).is_ok());
    ASSERT_TRUE(inc.release(2).is_ok());
  }
  const auto s = inc.stats();
  EXPECT_EQ(s.admissions, 100u);
  EXPECT_EQ(s.releases, 100u);
  EXPECT_EQ(s.live_flows, 0u);
  EXPECT_EQ(s.live_links, 0u);
}

TEST(AdmitIncremental, DirtySetStaysLocal) {
  // Two flows in disjoint corners of a 8x8 mesh: admitting the second
  // must not re-prove the first (its component is untouched).
  admit::IncrementalAdmission inc(model(8, 8));
  noc::Mesh2D mesh(8, 8);
  ASSERT_TRUE(
      inc.request(app(1, 2, 0.001, mesh.node(0, 0), mesh.node(1, 1), Time::us(10)))
          .has_value());
  ASSERT_TRUE(
      inc.request(app(2, 2, 0.001, mesh.node(6, 6), mesh.node(7, 7), Time::us(10)))
          .has_value());
  const auto s = inc.stats();
  EXPECT_EQ(s.last_dirty_flows, 0u);  // nothing shared: empty dirty set
  EXPECT_EQ(s.live_flows, 2u);
}

TEST(AdmitIncremental, DuplicateAndUnknownAppsMatchOracle) {
  core::reference::BatchAdmission batch(model(4, 4));
  admit::IncrementalAdmission inc(model(4, 4));
  const auto r = app(1, 2, 0.001, 0, 3, Time::us(10));
  ASSERT_TRUE(batch.request(r).has_value());
  ASSERT_TRUE(inc.request(r).has_value());
  const auto rb = batch.request(r);
  const auto ri = inc.request(r);
  ASSERT_FALSE(rb.has_value());
  ASSERT_FALSE(ri.has_value());
  EXPECT_EQ(rb.error_message(), ri.error_message());
  EXPECT_EQ(batch.release(99).message(), inc.release(99).message());
  EXPECT_FALSE(inc.current_bound(99).has_value());
  EXPECT_TRUE(inc.contains(1));
  EXPECT_FALSE(inc.contains(99));
}

TEST(AdmitIncremental, ControllerFacadeSelectsEngine) {
  core::AdmissionController ac(model(4, 4), core::AdmissionEngine::kIncremental);
  ASSERT_NE(ac.incremental(), nullptr);
  const auto grant = ac.request(app(1, 2, 0.001, 0, 3, Time::us(10)));
  ASSERT_TRUE(grant.has_value());
  EXPECT_EQ(ac.admitted().size(), 1u);
  EXPECT_EQ(ac.admissions(), 1u);
  ASSERT_TRUE(ac.current_bound(1).has_value());
  ASSERT_TRUE(ac.release(1).is_ok());
  EXPECT_EQ(ac.admitted().size(), 0u);
}

}  // namespace
}  // namespace pap
