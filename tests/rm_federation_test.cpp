// Federated (hierarchical) RM equivalence: with disjoint cluster
// rectangles the per-RM link sets are disjoint, so no fixpoint component
// ever spans two engines — federated decisions and bounds must be
// *identical* to one global IncrementalAdmission and to the batch oracle
// over the same history (docs/admission.md). The spine topology here is a
// 9x5 mesh: two 4x5 clusters separated by the shared column x=4 that
// carries every escalated (inter-cluster / DRAM) flow.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "admit/incremental.hpp"
#include "oracle/admission_reference.hpp"
#include "rm/federation.hpp"

namespace pap {
namespace {

constexpr int kCols = 9;
constexpr int kRows = 5;

core::PlatformModel model() {
  core::PlatformModel m;
  m.noc.cols = kCols;
  m.noc.rows = kRows;
  return m;
}

std::vector<rm::ClusterRect> spine_clusters() {
  return {{0, 0, 3, kRows - 1}, {5, 0, 8, kRows - 1}};
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

TEST(RmFederation, ClusterAssignmentAndOwnership) {
  rm::FederatedAdmission fed(model(), spine_clusters());
  noc::Mesh2D mesh(kCols, kRows);
  EXPECT_EQ(fed.cluster_count(), 2u);
  EXPECT_EQ(fed.cluster_of(mesh.node(0, 0)), 0);
  EXPECT_EQ(fed.cluster_of(mesh.node(3, 4)), 0);
  EXPECT_EQ(fed.cluster_of(mesh.node(4, 2)), -1);  // spine is shared
  EXPECT_EQ(fed.cluster_of(mesh.node(5, 0)), 1);
  // Local: same cluster, no DRAM.
  EXPECT_EQ(fed.owner_of(app(1, 2, 0.01, mesh.node(0, 0), mesh.node(3, 4),
                             Time::ms(1))),
            0);
  // DRAM always escalates, as do cross-cluster endpoints.
  EXPECT_EQ(fed.owner_of(app(2, 2, 0.01, mesh.node(0, 0), mesh.node(3, 4),
                             Time::ms(1), true)),
            -1);
  EXPECT_EQ(fed.owner_of(app(3, 2, 0.01, mesh.node(0, 0), mesh.node(5, 0),
                             Time::ms(1))),
            -1);
}

TEST(RmFederation, ContractViolationIsTypedRejection) {
  rm::FederatedAdmission fed(model(), spine_clusters());
  noc::Mesh2D mesh(kCols, kRows);
  // Cluster-to-cluster endpoints cross owned links on both orders.
  const auto bad =
      app(7, 2, 0.01, mesh.node(1, 2), mesh.node(7, 2), Time::ms(1));
  const std::string v = fed.contract_violation(bad);
  ASSERT_FALSE(v.empty());
  EXPECT_NE(v.find("violates the federation contract"), std::string::npos);
  const auto r = fed.request(bad);
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error_message(), v);
  EXPECT_EQ(fed.stats().contract_rejections, 1u);
  EXPECT_EQ(fed.size(), 0u);
  EXPECT_FALSE(fed.contains(7));
  // Spine-to-spine escalated flows are contract-clean.
  EXPECT_TRUE(
      fed.contract_violation(
             app(8, 2, 0.01, mesh.node(4, 0), mesh.node(4, 4), Time::ms(1)))
          .empty());
}

TEST(RmFederation, ReleaseRoutesToOwningEngine) {
  rm::FederatedAdmission fed(model(), spine_clusters());
  noc::Mesh2D mesh(kCols, kRows);
  ASSERT_TRUE(fed.request(app(1, 2, 0.005, mesh.node(0, 0), mesh.node(2, 2),
                              Time::ms(1)))
                  .has_value());
  ASSERT_TRUE(fed.request(app(2, 2, 0.005, mesh.node(4, 0), mesh.node(4, 3),
                              Time::ms(1), true))
                  .has_value());
  EXPECT_EQ(fed.cluster_rm(0).size(), 1u);
  EXPECT_EQ(fed.global_rm().size(), 1u);
  EXPECT_TRUE(fed.current_bound(1).has_value());
  EXPECT_TRUE(fed.current_bound(2).has_value());
  EXPECT_FALSE(fed.current_bound(3).has_value());
  EXPECT_EQ(fed.release(3).message(), "app 3 not admitted");
  ASSERT_TRUE(fed.release(2).is_ok());
  EXPECT_EQ(fed.global_rm().size(), 0u);
  ASSERT_TRUE(fed.release(1).is_ok());
  EXPECT_EQ(fed.stats().releases, 2u);
  EXPECT_EQ(fed.size(), 0u);
}

// Seeded churn over contract-conforming traffic: federated vs one global
// incremental engine vs the batch oracle, compared decision by
// decision and bound by bound (ps-exact).
TEST(RmFederation, ChurnMatchesGlobalEngineAndBatchOracle) {
  rm::FederatedAdmission fed(model(), spine_clusters());
  admit::IncrementalAdmission global(model());
  core::reference::BatchAdmission batch(model());
  noc::Mesh2D mesh(kCols, kRows);
  std::mt19937 rng(71);
  std::uniform_real_distribution<double> burst(1.0, 4.0);
  std::uniform_real_distribution<double> rate(0.0005, 0.012);
  std::uniform_real_distribution<double> dl(2.0, 200.0);
  std::uniform_real_distribution<double> uni(0.0, 1.0);

  constexpr int kApps = 60;
  std::vector<bool> live(kApps + 1, false);
  std::uint64_t admitted = 0;

  auto make_req = [&](noc::AppId id) {
    const double kind = uni(rng);
    noc::NodeId src, dst;
    bool dram = false;
    if (kind < 0.4) {  // local in cluster 0
      src = mesh.node(rng() % 4, rng() % kRows);
      dst = mesh.node(rng() % 4, rng() % kRows);
    } else if (kind < 0.8) {  // local in cluster 1
      src = mesh.node(5 + rng() % 4, rng() % kRows);
      dst = mesh.node(5 + rng() % 4, rng() % kRows);
    } else {  // escalated: spine-to-spine, half of them DRAM users
      src = mesh.node(4, rng() % kRows);
      dst = mesh.node(4, rng() % kRows);
      dram = uni(rng) < 0.5;
    }
    auto r = app(id, burst(rng), rate(rng), src, dst,
                 Time::from_ns(dl(rng) * 1e3), dram);
    if (uni(rng) < 0.5) r.route_order = noc::Mesh2D::RouteOrder::kYX;
    return r;
  };

  for (int d = 0; d < 2500; ++d) {
    const noc::AppId id = 1 + rng() % kApps;
    if (live[id]) {
      ASSERT_TRUE(fed.release(id).is_ok()) << "decision " << d;
      ASSERT_TRUE(global.release(id).is_ok());
      ASSERT_TRUE(batch.release(id).is_ok());
      live[id] = false;
    } else {
      const auto req = make_req(id);
      ASSERT_TRUE(fed.contract_violation(req).empty() ||
                  fed.owner_of(req) >= 0)
          << "harness bug: generated non-conforming flow";
      const auto rf = fed.request(req);
      const auto rg = global.request(req);
      const auto rb = batch.request(req);
      ASSERT_EQ(rf.has_value(), rg.has_value())
          << "decision " << d << ": federated says "
          << (rf ? "admit" : rf.error_message()) << ", global says "
          << (rg ? "admit" : rg.error_message());
      ASSERT_EQ(rg.has_value(), rb.has_value()) << "decision " << d;
      if (rf.has_value()) {
        EXPECT_EQ(rf.value().e2e_bound.picos(), rg.value().e2e_bound.picos())
            << "decision " << d;
        EXPECT_EQ(rg.value().e2e_bound.picos(), rb.value().e2e_bound.picos())
            << "decision " << d;
        EXPECT_EQ(rf.value().route_order, rg.value().route_order);
        live[id] = true;
        ++admitted;
      } else {
        EXPECT_EQ(rf.error_message(), rg.error_message()) << "decision " << d;
        EXPECT_EQ(rg.error_message(), rb.error_message()) << "decision " << d;
      }
    }
    if ((d + 1) % 83 == 0) {
      for (noc::AppId a = 1; a <= kApps; ++a) {
        const auto bf = fed.current_bound(a);
        const auto bg = global.current_bound(a);
        ASSERT_EQ(bf.has_value(), bg.has_value())
            << "decision " << d << " app " << a;
        if (bf) {
          EXPECT_EQ(bf->picos(), bg->picos()) << "decision " << d;
        }
      }
    }
  }
  EXPECT_GT(admitted, 200u);
  const auto& s = fed.stats();
  EXPECT_GT(s.local_admissions, 0u);
  EXPECT_GT(s.escalations, 0u);
  EXPECT_GT(s.global_admissions, 0u);
  EXPECT_EQ(s.contract_rejections, 0u);
  // Both clusters and the global RM actually carried load.
  EXPECT_GT(fed.cluster_rm(0).stats().admissions, 0u);
  EXPECT_GT(fed.cluster_rm(1).stats().admissions, 0u);
  EXPECT_GT(fed.global_rm().stats().admissions, 0u);
}

TEST(RmFederation, DuplicateIdRoutedToOwningEngine) {
  rm::FederatedAdmission fed(model(), spine_clusters());
  admit::IncrementalAdmission global(model());
  noc::Mesh2D mesh(kCols, kRows);
  const auto r = app(5, 2, 0.005, mesh.node(1, 1), mesh.node(2, 2), Time::ms(1));
  ASSERT_TRUE(fed.request(r).has_value());
  ASSERT_TRUE(global.request(r).has_value());
  const auto df = fed.request(r);
  const auto dg = global.request(r);
  ASSERT_FALSE(df.has_value());
  ASSERT_FALSE(dg.has_value());
  EXPECT_EQ(df.error_message(), dg.error_message());
}

}  // namespace
}  // namespace pap
