// Cross-module integration: the full Fig. 6 story — admission control
// decides, the RM overlay enforces, the NoC + DRAM simulators execute, and
// the measured latencies respect the proven bounds.
#include <gtest/gtest.h>

#include "core/admission.hpp"
#include "core/configurator.hpp"
#include "dram/traffic.hpp"
#include "dram/wcd.hpp"
#include "nc/bounds.hpp"
#include "rm/manager.hpp"
#include "sim/kernel.hpp"

namespace pap {
namespace {

core::PlatformModel model() {
  core::PlatformModel m;
  m.noc.cols = 4;
  m.noc.rows = 4;
  return m;
}

core::AppRequirement app(noc::AppId id, double burst, double rate,
                         noc::NodeId src, noc::NodeId dst, Time deadline) {
  core::AppRequirement a;
  a.app = id;
  a.name = "app" + std::to_string(id);
  a.traffic = nc::TokenBucket{burst, rate};
  a.src = src;
  a.dst = dst;
  a.deadline = deadline;
  a.uses_dram = false;
  return a;
}

TEST(Integration, AdmittedFlowsMeetBoundsUnderRmEnforcement) {
  // Admission control proves bounds; the RM's clients enforce the granted
  // buckets; the simulated deliveries must respect the proven bounds.
  const auto m = model();
  core::AdmissionController ac(m);
  noc::Mesh2D mesh(4, 4);

  const auto a1 = app(1, 2, 1.0 / 400.0, mesh.node(0, 0), mesh.node(3, 0),
                      Time::us(10));
  const auto a2 = app(2, 2, 1.0 / 500.0, mesh.node(0, 1), mesh.node(3, 0),
                      Time::us(10));
  const auto g1 = ac.request(a1);
  const auto g2 = ac.request(a2);
  ASSERT_TRUE(g1.has_value());
  ASSERT_TRUE(g2.has_value());

  sim::Kernel kernel;
  noc::Network net(kernel, m.noc);
  // Non-symmetric table granting exactly the admitted rates.
  std::vector<rm::AppQos> qos{
      {1, true, Rate::bits_per_sec(a1.traffic.rate * 1e9 * 8 * 64)},
      {2, true, Rate::bits_per_sec(a2.traffic.rate * 1e9 * 8 * 64)}};
  auto table = rm::RateTable::non_symmetric(Rate::gbps(8), 64, 2.0, qos).value();
  rm::ResourceManager manager(kernel, net, mesh.node(3, 3), table);
  auto* c1 = manager.add_client(a1.src, 1);
  auto* c2 = manager.add_client(a2.src, 2);

  // Applications submit steady conformant streams through their clients.
  for (int i = 0; i < 100; ++i) {
    kernel.schedule_at(Time::ns(400) * i, [c1, &a1, i] {
      noc::Packet p;
      p.id = static_cast<std::uint64_t>(i);
      p.src = a1.src;
      p.dst = a1.dst;
      p.app = 1;
      c1->send(p);
    });
    kernel.schedule_at(Time::ns(500) * i, [c2, &a2, i] {
      noc::Packet p;
      p.id = 1000 + static_cast<std::uint64_t>(i);
      p.src = a2.src;
      p.dst = a2.dst;
      p.app = 2;
      c2->send(p);
    });
  }
  kernel.run();
  EXPECT_EQ(net.delivered(), 200u);

  // Deliveries after the admission handshake respect the proven bounds
  // (the handshake itself blocks the first packets — that is the protocol
  // overhead the paper says must be traded off at design time).
  const auto lat1 = net.latency_of_app(1);
  EXPECT_LE(lat1.percentile(50), g1.value().e2e_bound);
  const auto lat2 = net.latency_of_app(2);
  EXPECT_LE(lat2.percentile(50), g2.value().e2e_bound);
}

TEST(Integration, DramServiceCurveFeedsAdmission) {
  // The Sec. IV-A service curve is consumed by the Sec. V admission test:
  // a reader admitted against the DRAM keeps its bound in simulation.
  const auto timings = dram::ddr3_1600();
  const dram::ControllerConfig ctrl = dram::ControllerConfig{}
                                          .n_cap(16)
                                          .watermarks(55, 28)
                                          .n_wd(16)
                                          .banks(1);
  const auto writes = nc::TokenBucket::from_rate(Rate::gbps(4), 64, 8.0);
  dram::WcdAnalysis analysis(timings, ctrl, writes);
  const auto beta = analysis.service_curve(32);

  // Reader: 1 request per 2 us, burst 2.
  const nc::TokenBucket reader{2.0, 1.0 / 2000.0};
  const auto bound = nc::delay_bound(reader.to_curve(), beta);
  ASSERT_TRUE(bound.has_value());

  sim::Kernel kernel;
  dram::Controller controller(kernel, timings, ctrl);
  dram::ShapedWriteSource hog(kernel, controller, writes, 0, 99);
  hog.start();
  LatencyHistogram read_lat;
  controller.set_completion_handler([&](const dram::Request& r, Time t) {
    if (r.op == dram::Op::kRead) read_lat.add(t - r.arrival);
  });
  std::uint32_t row = 500;
  sim::PeriodicEvent reader_src(kernel, Time::zero(), Time::us(2),
                                [&controller, &row] {
                                  dram::Request r;
                                  r.op = dram::Op::kRead;
                                  r.bank = 0;
                                  r.row = row++;
                                  controller.submit(r);
                                });
  kernel.run(Time::ms(2));
  reader_src.stop();
  hog.stop();
  ASSERT_FALSE(read_lat.empty());
  EXPECT_LE(read_lat.max(), *bound);
}

TEST(Integration, ConfiguratorOutputDrivesDsuAndScenario) {
  // The configurator's DSU register actually isolates in the cache model.
  core::Configurator conf(model(), Rate::gbps(8));
  std::vector<core::AppRequirement> apps;
  auto rt = app(1, 2, 0.001, 0, 3, Time::us(10));
  rt.asil = sched::Asil::kD;
  apps.push_back(rt);
  auto be = app(2, 2, 0.001, 4, 7, Time::us(10));
  apps.push_back(be);
  const auto cfg = conf.configure(apps);
  ASSERT_TRUE(cfg.has_value());

  cache::DsuCluster dsu(64, 16);
  ASSERT_TRUE(dsu.write_partition_register(cfg.value().clusterpartcr).is_ok());
  // Scheme 1 (the critical app) owns group 0; flooding from scheme 0
  // cannot evict its lines there.
  for (cache::Addr a = 0; a < 64ull * 4 * 64; a += 64) {
    dsu.access_scheme(1, a);  // fills its private group's ways
  }
  for (cache::Addr a = 1 << 22; a < (1 << 22) + (1 << 19); a += 64) {
    dsu.access_scheme(0, a);
  }
  std::uint64_t resident = dsu.l3().occupancy(1);
  EXPECT_GE(resident, 64ull * 4 / 2);  // private group survives
}

TEST(Integration, EndToEndDeterminism) {
  // The entire stack is deterministic: two identical runs, identical
  // observable state.
  auto run = [] {
    sim::Kernel kernel;
    noc::NocConfig nc_cfg;
    noc::Network net(kernel, nc_cfg);
    auto table = rm::RateTable::symmetric(Rate::gbps(4), 64, 2.0);
    rm::ResourceManager manager(kernel, net, 0, table);
    auto* c = manager.add_client(5, 1);
    for (int i = 0; i < 30; ++i) {
      kernel.schedule_at(Time::ns(100) * i, [c, i] {
        noc::Packet p;
        p.id = static_cast<std::uint64_t>(i);
        p.src = 5;
        p.dst = 10;
        p.app = 1;
        c->send(p);
      });
    }
    kernel.run();
    return std::tuple{net.delivered(), net.latency().max().picos(),
                      manager.stats().total_messages()};
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace pap
