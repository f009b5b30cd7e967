// Randomized cross-validation: for seeded random sets of conformant flows
// on a 4x4 mesh, every flow with a provable end-to-end bound must observe
// simulated latencies within that bound. This is the repository's broadest
// soundness property — it exercises the NC residual/convolution machinery,
// the XY routing, the wormhole channel model and the shapers together.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "core/e2e_analysis.hpp"
#include "sim/kernel.hpp"

namespace pap::core {
namespace {

struct FlowSpec {
  AppRequirement req;
  Time period;  ///< conformant injection period (1/rate)
};

std::vector<FlowSpec> random_flows(Rng& rng, const noc::Mesh2D& mesh,
                                   int count) {
  std::vector<FlowSpec> flows;
  for (int i = 0; i < count; ++i) {
    AppRequirement r;
    r.app = static_cast<noc::AppId>(i + 1);
    r.name = "f" + std::to_string(i + 1);
    r.src = mesh.node(static_cast<int>(rng.next_below(4)),
                      static_cast<int>(rng.next_below(4)));
    do {
      r.dst = mesh.node(static_cast<int>(rng.next_below(4)),
                        static_cast<int>(rng.next_below(4)));
    } while (r.dst == r.src);
    const std::int64_t period_ns = rng.uniform(200, 2'000);
    r.traffic = nc::TokenBucket{static_cast<double>(rng.uniform(1, 3)),
                                1.0 / static_cast<double>(period_ns)};
    r.uses_dram = false;
    r.deadline = Time::ms(1);
    flows.push_back(FlowSpec{r, Time::ns(period_ns)});
  }
  return flows;
}

class E2eFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(E2eFuzz, SimulationWithinProvenBounds) {
  Rng rng(GetParam());
  PlatformModel model;
  model.noc.cols = 4;
  model.noc.rows = 4;
  E2eAnalysis analysis(model);
  noc::Mesh2D mesh(4, 4);

  const auto flows = random_flows(rng, mesh, 6);
  std::vector<AppRequirement> all;
  for (const auto& f : flows) all.push_back(f.req);

  // Bounds (some may be unprovable if a link saturates; skip those flows
  // in the check but still simulate them — their traffic interferes).
  std::vector<std::optional<Time>> bounds;
  analysis.e2e_bounds_into(all, &bounds);

  sim::Kernel kernel;
  noc::Network net(kernel, model.noc);
  for (const auto& f : flows) {
    // Conformant injection: the burst up front, then the sustained period.
    const int burst = static_cast<int>(f.req.traffic.burst);
    for (int p = 0; p < 120; ++p) {
      const Time at =
          p < burst ? Time::zero() : f.period * (p - burst + 1);
      kernel.schedule_at(at, [&net, &f, p] {
        noc::Packet pkt;
        pkt.id = static_cast<std::uint64_t>(p);
        pkt.src = f.req.src;
        pkt.dst = f.req.dst;
        pkt.app = f.req.app;
        net.send(pkt);
      });
    }
  }
  kernel.run();

  int checked = 0;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    if (!bounds[i]) continue;
    const auto lat = net.latency_of_app(flows[i].req.app);
    ASSERT_FALSE(lat.empty());
    EXPECT_LE(lat.max(), *bounds[i])
        << "flow " << flows[i].req.name << " seed " << GetParam();
    ++checked;
  }
  // The generator's rates are modest; most flows must be provable.
  EXPECT_GE(checked, 4) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, E2eFuzz,
                         ::testing::Values(3u, 17u, 101u, 2024u, 77777u,
                                           31415u, 27182u, 16180u));

}  // namespace
}  // namespace pap::core
