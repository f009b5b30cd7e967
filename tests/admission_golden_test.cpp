// Cross-commit byte-identity of the stateless admission callers.
//
// Three callers build a fresh core::AdmissionController per request and
// publish what it decides: papd's `admission_check` handler, the `.pap`
// admission scenario runner, and the platform configurator. Their outputs
// are folded into an FNV-1a digest over a seeded corpus and compared with a
// committed constant, one digest per caller:
//  * admission_check: the rendered reply payload of >= 2000 seeded requests
//    through serve::dispatch — 4x4 and 8x8 meshes, 2..16 apps, DRAM flows,
//    rates past link saturation, decisions that only the alternate route
//    admits, and rate-table budgets on both sides of feasibility;
//  * scenario: the serialized result of seeded `scenario admission` runs
//    (decisions, proven bounds and the simulated p99 of the admitted mix),
//    or the run's error;
//  * configurator: the summary and every grant of a validated
//    configuration, or its error string.
//
// The constants are the digests of the implementation they were captured
// from. A change to the admission engine behind the controller that moves
// one decision, one rejection string or one picosecond of a bound changes
// a digest. A deliberate change must re-capture the constants and say why;
// a refactor must leave them alone.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "core/admission.hpp"
#include "core/configurator.hpp"
#include "noc/topology.hpp"
#include "scenario/run.hpp"
#include "serve/handlers.hpp"
#include "serve/protocol.hpp"

namespace {

using pap::Rng;
using pap::Time;
namespace core = pap::core;
namespace exp = pap::exp;

// Captured digests (see the file comment).
constexpr std::uint64_t kAdmissionCheckDigest = 0x9aaa8ae94c396320;
constexpr std::uint64_t kScenarioAdmissionDigest = 0x1ef3e7369db5eb62;
constexpr std::uint64_t kConfiguratorDigest = 0xaff91f00dcab9c74;

class Digest {
 public:
  void str(const std::string& s) {
    u64(s.size());
    for (const char c : s) byte(static_cast<unsigned char>(c));
  }
  void u64(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) byte(static_cast<unsigned char>(v >> (8 * b)));
  }
  std::uint64_t value() const { return h_; }

 private:
  void byte(unsigned char b) {
    h_ ^= b;
    h_ *= 0x100000001b3ULL;
  }
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// A rate in packets/ns: mostly comfortable, sometimes past what one link
/// carries alone (a 64 B packet of 4 flits every ~6 ns saturates it).
double draw_rate(Rng& rng) {
  if (rng.chance(0.12)) return 0.1 + 0.1 * rng.next_double();
  return 0.0005 + 0.03 * rng.next_double();
}

struct CheckRequest {
  int cols = 4;
  int rows = 4;
  double budget_gbps = 64.0;
  double burst_packets = 4.0;
  std::vector<core::AppRequirement> apps;
  std::vector<bool> critical;
  exp::Params params;
};

CheckRequest draw_check_request(Rng& rng) {
  CheckRequest q;
  q.cols = q.rows = rng.chance(0.5) ? 4 : 8;
  q.budget_gbps = rng.chance(0.3) ? 2.0 + 30.0 * rng.next_double() : 64.0;
  q.burst_packets = static_cast<double>(rng.uniform(1, 8));
  const int n = static_cast<int>(rng.uniform(2, 16));
  // Hotspot requests aim every flow at one column so that the requested
  // dimension order saturates and the alternate route has to carry them.
  const bool hotspot = rng.chance(0.3);
  const int hot_x = static_cast<int>(rng.uniform(0, q.cols - 1));
  q.params.set("mesh_cols", q.cols).set("mesh_rows", q.rows);
  q.params.set("noc_budget_gbps", exp::Value{q.budget_gbps, 6});
  q.params.set("burst_packets", exp::Value{q.burst_packets, 6});
  pap::noc::Mesh2D mesh(q.cols, q.rows);
  for (int i = 0; i < n; ++i) {
    const int sx = static_cast<int>(rng.uniform(0, q.cols - 1));
    const int sy = static_cast<int>(rng.uniform(0, q.rows - 1));
    const int dx =
        hotspot ? hot_x : static_cast<int>(rng.uniform(0, q.cols - 1));
    const int dy = static_cast<int>(rng.uniform(0, q.rows - 1));
    core::AppRequirement a;
    a.app = static_cast<pap::noc::AppId>(i + 1);
    a.name = "app" + std::to_string(a.app);
    a.traffic.burst = static_cast<double>(rng.uniform(1, 6));
    a.traffic.rate = draw_rate(rng);
    a.src = mesh.node(sx, sy);
    a.dst = mesh.node(dx, dy);
    a.deadline = Time::from_ns(300.0 + 4700.0 * rng.next_double());
    a.uses_dram = rng.chance(0.25);
    const bool critical = rng.chance(0.7);
    if (critical) a.asil = pap::sched::Asil::kC;
    const std::string k = "apps." + std::to_string(i) + ".";
    q.params.set(k + "burst", exp::Value{a.traffic.burst, 6});
    q.params.set(k + "rate", exp::Value{a.traffic.rate, 17});
    q.params.set(k + "src_x", sx).set(k + "src_y", sy);
    q.params.set(k + "dst_x", dx).set(k + "dst_y", dy);
    q.params.set(k + "deadline_ns", exp::Value{a.deadline.nanos(), 17});
    q.params.set(k + "uses_dram", a.uses_dram);
    q.params.set(k + "critical", critical);
    q.apps.push_back(a);
    q.critical.push_back(critical);
  }
  return q;
}

TEST(AdmissionGolden, AdmissionCheckRepliesAreByteIdentical) {
  Rng rng(0xad3155);
  Digest d;
  const pap::serve::HandlerLimits limits;
  int granted = 0, rejected = 0, flipped = 0, dram = 0, infeasible = 0;
  int meshes8 = 0;
  for (int i = 0; i < 2400; ++i) {
    const CheckRequest q = draw_check_request(rng);
    const auto out = pap::serve::dispatch("admission_check", q.params, limits);
    ASSERT_TRUE(out.ok) << "request " << i << ": " << out.error.message;
    const std::string payload = pap::serve::render_result(out.result);
    d.str(payload);

    // Coverage of the corpus, counted on the decisions themselves.
    core::PlatformModel model;
    model.noc.cols = q.cols;
    model.noc.rows = q.rows;
    core::AdmissionController ac(model);
    for (const auto& a : q.apps) {
      const auto g = ac.request(a);
      granted += g.has_value();
      rejected += !g.has_value();
      flipped += g.has_value() && g.value().route_order != a.route_order;
      dram += a.uses_dram;
    }
    infeasible += payload.find("\"rate_table_feasible\":false") !=
                  std::string::npos;
    meshes8 += q.cols == 8;
  }
  EXPECT_GT(granted, 2000);
  EXPECT_GT(rejected, 2000);
  EXPECT_GT(flipped, 100);
  EXPECT_GT(dram, 1000);
  EXPECT_GT(infeasible, 50);
  EXPECT_GT(meshes8, 800);
  EXPECT_EQ(d.value(), kAdmissionCheckDigest)
      << std::hex << "digest 0x" << d.value();
}

TEST(AdmissionGolden, ScenarioAdmissionRunsAreByteIdentical) {
  Rng rng(0x5ce7a);
  Digest d;
  int admitted = 0, offered = 0, errors = 0;
  for (int i = 0; i < 48; ++i) {
    pap::scenario::Scenario s;
    s.kind = pap::scenario::Kind::kAdmission;
    s.name = "golden_" + std::to_string(i);
    auto& a = s.admission;
    a.mesh_cols = a.mesh_rows = rng.chance(0.75) ? 4 : 6;
    a.rm_node =
        static_cast<int>(rng.uniform(0, a.mesh_cols * a.mesh_rows - 1));
    a.link_rate_gbps = 16.0 + 48.0 * rng.next_double();
    a.burst_factor = static_cast<double>(rng.uniform(1, 6));
    a.packets = static_cast<int>(rng.uniform(10, 40));
    a.enforce = rng.chance(0.8);
    const int n = static_cast<int>(rng.uniform(2, 8));
    for (int k = 0; k < n; ++k) {
      pap::scenario::AdmissionApp app;
      app.id = k + 1;
      app.burst = static_cast<double>(rng.uniform(1, 6));
      app.rate = rng.chance(0.15) ? 0.1 + 0.1 * rng.next_double()
                                  : 0.001 + 0.01 * rng.next_double();
      app.src_x = static_cast<int>(rng.uniform(0, a.mesh_cols - 1));
      app.src_y = static_cast<int>(rng.uniform(0, a.mesh_rows - 1));
      app.dst_x = static_cast<int>(rng.uniform(0, a.mesh_cols - 1));
      app.dst_y = static_cast<int>(rng.uniform(0, a.mesh_rows - 1));
      app.deadline = Time::from_ns(300.0 + 3700.0 * rng.next_double());
      app.uses_dram = rng.chance(0.25);
      a.apps.push_back(app);
    }
    // An admitted mix the RM's rate table cannot carry is an error result.
    const auto r = pap::scenario::run_parsed(s);
    if (!r) {
      ++errors;
      d.str(r.error_message());
      continue;
    }
    d.str(r.value().serialize());
    admitted += static_cast<int>(r.value().at("admitted").as_int());
    offered += n;
  }
  EXPECT_GT(admitted, 40);
  EXPECT_LT(admitted, offered);
  EXPECT_LT(errors, 12);
  EXPECT_EQ(d.value(), kScenarioAdmissionDigest)
      << std::hex << "digest 0x" << d.value();
}

TEST(AdmissionGolden, ConfiguratorGrantsAndErrorsAreByteIdentical) {
  Rng rng(0xc0f16);
  Digest d;
  int ok = 0, failed = 0;
  for (int i = 0; i < 300; ++i) {
    core::PlatformModel model;
    model.noc.cols = model.noc.rows = rng.chance(0.5) ? 4 : 8;
    pap::noc::Mesh2D mesh(model.noc.cols, model.noc.rows);
    const int n = static_cast<int>(rng.uniform(1, 8));
    std::vector<core::AppRequirement> apps;
    for (int k = 0; k < n; ++k) {
      core::AppRequirement a;
      a.app = static_cast<pap::noc::AppId>(k + 1);
      a.name = "app" + std::to_string(a.app);
      a.asil = static_cast<pap::sched::Asil>(rng.uniform(0, 4));
      a.traffic.burst = static_cast<double>(rng.uniform(1, 6));
      a.traffic.rate = draw_rate(rng) * 0.5;
      a.src = mesh.node(static_cast<int>(rng.uniform(0, model.noc.cols - 1)),
                        static_cast<int>(rng.uniform(0, model.noc.rows - 1)));
      a.dst = mesh.node(static_cast<int>(rng.uniform(0, model.noc.cols - 1)),
                        static_cast<int>(rng.uniform(0, model.noc.rows - 1)));
      a.deadline = Time::from_ns(500.0 + 9500.0 * rng.next_double());
      a.uses_dram = rng.chance(0.3);
      apps.push_back(a);
    }
    const double budget = rng.chance(0.2) ? 1.0 : 64.0;
    core::Configurator c(model, pap::Rate::gbps(budget));
    const auto cfg = c.configure(apps);
    if (cfg) {
      ++ok;
      d.str(cfg.value().summary());
      for (const auto& g : cfg.value().grants) {
        d.u64(g.app);
        d.u64(static_cast<std::uint64_t>(g.e2e_bound.picos()));
        d.u64(g.route_order == pap::noc::Mesh2D::RouteOrder::kXY ? 0 : 1);
      }
    } else {
      ++failed;
      d.str(cfg.error_message());
    }
  }
  EXPECT_GT(ok, 50);
  EXPECT_GT(failed, 50);
  EXPECT_EQ(d.value(), kConfiguratorDigest)
      << std::hex << "digest 0x" << d.value();
}

}  // namespace
