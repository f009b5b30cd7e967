// Shared microbenchmark definitions (google-benchmark): the paper claims the
// WCD bounding algorithm is "computationally inexpensive (milliseconds at
// most), hence could also be done online if required (e.g., for admission
// control)". These benches substantiate that claim for our implementation,
// plus the NC primitives, papd's request parse, the DES kernel that
// everything runs on and whole simulator runs of seeded scenario families.
//
// Included by two binaries:
//  * micro_nc_ops — plain BENCHMARK_MAIN() CLI for interactive use;
//  * perf_report  — programmatic runner that writes BENCH_nc.json,
//    BENCH_sim.json and BENCH_protocol.json for the perf-regression harness
//    (tools/bench_compare.py).
//
// Every optimized kernel is benchmarked next to its retained naive
// implementation from the test-only oracle library (tests/oracle:
// nc::reference::*, dram::reference::service_curve,
// core::reference::e2e_bound, serve::reference::parse_request): the
// optimized/reference ratio is machine-independent, which is what CI gates
// on — absolute nanoseconds from shared runners are only recorded for the
// trajectory.
#pragma once

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstddef>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "core/e2e_analysis.hpp"
#include "dram/controller.hpp"
#include "dram/timing.hpp"
#include "dram/wcd.hpp"
#include "nc/bounds.hpp"
#include "nc/ops.hpp"
#include "noc/topology.hpp"
#include "scenario/generate.hpp"
#include "scenario/run.hpp"
#include "serve/protocol.hpp"
#include "oracle/e2e_reference.hpp"
#include "oracle/nc_reference.hpp"
#include "oracle/serve_reference.hpp"
#include "oracle/wcd_reference.hpp"
#include "sim/kernel.hpp"

namespace pap_bench {

using namespace pap;

// ---------------------------------------------------------------------------
// Curve fixtures: many-segment concave arrival / convex service pairs, where
// the complexity gap between the merge-walk kernels and the enumeration
// reference actually shows. 48 pieces each keeps the reference runnable.
// ---------------------------------------------------------------------------

inline nc::Curve many_segment_concave(int pieces) {
  std::vector<nc::Segment> segs;
  segs.reserve(static_cast<std::size_t>(pieces));
  double x = 0.0;
  double y = 4.0;  // burst
  for (int i = 0; i < pieces; ++i) {
    const double slope = 1.0 + (pieces - i) * 0.5;  // strictly decreasing
    segs.push_back(nc::Segment{x, y, slope});
    const double len = 1.0 + 0.25 * (i % 4);
    x += len;
    y += slope * len;
  }
  return nc::Curve{std::move(segs)};
}

inline nc::Curve many_segment_convex(int pieces) {
  std::vector<nc::Segment> segs;
  segs.reserve(static_cast<std::size_t>(pieces));
  double x = 0.0;
  double y = 0.0;
  for (int i = 0; i < pieces; ++i) {
    const double slope = 0.25 * i;  // non-decreasing from 0 (latency piece)
    segs.push_back(nc::Segment{x, y, slope});
    const double len = 1.0 + 0.5 * (i % 3);
    x += len;
    y += slope * len;
  }
  return nc::Curve{std::move(segs)};
}

constexpr int kCurvePieces = 48;

inline dram::ControllerParams bench_controller() {
  return dram::ControllerConfig{}
      .n_cap(16)
      .watermarks(55, 28)
      .n_wd(16)
      .build()
      .value();
}

// ---------------------------------------------------------------------------
// WCD analysis
// ---------------------------------------------------------------------------

inline void BM_WcdBoundsSingleRow(benchmark::State& state) {
  const auto t = dram::ddr3_1600();
  const auto c = bench_controller();
  for (auto _ : state) {
    auto b = dram::table2_row(t, c, 6.0, 13);
    benchmark::DoNotOptimize(b);
  }
}
BENCHMARK(BM_WcdBoundsSingleRow);

inline void BM_WcdServiceCurve(benchmark::State& state) {
  const auto t = dram::ddr3_1600();
  const auto c = bench_controller();
  dram::WcdAnalysis a(t, c, nc::TokenBucket::from_rate(Rate::gbps(5), 64, 8));
  const auto depth = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto curve = a.service_curve(depth);
    benchmark::DoNotOptimize(curve);
  }
}
BENCHMARK(BM_WcdServiceCurve)->Arg(8)->Arg(32)->Arg(128);

inline void BM_WcdServiceCurveReference(benchmark::State& state) {
  const auto t = dram::ddr3_1600();
  const auto c = bench_controller();
  dram::WcdAnalysis a(t, c, nc::TokenBucket::from_rate(Rate::gbps(5), 64, 8));
  const auto depth = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto curve = dram::reference::service_curve(a, depth);
    benchmark::DoNotOptimize(curve);
  }
}
BENCHMARK(BM_WcdServiceCurveReference)->Arg(8)->Arg(32)->Arg(128);

// ---------------------------------------------------------------------------
// NC curve algebra: optimized vs reference
// ---------------------------------------------------------------------------

inline void BM_NcConvolveConvex(benchmark::State& state) {
  const auto b1 = nc::Curve::rate_latency(2.0, 3.0);
  const auto b2 = nc::Curve::rate_latency(1.5, 7.0);
  for (auto _ : state) {
    auto c = nc::convolve(b1, b2);
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_NcConvolveConvex);

inline void BM_NcCombine(benchmark::State& state) {
  const auto a = many_segment_concave(kCurvePieces);
  const auto b = nc::Curve::affine(30.0, 2.0);
  for (auto _ : state) {
    auto c = nc::min(a, b);
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_NcCombine);

inline void BM_NcCombineReference(benchmark::State& state) {
  const auto a = many_segment_concave(kCurvePieces);
  const auto b = nc::Curve::affine(30.0, 2.0);
  for (auto _ : state) {
    auto c = nc::reference::combine_pointwise(
        a, b, [](double u, double v) { return u < v ? u : v; });
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_NcCombineReference);

inline void BM_NcDeconvolve(benchmark::State& state) {
  const auto f = many_segment_concave(kCurvePieces);
  const auto g = many_segment_convex(kCurvePieces);
  for (auto _ : state) {
    auto c = nc::deconvolve(f, g);
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_NcDeconvolve);

inline void BM_NcDeconvolveReference(benchmark::State& state) {
  const auto f = many_segment_concave(kCurvePieces);
  const auto g = many_segment_convex(kCurvePieces);
  for (auto _ : state) {
    auto c = nc::reference::deconvolve(f, g);
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_NcDeconvolveReference);

inline void BM_NcHDeviation(benchmark::State& state) {
  const auto alpha = many_segment_concave(kCurvePieces);
  const auto beta = many_segment_convex(kCurvePieces);
  for (auto _ : state) {
    auto d = nc::h_deviation(alpha, beta);
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_NcHDeviation);

inline void BM_NcHDeviationReference(benchmark::State& state) {
  const auto alpha = many_segment_concave(kCurvePieces);
  const auto beta = many_segment_convex(kCurvePieces);
  for (auto _ : state) {
    auto d = nc::reference::h_deviation(alpha, beta);
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_NcHDeviationReference);

inline void BM_NcVDeviation(benchmark::State& state) {
  const auto alpha = many_segment_concave(kCurvePieces);
  const auto beta = many_segment_convex(kCurvePieces);
  for (auto _ : state) {
    auto d = nc::v_deviation(alpha, beta);
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_NcVDeviation);

inline void BM_NcVDeviationReference(benchmark::State& state) {
  const auto alpha = many_segment_concave(kCurvePieces);
  const auto beta = many_segment_convex(kCurvePieces);
  for (auto _ : state) {
    auto d = nc::reference::v_deviation(alpha, beta);
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_NcVDeviationReference);

inline void BM_NcDelayBound(benchmark::State& state) {
  const auto alpha = nc::Curve::affine(8.0, 0.5);
  const auto beta = nc::Curve::rate_latency(2.0, 10.0);
  for (auto _ : state) {
    auto d = nc::delay_bound(alpha, beta);
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_NcDelayBound);

inline void BM_NcResidualBlind(benchmark::State& state) {
  const auto beta = nc::Curve::rate_latency(4.0, 2.0);
  const auto cross = nc::Curve::affine(6.0, 1.0);
  for (auto _ : state) {
    auto r = nc::residual_blind(beta, cross);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_NcResidualBlind);

// ---------------------------------------------------------------------------
// End-to-end admission analysis: the one-pass arena path (e2e_bounds_into,
// shared fixpoint, zero steady-state allocation) against the flow-by-flow
// oracle pipeline an unbatched admission controller would run.
// ---------------------------------------------------------------------------

inline std::vector<core::AppRequirement> bench_flows() {
  noc::Mesh2D mesh(4, 4);
  std::vector<core::AppRequirement> flows;
  flows.reserve(12);
  for (int i = 0; i < 12; ++i) {
    core::AppRequirement a;
    a.app = static_cast<noc::AppId>(i + 1);
    a.name = "bench" + std::to_string(i);
    a.traffic = nc::TokenBucket{1.0 + static_cast<double>(i % 3),
                                0.0005 + 0.0001 * static_cast<double>(i % 4)};
    a.src = mesh.node(i % 4, (i / 4) % 4);
    a.dst = mesh.node(3 - i % 4, (i * 2) % 4);
    a.deadline = Time::us(50);
    a.uses_dram = (i % 3 == 0);
    flows.push_back(std::move(a));
  }
  return flows;
}

inline void BM_E2eBoundsBatch(benchmark::State& state) {
  core::PlatformModel m;
  m.noc.cols = 4;
  m.noc.rows = 4;
  core::E2eAnalysis e(std::move(m));
  const auto flows = bench_flows();
  std::vector<std::optional<Time>> bounds;
  for (auto _ : state) {
    e.e2e_bounds_into(flows, &bounds);
    benchmark::DoNotOptimize(bounds.data());
  }
}
BENCHMARK(BM_E2eBoundsBatch);

inline void BM_E2eBoundsPerFlow(benchmark::State& state) {
  core::PlatformModel m;
  m.noc.cols = 4;
  m.noc.rows = 4;
  core::E2eAnalysis e(std::move(m));
  const auto flows = bench_flows();
  for (auto _ : state) {
    for (const auto& f : flows) {
      auto b = core::reference::e2e_bound(e, f, flows);
      benchmark::DoNotOptimize(b);
    }
  }
}
BENCHMARK(BM_E2eBoundsPerFlow);

// ---------------------------------------------------------------------------
// papd request parse + cache identity: parse_request + key(), the work an
// LRU-hit request does before the cache probe, against the tree-based
// oracle (json_parse, sorted walk, per-level prefix strings). The corpus has
// the shape of a warmed hot-request population: 2-app admission_check on a
// 4x4 mesh, wcd_bound and nc_delay in a 2:1:1 mix, numbers as "%.6f".
// ---------------------------------------------------------------------------

inline std::string protocol_num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.6f", v);
  return buf;
}

inline std::string protocol_app(Rng& rng) {
  auto real = [&rng](double lo, double hi) {
    return protocol_num(lo + (hi - lo) * rng.next_double());
  };
  auto coord = [&rng] { return std::to_string(rng.uniform(0, 3)); };
  return "{\"burst\":" + std::to_string(rng.uniform(1, 8)) +
         ",\"rate\":" + real(0.05, 1.5) + ",\"src_x\":" + coord() +
         ",\"src_y\":" + coord() + ",\"dst_x\":" + coord() +
         ",\"dst_y\":" + coord() + ",\"deadline_ns\":" +
         real(2000.0, 8000.0) + ",\"uses_dram\":" +
         (rng.chance(0.25) ? "true" : "false") +
         ",\"critical\":" + (rng.chance(0.5) ? "true" : "false") + "}";
}

inline std::vector<std::string> protocol_corpus() {
  static const char* kPolicies[] = {"frfcfs", "fcfs", "close_page",
                                    "starvation_guard"};
  static const char* kDevices[] = {"ddr3_1600", "ddr4_2400", "lpddr4_3200"};
  Rng rng(0x407);
  auto real = [&rng](double lo, double hi) {
    return protocol_num(lo + (hi - lo) * rng.next_double());
  };
  std::vector<std::string> lines;
  for (int i = 0; i < 384; ++i) {
    std::string body;
    switch (i % 4) {
      case 0:
      case 1: {
        const std::string budget = real(8.0, 64.0);
        const std::string a0 = protocol_app(rng);
        const std::string a1 = protocol_app(rng);
        body = "\"op\":\"admission_check\",\"params\":{\"mesh_cols\":4,"
               "\"mesh_rows\":4,\"noc_budget_gbps\":" + budget +
               ",\"apps\":[" + a0 + "," + a1 + "]}";
        break;
      }
      case 2: {
        const std::string write = real(0.5, 6.0);
        const std::string n = std::to_string(rng.uniform(1, 32));
        const std::string policy = kPolicies[rng.uniform(0, 3)];
        body = "\"op\":\"wcd_bound\",\"params\":{\"write_gbps\":" + write +
               ",\"n\":" + n + ",\"dram\":{\"policy\":\"" + policy +
               "\",\"device\":\"" + kDevices[rng.uniform(0, 2)] + "\"}}";
        break;
      }
      default: {
        const std::string burst = real(1.0, 64.0);
        const std::string rate = real(0.5, 12.0);
        const std::string srate = real(12.8, 25.6);
        body = "\"op\":\"nc_delay\",\"params\":{\"arrival\":{\"burst\":" +
               burst + ",\"rate\":" + rate + "},\"service\":{\"rate\":" +
               srate + ",\"latency_ns\":" + real(50.0, 500.0) + "}}";
      }
    }
    lines.push_back("{\"id\":" + std::to_string(100000 + i) + "," + body +
                    "}");
  }
  return lines;
}

template <typename Parse>
void run_parse_key(benchmark::State& state, Parse parse) {
  const auto lines = protocol_corpus();
  std::size_t i = 0;
  for (auto _ : state) {
    auto req = parse(lines[i]);
    std::string key = req.value().key();
    benchmark::DoNotOptimize(key.data());
    if (++i == lines.size()) i = 0;
  }
  state.SetItemsProcessed(state.iterations());
}

inline void BM_ServeParseKey(benchmark::State& state) {
  run_parse_key(state,
                [](const std::string& l) { return serve::parse_request(l); });
}
BENCHMARK(BM_ServeParseKey);

inline void BM_ServeParseKeyReference(benchmark::State& state) {
  run_parse_key(state, [](const std::string& l) {
    return serve::reference::parse_request(l);
  });
}
BENCHMARK(BM_ServeParseKeyReference);

// ---------------------------------------------------------------------------
// DES kernel
// ---------------------------------------------------------------------------

inline void BM_KernelEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Kernel k;
    const int n = 10'000;
    int fired = 0;
    for (int i = 0; i < n; ++i) {
      k.schedule_at(Time::ns(i), [&fired] { ++fired; });
    }
    k.run();
    benchmark::DoNotOptimize(fired);
  }
}
BENCHMARK(BM_KernelEventThroughput);

inline void BM_KernelCancelHeavy(benchmark::State& state) {
  // Timeout pattern: every event gets a guard scheduled far in the future
  // that is cancelled before it can fire. Exercises O(log n) in-place
  // removal; the old tombstone scheme paid for every cancelled guard again
  // at pop time.
  for (auto _ : state) {
    sim::Kernel k;
    const int n = 10'000;
    int fired = 0;
    std::vector<sim::EventId> guards;
    guards.reserve(n);
    for (int i = 0; i < n; ++i) {
      k.schedule_at(Time::ns(i), [&fired] { ++fired; });
      guards.push_back(
          k.schedule_at(Time::ns(1'000'000 + i), [&fired] { ++fired; }));
    }
    for (auto id : guards) k.cancel(id);
    k.run();
    benchmark::DoNotOptimize(fired);
  }
}
BENCHMARK(BM_KernelCancelHeavy);

inline void BM_KernelSameTimestampBurst(benchmark::State& state) {
  // Many events per timestamp: run() drains each timestamp as one batch.
  for (auto _ : state) {
    sim::Kernel k;
    const int ticks = 100;
    const int per_tick = 100;
    int fired = 0;
    for (int t = 0; t < ticks; ++t) {
      for (int i = 0; i < per_tick; ++i) {
        k.schedule_at(Time::ns(t), [&fired] { ++fired; }, i % 3);
      }
    }
    k.run();
    benchmark::DoNotOptimize(fired);
  }
}
BENCHMARK(BM_KernelSameTimestampBurst);

inline void BM_KernelNearFuture(benchmark::State& state) {
  // The simulator's queue shape on the kernel alone: 12 chains each
  // reschedule themselves 0-40 ns ahead (an access completing and the next
  // one issuing), so about a dozen events are pending and a new one lands
  // near the front of the queue; 3 timers re-arm every 2-8 us, far behind
  // the chains, as refresh and regulation periods do. One iteration runs
  // 100,000 chain events.
  struct Ctx {
    sim::Kernel k;
    Rng rng{0x5EED};
    std::int64_t left = 100'000;
  };
  struct Hop {
    Ctx* c;
    void operator()() const {
      if (--c->left > 0) {
        c->k.schedule_in(Time::ns(c->rng.uniform(0, 40)), Hop{c});
      }
    }
  };
  struct Timer {
    Ctx* c;
    Time period;
    void operator()() const {
      if (c->left > 0) c->k.schedule_in(period, Timer{c, period});
    }
  };
  std::int64_t events = 0;
  for (auto _ : state) {
    Ctx c;
    for (int i = 0; i < 12; ++i) {
      c.k.schedule_at(Time::ns(c.rng.uniform(0, 40)), Hop{&c});
    }
    for (int i = 1; i <= 3; ++i) {
      c.k.schedule_at(Time::us(2 * i), Timer{&c, Time::us(2 * i)});
    }
    c.k.run();
    events += static_cast<std::int64_t>(c.k.events_executed());
    benchmark::DoNotOptimize(events);
  }
  state.SetItemsProcessed(events);
}
BENCHMARK(BM_KernelNearFuture);

inline void BM_DramWriteBatch(benchmark::State& state) {
  // The DRAM controller alone (FR-FCFS, DDR3-1600, W_high = 55, N_wd = 16)
  // under a write-heavy load: one read is outstanding at a time, and each
  // read completion tops the posted write queue back up past W_high before
  // issuing the next read. The controller therefore alternates one read
  // with a full write batch while the write queue stays within N_wd of
  // W_high: every write pick scans a deep queue for the oldest row hit and
  // erases from its middle. Writes spread over 8 banks x 16 rows. One
  // iteration is 1 ms of simulated time; items are writes served.
  const dram::ControllerParams params = bench_controller();
  const auto w_high = static_cast<std::size_t>(params.w_high);
  std::int64_t writes = 0;
  for (auto _ : state) {
    sim::Kernel k;
    dram::Controller c(k, dram::ddr3_1600(), dram::ControllerConfig{params});
    Rng rng(0xD7A3);
    std::uint64_t next_id = 0;
    const auto submit = [&](dram::Op op) {
      dram::Request r;
      r.id = next_id++;
      r.op = op;
      r.posted = op == dram::Op::kWrite;
      r.bank = static_cast<std::uint32_t>(rng.uniform(0, 7));
      r.row = static_cast<std::uint32_t>(rng.uniform(0, 15));
      c.submit(r);
    };
    const auto refill = [&] {
      while (c.write_queue_depth() <= w_high) submit(dram::Op::kWrite);
      submit(dram::Op::kRead);
    };
    c.set_completion_handler([&](const dram::Request&, Time) { refill(); });
    k.schedule_at(Time::zero(), refill);
    k.run(Time::ms(1));
    writes += c.counters().get("write_hits") + c.counters().get("write_misses");
    benchmark::DoNotOptimize(writes);
  }
  state.SetItemsProcessed(writes);
}
BENCHMARK(BM_DramWriteBatch);

inline void BM_SimFamilyMix(benchmark::State& state) {
  // Whole simulator runs through scenario::run_parsed over the member mix
  // of the perfbench sim_families workload: one round of flash_crowd,
  // diurnal, mode_storm and three hog_mix members, seed 1. The scenarios
  // are generated once, outside the timed loop. ns_per_access is wall time
  // per simulated memory access, the figure the simulator's hot path sets.
  const char* const kCycle[] = {"flash_crowd", "diurnal", "mode_storm",
                                "hog_mix",     "hog_mix", "hog_mix"};
  std::vector<scenario::Scenario> members;
  for (int i = 0; i < 6; ++i) {
    const int index = i < 3 ? 0 : i - 3;
    auto s = scenario::generate_scenario(kCycle[i], 1, index);
    if (!s) {
      state.SkipWithError(s.error_message().c_str());
      return;
    }
    members.push_back(std::move(s).value());
  }
  double accesses = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (auto _ : state) {
    for (const auto& m : members) {
      // Generated members are valid by construction: value() cannot throw.
      const exp::Result r = scenario::run_parsed(m).value();
      for (const char* k : {"rt_accesses", "hog_accesses", "trace_accesses"}) {
        accesses += static_cast<double>(r.at(k).as_int());
      }
    }
    benchmark::DoNotOptimize(accesses);
  }
  const std::chrono::duration<double, std::nano> wall =
      std::chrono::steady_clock::now() - t0;
  state.counters["ns_per_access"] = wall.count() / accesses;
}
BENCHMARK(BM_SimFamilyMix);

}  // namespace pap_bench
