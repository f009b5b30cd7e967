// NC kernel and arena tests (nc/arena.hpp, nc/batch.hpp).
//
//  * The raw (pre-closure) kSub merge — the residual-service building block
//    no Curve operation exposes — against the naive scalar original in the
//    oracle library, and against the pointwise difference itself. Every
//    other kernel is pinned against the oracle through the Curve API in
//    tests/nc_property_test.cpp, and bit for bit across commits in
//    tests/nc_golden_test.cpp.
//  * Arena-contract tests: epoch bump on reset, storage reuse without fresh
//    blocks, no aliasing between kernel outputs and inputs sharing one
//    arena, and per-thread isolation of thread_arena() under concurrent
//    workers (the sweep runner's --jobs shape).
//
// The file also hosts the zero-steady-state-allocation assertion for
// core::E2eAnalysis::e2e_bounds_into, via a TU-local replacement of the
// global operator new that counts heap allocations. The replacement is
// compiled out under ASan/TSan (the sanitizers own operator new there; this
// binary still runs under them for memory-safety, and the counting
// assertion is skipped).
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <optional>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/e2e_analysis.hpp"
#include "nc/arena.hpp"
#include "nc/batch.hpp"
#include "nc/curve.hpp"
#include "noc/topology.hpp"
#include "oracle/e2e_reference.hpp"
#include "oracle/nc_reference.hpp"
#include "random_curves.hpp"

// ---------------------------------------------------------------------------
// Heap allocation counter (zero-steady-state-allocation assertion)
// ---------------------------------------------------------------------------

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PAP_NO_ALLOC_COUNTING 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define PAP_NO_ALLOC_COUNTING 1
#endif
#endif

namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
}  // namespace

#ifndef PAP_NO_ALLOC_COUNTING

void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
void* operator new(std::size_t size, std::align_val_t al) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(al);
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded ? rounded : a)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t al) {
  return operator new(size, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

#endif  // PAP_NO_ALLOC_COUNTING

namespace {

using pap::Rng;
using pap::nc::Arena;
using pap::nc::CombineOp;
using pap::nc::Curve;
using pap::nc::CurveView;
using pap::nc::Segment;
using pap::nc_test::random_concave;
using pap::nc_test::random_convex;

// ---------------------------------------------------------------------------
// Comparison helpers
// ---------------------------------------------------------------------------

/// A kernel output against the Curve operation that runs the same kernel
/// elsewhere (its own scratch arena, another thread's arena): bit-identical.
::testing::AssertionResult view_matches_curve(CurveView got,
                                              const Curve& want,
                                              int case_idx) {
  const CurveView w = want.view();
  if (got.n != w.n) {
    return ::testing::AssertionFailure()
           << "case " << case_idx << ": segment count " << got.n << " vs "
           << w.n << "\n  want: " << want.to_string();
  }
  for (std::uint32_t i = 0; i < got.n; ++i) {
    if (got.x[i] != w.x[i] || got.y[i] != w.y[i] ||
        got.slope[i] != w.slope[i]) {
      return ::testing::AssertionFailure()
             << "case " << case_idx << ": segment " << i << " is ("
             << got.x[i] << ", " << got.y[i] << ", " << got.slope[i]
             << "), want (" << w.x[i] << ", " << w.y[i] << ", " << w.slope[i]
             << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

/// Value of a raw (possibly negative/decreasing) segment list at x.
double raw_eval(const std::vector<Segment>& segs, double x) {
  const auto it = std::upper_bound(
      segs.begin(), segs.end(), x,
      [](double v, const Segment& s) { return v < s.x; });
  const Segment& s = *(it - 1);
  return s.y + s.slope * (x - s.x);
}

/// Storage the test controls: a Curve's segments copied into `arena`.
CurveView copy_into(Arena& arena, const Curve& c) {
  const CurveView v = c.view();
  pap::nc::MutCurveView m = pap::nc::alloc_curve_view(arena, v.n);
  std::copy(v.x, v.x + v.n, m.x);
  std::copy(v.y, v.y + v.n, m.y);
  std::copy(v.slope, v.slope + v.n, m.slope);
  m.n = v.n;
  return m;
}

Curve random_curve(Rng& rng, bool sub_ns) {
  return rng.chance(0.5) ? random_concave(rng, sub_ns)
                         : random_convex(rng, sub_ns);
}

// ---------------------------------------------------------------------------
// combine_raw_view kSub (the residual-service building block) vs the naive
// scalar combine_raw — raw output, invariants intentionally not enforced
// ---------------------------------------------------------------------------

TEST(NcBatch, CombineRawSubMatchesScalar) {
  Rng rng(0xBA7C4004u);
  Arena arena;
  for (int i = 0; i < 500; ++i) {
    const bool sub_ns = i % 3 == 0;
    const Curve beta = random_convex(rng, sub_ns);
    const Curve cross = random_concave(rng, sub_ns);
    arena.reset();
    const CurveView raw = pap::nc::combine_raw_view(
        arena, beta.view(), cross.view(), CombineOp::kSub);
    const std::vector<Segment> want = pap::nc::reference::combine_raw(
        beta, cross, [](double u, double v) { return u - v; });
    // Both are linear between their merged breakpoints: probe those, the
    // interval midpoints and both tails, against the oracle (1e-6, the
    // tolerance its finite-difference probes allow) and against the
    // pointwise difference itself.
    std::vector<double> xs;
    for (std::uint32_t k = 0; k < raw.n; ++k) xs.push_back(raw.x[k]);
    for (const Segment& w : want) xs.push_back(w.x);
    std::sort(xs.begin(), xs.end());
    const std::size_t nbreak = xs.size();
    for (std::size_t k = 0; k + 1 < nbreak; ++k) {
      xs.push_back(0.5 * (xs[k] + xs[k + 1]));
    }
    xs.push_back(xs[nbreak - 1] + 1.0);
    xs.push_back(xs[nbreak - 1] + 50.0);
    for (double x : xs) {
      const double got = raw.eval(x);
      const double direct = beta.eval(x) - cross.eval(x);
      const double tol =
          1e-6 * std::max(1.0, std::max(std::fabs(got), std::fabs(direct)));
      ASSERT_NEAR(got, raw_eval(want, x), tol) << "case " << i << " x " << x;
      ASSERT_NEAR(got, direct, tol) << "case " << i << " x " << x;
    }
  }
}

// ---------------------------------------------------------------------------
// Arena contract
// ---------------------------------------------------------------------------

TEST(NcBatch, ArenaResetBumpsEpochAndReusesStorage) {
  Arena arena;
  const std::uint64_t e0 = arena.epoch();
  double* p1 = arena.alloc<double>(128);
  ASSERT_NE(p1, nullptr);
  EXPECT_EQ(arena.bytes_in_use(), 128 * sizeof(double));
  const std::size_t reserved = arena.bytes_reserved();

  arena.reset();
  EXPECT_GT(arena.epoch(), e0);  // stale views are detectable by epoch
  EXPECT_EQ(arena.bytes_in_use(), 0u);
  EXPECT_EQ(arena.bytes_reserved(), reserved);  // reset frees nothing

  // A bump allocator rewound to the start hands back the same storage: the
  // whole point of the epoch contract is that old views silently alias it.
  double* p2 = arena.alloc<double>(128);
  EXPECT_EQ(p2, p1);

  arena.release();
  EXPECT_EQ(arena.bytes_reserved(), 0u);
  EXPECT_EQ(arena.bytes_in_use(), 0u);
}

TEST(NcBatch, ArenaGrowsAcrossBlocksWithoutInvalidatingEarlierAllocations) {
  Arena arena(1 << 8);  // tiny first block forces growth
  std::vector<double*> ptrs;
  for (int i = 0; i < 64; ++i) {
    double* p = arena.alloc<double>(97);
    for (int k = 0; k < 97; ++k) p[k] = i * 1000.0 + k;
    ptrs.push_back(p);
  }
  for (int i = 0; i < 64; ++i) {
    for (int k = 0; k < 97; ++k) {
      ASSERT_EQ(ptrs[i][k], i * 1000.0 + k) << "allocation " << i;
    }
  }
}

TEST(NcBatch, BatchOutputsAliasNeitherInputsNorEachOther) {
  // Inputs and outputs share one arena — the e2e analysis does exactly
  // this — so overlapping storage would silently corrupt results. Copy all
  // inputs in, run every kernel call, then compare: any cross-output write
  // would surface as a late mismatch.
  Rng rng(0xBA7C4005u);
  Arena arena;
  std::vector<CurveView> a;
  std::vector<CurveView> b;
  std::vector<CurveView> out;
  std::vector<Curve> sa;
  std::vector<Curve> sb;
  const int kN = 64;
  for (int i = 0; i < kN; ++i) {
    sa.push_back(random_curve(rng, i % 3 == 0));
    sb.push_back(random_curve(rng, i % 3 == 0));
    a.push_back(copy_into(arena, sa.back()));
    b.push_back(copy_into(arena, sb.back()));
  }
  for (int i = 0; i < kN; ++i) {
    out.push_back(pap::nc::combine_view(arena, a[i], b[i], CombineOp::kMin));
  }

  // Used storage ranges [x, x + n) of all views must be pairwise disjoint.
  std::vector<std::pair<const double*, const double*>> spans;
  auto add_span = [&spans](CurveView v) {
    if (v.n == 0) return;
    spans.emplace_back(v.x, v.x + v.n);
    spans.emplace_back(v.y, v.y + v.n);
    spans.emplace_back(v.slope, v.slope + v.n);
  };
  for (int i = 0; i < kN; ++i) {
    add_span(a[i]);
    add_span(b[i]);
    add_span(out[i]);
  }
  std::sort(spans.begin(), spans.end());
  for (std::size_t i = 1; i < spans.size(); ++i) {
    ASSERT_LE(spans[i - 1].second, spans[i].first)
        << "overlapping arena spans";
  }

  // Late value check: every output still matches the Curve operation
  // after all other pairs were processed.
  for (int i = 0; i < kN; ++i) {
    ASSERT_TRUE(view_matches_curve(out[i], pap::nc::min(sa[i], sb[i]), i));
  }
}

TEST(NcBatch, ThreadLocalArenasAreIsolated) {
  // The sweep runner hands each worker thread its own thread_arena(); the
  // curves a worker builds must be unaffected by other workers hammering
  // theirs concurrently.
  const int kThreads = 4;
  const int kCasesPerThread = 200;
  std::vector<const Arena*> arena_addr(kThreads, nullptr);
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([t, &arena_addr, &mismatches] {
      Arena& arena = pap::nc::thread_arena();
      arena_addr[t] = &arena;
      Rng rng(0xBA7C5000u + static_cast<std::uint64_t>(t));
      for (int i = 0; i < kCasesPerThread; ++i) {
        arena.reset();
        const Curve a = random_curve(rng, i % 3 == 0);
        const Curve b = random_curve(rng, i % 3 == 0);
        const CurveView av = copy_into(arena, a);
        const CurveView bv = copy_into(arena, b);
        const CurveView got =
            pap::nc::combine_view(arena, av, bv, CombineOp::kAdd);
        const Curve want = pap::nc::add(a, b);
        if (!view_matches_curve(got, want, i)) ++mismatches[t];
      }
      pap::nc::thread_arena().release();
    });
  }
  for (auto& th : pool) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
    for (int u = t + 1; u < kThreads; ++u) {
      EXPECT_NE(arena_addr[t], arena_addr[u])
          << "threads " << t << " and " << u << " shared an arena";
    }
  }
}

// ---------------------------------------------------------------------------
// Zero steady-state allocation: a warmed e2e_bounds_into decision runs
// entirely on the arena + reused output storage
// ---------------------------------------------------------------------------

std::vector<pap::core::AppRequirement> e2e_flows() {
  pap::noc::Mesh2D mesh(4, 4);
  std::vector<pap::core::AppRequirement> flows;
  for (int i = 0; i < 12; ++i) {
    pap::core::AppRequirement a;
    a.app = static_cast<pap::noc::AppId>(i + 1);
    a.name = "flow" + std::to_string(i);
    a.traffic = pap::nc::TokenBucket{
        1.0 + static_cast<double>(i % 3),
        0.0005 + 0.0001 * static_cast<double>(i % 4)};
    a.src = mesh.node(i % 4, (i / 4) % 4);
    a.dst = mesh.node(3 - i % 4, (i * 2) % 4);
    a.deadline = pap::Time::us(50);
    a.uses_dram = (i % 3 == 0);
    flows.push_back(std::move(a));
  }
  return flows;
}

TEST(NcBatch, E2eBoundsSteadyStateMakesNoHeapAllocations) {
#ifdef PAP_NO_ALLOC_COUNTING
  GTEST_SKIP() << "allocation counting disabled under sanitizers";
#else
  pap::core::PlatformModel m;
  m.noc.cols = 4;
  m.noc.rows = 4;
  pap::core::E2eAnalysis e(std::move(m));
  const auto flows = e2e_flows();
  std::vector<std::optional<pap::Time>> bounds;

  // Warm-up: grows the thread arena to the decision's peak footprint and
  // brings `bounds` to capacity.
  e.e2e_bounds_into(flows, &bounds);
  e.e2e_bounds_into(flows, &bounds);
  for (const auto& b : bounds) ASSERT_TRUE(b.has_value());

  const std::uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < 5; ++i) e.e2e_bounds_into(flows, &bounds);
  const std::uint64_t after = g_heap_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before)
      << "a warmed e2e_bounds_into decision heap-allocated "
      << (after - before) / 5.0 << " times per call";

  // The bounds must still be the real analysis results: the per-flow
  // oracle pipeline's, to the picosecond.
  ASSERT_EQ(bounds.size(), flows.size());
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    const auto want = pap::core::reference::e2e_bound(e, flows[i], flows);
    ASSERT_EQ(bounds[i].has_value(), want.has_value());
    if (bounds[i]) EXPECT_EQ(*bounds[i], *want);
  }
#endif
}

}  // namespace
