// Allocation regression for the simulator's per-access path.
//
// This binary replaces the global operator new with a counting one, runs a
// whole hog_mix family member through `scenario::run_parsed` and divides
// the heap allocations the run made by the memory accesses it simulated.
// Kernel events and completion callbacks live inline (sim::InlineFn) and
// counters are integer slots, so what remains is per-run set-up, histogram
// growth and the result itself: well under one allocation per access. A
// std::function capture that outgrows its small buffer, or a string-keyed
// counter on the access path, costs one or more per access and fails here.
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "scenario/generate.hpp"
#include "scenario/run.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

TEST(SimAlloc, HogMixMemberMakesUnderHalfAnAllocationPerAccess) {
  auto s = pap::scenario::generate_scenario("hog_mix", 1, 0);
  ASSERT_TRUE(s.has_value()) << s.error_message();
  const std::uint64_t before = g_allocations.load();
  const auto r = pap::scenario::run_parsed(s.value());
  const std::uint64_t allocations = g_allocations.load() - before;
  ASSERT_TRUE(r.has_value()) << r.error_message();
  const std::int64_t accesses = r.value().at("rt_accesses").as_int() +
                                r.value().at("hog_accesses").as_int() +
                                r.value().at("trace_accesses").as_int();
  ASSERT_GT(accesses, 1000);
  const double per_access =
      static_cast<double>(allocations) / static_cast<double>(accesses);
  EXPECT_LT(per_access, 0.5) << allocations << " allocations for " << accesses
                             << " simulated accesses";
  std::printf("hog_mix #0 (seed 1): %llu allocations / %lld accesses = %.3f "
              "per access\n",
              static_cast<unsigned long long>(allocations),
              static_cast<long long>(accesses), per_access);
}

}  // namespace
