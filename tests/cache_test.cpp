// Set-associative cache model: geometry, LRU, allocation filters,
// per-requester accounting.
#include <gtest/gtest.h>

#include "cache/cache.hpp"

namespace pap::cache {
namespace {

CacheConfig small() { return CacheConfig{4, 2, 64}; }

TEST(CacheConfig, Validation) {
  EXPECT_TRUE((CacheConfig{1024, 16, 64}).valid());
  EXPECT_FALSE((CacheConfig{1000, 16, 64}).valid());  // sets not a power of 2
  EXPECT_FALSE((CacheConfig{1024, 0, 64}).valid());
  EXPECT_FALSE((CacheConfig{1024, 4, 60}).valid());  // line not a power of 2
  EXPECT_EQ((CacheConfig{1024, 16, 64}).capacity_bytes(), 1024u * 16 * 64);
}

TEST(Cache, MissThenHit) {
  Cache c(small());
  EXPECT_FALSE(c.access(0, 0x1000).hit);
  EXPECT_TRUE(c.access(0, 0x1000).hit);
  EXPECT_TRUE(c.access(0, 0x1020).hit);  // same 64-byte line
  EXPECT_EQ(c.hits(0), 2);
  EXPECT_EQ(c.misses(0), 1);
}

TEST(Cache, SetIndexing) {
  Cache c(small());
  // 4 sets * 64B lines: addresses 0, 256, 512 map to set 0.
  EXPECT_EQ(c.set_index(0), 0u);
  EXPECT_EQ(c.set_index(256), 0u);
  EXPECT_EQ(c.set_index(64), 1u);
  EXPECT_EQ(c.set_index(192), 3u);
}

TEST(Cache, LruEvictionWithinSet) {
  Cache c(small());  // 2 ways
  c.access(0, 0);      // set 0, line A
  c.access(0, 256);    // set 0, line B
  c.access(0, 0);      // touch A -> B becomes LRU
  const auto r = c.access(0, 512);  // set 0, line C evicts B
  ASSERT_TRUE(r.evicted.has_value());
  EXPECT_EQ(*r.evicted, 256u);
  EXPECT_TRUE(c.access(0, 0).hit);     // A still resident
  EXPECT_FALSE(c.access(0, 256).hit);  // B gone
}

TEST(Cache, AllocationFilterRestrictsVictimWays) {
  Cache c(small());
  // Requester 1 may only use way 0; requester 2 only way 1.
  c.set_allocation_filter([](RequesterId who, std::uint32_t) {
    return who == 1 ? 0b01ull : 0b10ull;
  });
  c.access(1, 0);
  c.access(2, 256);
  // Requester 1 allocating again in set 0 must evict its own line, not 2's.
  const auto r = c.access(1, 512);
  ASSERT_TRUE(r.evicted.has_value());
  EXPECT_EQ(*r.evicted, 0u);
  EXPECT_TRUE(c.access(2, 256).hit);
}

TEST(Cache, HitsAreNeverRestricted) {
  Cache c(small());
  c.access(1, 0);
  c.set_allocation_filter([](RequesterId, std::uint32_t) { return 0ull; });
  EXPECT_TRUE(c.access(2, 0).hit);  // other requester hits the line
}

TEST(Cache, EmptyMaskBypasses) {
  Cache c(small());
  c.set_allocation_filter([](RequesterId, std::uint32_t) { return 0ull; });
  const auto r = c.access(0, 0);
  EXPECT_FALSE(r.hit);
  EXPECT_FALSE(r.allocated);
  EXPECT_FALSE(c.access(0, 0).hit);  // still not cached (bypasses again)
  EXPECT_EQ(c.bypasses(0), 2);
}

TEST(Cache, OccupancyPerRequester) {
  Cache c(CacheConfig{8, 4, 64});
  for (Addr a = 0; a < 8 * 64; a += 64) c.access(1, a);
  for (Addr a = 4096; a < 4096 + 4 * 64; a += 64) c.access(2, a);
  EXPECT_EQ(c.occupancy(1), 8u);
  EXPECT_EQ(c.occupancy(2), 4u);
  EXPECT_EQ(c.occupancy_bytes(2), 4u * 64);
}

TEST(Cache, EvictionsSufferedCounter) {
  Cache c(small());
  c.access(1, 0);
  c.access(1, 256);
  c.access(2, 512);  // evicts one of requester 1's lines (LRU)
  EXPECT_EQ(c.evictions_suffered(1), 1);
}

TEST(Cache, WaysOwnedByMask) {
  Cache c(small());
  c.access(1, 0);
  c.access(2, 256);
  const auto m1 = c.ways_owned_by(0, 1);
  const auto m2 = c.ways_owned_by(0, 2);
  EXPECT_EQ(m1 & m2, 0ull);
  EXPECT_EQ(m1 | m2, 0b11ull);
}

TEST(Cache, FlushInvalidatesEverything) {
  Cache c(small());
  c.access(0, 0);
  c.flush();
  EXPECT_FALSE(c.access(0, 0).hit);
  EXPECT_EQ(c.occupancy(0), 1u);  // re-allocated by the post-flush access
}

// Property: with an unrestricted filter, a working set within capacity
// never misses after the warm-up pass, for several geometries.
class CacheGeometry
    : public ::testing::TestWithParam<std::pair<std::uint32_t, std::uint32_t>> {
};

TEST_P(CacheGeometry, WorkingSetWithinCapacityHitsAfterWarmup) {
  const auto [sets, ways] = GetParam();
  Cache c(CacheConfig{sets, ways, 64});
  const std::uint64_t lines = static_cast<std::uint64_t>(sets) * ways;
  for (std::uint64_t i = 0; i < lines; ++i) c.access(0, i * 64);
  for (std::uint64_t i = 0; i < lines; ++i) {
    EXPECT_TRUE(c.access(0, i * 64).hit) << "line " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Geometries, CacheGeometry,
                         ::testing::Values(std::pair{4u, 2u}, std::pair{8u, 1u},
                                           std::pair{16u, 16u},
                                           std::pair{64u, 4u},
                                           std::pair{2u, 12u}));

}  // namespace
}  // namespace pap::cache
