// Page-coloring allocator: color math, exclusivity, the costs the paper
// attributes to coloring (smaller effective cache, page-table pressure).
#include <gtest/gtest.h>

#include "cache/cache.hpp"
#include "cache/coloring.hpp"

namespace pap::cache {
namespace {

CacheConfig l2() { return CacheConfig{1024, 16, 64}; }  // 64 KiB of sets span

TEST(Coloring, ColorCountFromGeometry) {
  // sets * line = 64 KiB; 4 KiB pages -> 16 colors.
  PageColorAllocator a(l2(), 4096, 1ull << 30);
  EXPECT_EQ(a.num_colors(), 16u);
}

TEST(Coloring, ColorOfAddress) {
  PageColorAllocator a(l2(), 4096, 1ull << 30);
  EXPECT_EQ(a.color_of(0), 0u);
  EXPECT_EQ(a.color_of(4096), 1u);
  EXPECT_EQ(a.color_of(15 * 4096), 15u);
  EXPECT_EQ(a.color_of(16 * 4096), 0u);  // wraps at the cache span
}

TEST(Coloring, ExclusiveColorOwnership) {
  PageColorAllocator a(l2(), 4096, 1ull << 30);
  ASSERT_TRUE(a.assign_colors(1, {0, 1, 2, 3}).is_ok());
  EXPECT_FALSE(a.assign_colors(2, {3, 4}).is_ok());  // 3 taken
  EXPECT_TRUE(a.assign_colors(2, {4, 5}).is_ok());
  EXPECT_FALSE(a.assign_colors(1, {99}).is_ok());    // out of range
}

TEST(Coloring, PagesLandOnOwnedColorsOnly) {
  PageColorAllocator a(l2(), 4096, 1ull << 30);
  ASSERT_TRUE(a.assign_colors(1, {2, 5}).is_ok());
  const auto pages = a.alloc_pages(1, 10);
  ASSERT_TRUE(pages.has_value());
  for (const auto p : pages.value()) {
    const auto c = a.color_of(p);
    EXPECT_TRUE(c == 2 || c == 5) << "page at " << p;
  }
}

TEST(Coloring, AllocationWithoutColorsFails) {
  PageColorAllocator a(l2(), 4096, 1ull << 30);
  EXPECT_FALSE(a.alloc_pages(9, 1).has_value());
}

TEST(Coloring, ExhaustionReported) {
  // Tiny memory: 32 frames total, 2 per color.
  PageColorAllocator a(l2(), 4096, 32ull * 4096);
  ASSERT_TRUE(a.assign_colors(1, {0}).is_ok());
  EXPECT_TRUE(a.alloc_pages(1, 2).has_value());
  EXPECT_FALSE(a.alloc_pages(1, 1).has_value());
}

TEST(Coloring, EffectiveCacheFraction) {
  // "This is coming with the price of a factual smaller cache for each
  // partition."
  PageColorAllocator a(l2(), 4096, 1ull << 30);
  ASSERT_TRUE(a.assign_colors(1, {0, 1, 2, 3}).is_ok());
  ASSERT_TRUE(a.assign_colors(2, {4, 5}).is_ok());
  EXPECT_DOUBLE_EQ(a.effective_cache_fraction(1), 0.25);
  EXPECT_DOUBLE_EQ(a.effective_cache_fraction(2), 0.125);
  EXPECT_DOUBLE_EQ(a.effective_cache_fraction(3), 0.0);
}

TEST(Coloring, MappingFragmentsGrowWithColorInterleaving) {
  // "fine-grained page-mapping that can cause side-effects in terms of
  // page-table walks": colored allocations are physically scattered.
  PageColorAllocator colored(l2(), 4096, 1ull << 30);
  ASSERT_TRUE(colored.assign_colors(1, {0, 8}).is_ok());
  ASSERT_TRUE(colored.alloc_pages(1, 16).has_value());
  EXPECT_GT(colored.mapping_fragments(1), 8u);

  // A partition owning ALL colors allocates contiguously (1 fragment).
  PageColorAllocator contiguous(l2(), 4096, 1ull << 30);
  std::vector<std::uint32_t> all;
  for (std::uint32_t c = 0; c < contiguous.num_colors(); ++c) all.push_back(c);
  ASSERT_TRUE(contiguous.assign_colors(1, all).is_ok());
  ASSERT_TRUE(contiguous.alloc_pages(1, 16).has_value());
  EXPECT_EQ(contiguous.mapping_fragments(1), 1u);
}

TEST(Coloring, ColoredPartitionsCannotEvictEachOther) {
  // Functional isolation: route colored pages through a real cache and
  // verify set disjointness keeps partition 1's lines resident.
  const CacheConfig cfg{64, 2, 64};  // 4 KiB set span, 4 colors @ 1 KiB page
  PageColorAllocator a(cfg, 1024, 1 << 22);
  ASSERT_TRUE(a.assign_colors(1, {0}).is_ok());
  ASSERT_TRUE(a.assign_colors(2, {1, 2, 3}).is_ok());
  Cache cache(cfg);
  const auto p1 = a.alloc_pages(1, 2).value();
  const auto p2 = a.alloc_pages(2, 24).value();
  for (const auto page : p1) {
    for (Addr off = 0; off < 1024; off += 64) cache.access(1, page + off);
  }
  // Partition 2 thrashes its colors hard.
  for (int round = 0; round < 4; ++round) {
    for (const auto page : p2) {
      for (Addr off = 0; off < 1024; off += 64) cache.access(2, page + off);
    }
  }
  for (const auto page : p1) {
    for (Addr off = 0; off < 1024; off += 64) {
      EXPECT_TRUE(cache.access(1, page + off).hit);
    }
  }
  EXPECT_EQ(cache.evictions_suffered(1), 0);
}

}  // namespace
}  // namespace pap::cache
