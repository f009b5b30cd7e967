// Set-associative cache model with per-requester statistics and pluggable
// way-allocation policy.
//
// This is the substrate under both partitioning mechanisms the paper
// compares: software cache coloring (coloring.hpp) restricts which *sets* a
// partition may use, while the DSU (dsu.hpp) and MPAM (mpam/) hardware
// mechanisms restrict which *ways* (or portions) a requester may allocate
// into. The cache model itself is policy-agnostic: an AllocationFilter
// decides, per access, which ways the requester may victimise.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/check.hpp"

namespace pap::cache {

/// Physical address type.
using Addr = std::uint64_t;

/// Identifies the agent performing an access (core, VM, scheme ID or
/// PARTID, depending on the layer above).
using RequesterId = std::uint32_t;

struct CacheConfig {
  std::uint32_t sets = 1024;
  std::uint32_t ways = 16;
  std::uint32_t line_bytes = 64;

  std::uint64_t capacity_bytes() const {
    return static_cast<std::uint64_t>(sets) * ways * line_bytes;
  }
  bool valid() const {
    // Power-of-two sets/line so address slicing is well defined.
    auto pow2 = [](std::uint32_t v) { return v && (v & (v - 1)) == 0; };
    return pow2(sets) && pow2(line_bytes) && ways >= 1;
  }
};

struct AccessResult {
  bool hit = false;
  bool allocated = false;                ///< line was filled on miss
  std::optional<Addr> evicted;           ///< victim line address, if any
};

/// Given (requester, set), returns a bitmask over ways the requester may
/// allocate into (bit w => way w allowed). Lookups always search all ways —
/// partitioning restricts *allocation*, not *hits*, exactly as in the DSU
/// and MPAM specifications.
using AllocationFilter =
    std::function<std::uint64_t(RequesterId, std::uint32_t set)>;

class Cache {
 public:
  explicit Cache(const CacheConfig& config);

  /// Restrict allocation by `filter`. Until one is installed a requester
  /// may allocate into every way — the unpartitioned baseline, which costs
  /// no call per miss.
  void set_allocation_filter(AllocationFilter filter);

  /// Access one line-aligned address. On a miss with at least one allowed
  /// way, the LRU line among allowed ways is replaced. If the requester's
  /// mask is empty the line bypasses the cache (no allocation).
  AccessResult access(RequesterId who, Addr addr);

  /// Invalidate everything (e.g. on repartitioning in tests).
  void flush();

  /// Lines currently resident that were allocated by `who` — the quantity
  /// MPAM cache-storage-usage monitors report.
  std::uint64_t occupancy(RequesterId who) const;
  std::uint64_t occupancy_bytes(RequesterId who) const {
    return occupancy(who) * config_.line_bytes;
  }

  std::uint32_t set_index(Addr addr) const;

  /// Bitmask of ways in `set` whose resident line belongs to `who` — lets
  /// capacity-limiting policies (MPAM cache maximum-capacity partitioning)
  /// force a partition at its limit to victimise its own lines.
  std::uint64_t ways_owned_by(std::uint32_t set, RequesterId who) const;

  const CacheConfig& config() const { return config_; }

  /// Per-requester access counts; 0 for a requester never seen.
  /// evictions_suffered counts lines of `who` evicted by any allocation
  /// (its own included); bypasses counts misses with no allocation rights.
  std::int64_t hits(RequesterId who) const { return row(who).hits; }
  std::int64_t misses(RequesterId who) const { return row(who).misses; }
  std::int64_t bypasses(RequesterId who) const { return row(who).bypasses; }
  std::int64_t evictions_suffered(RequesterId who) const {
    return row(who).evictions_suffered;
  }
  /// One past the highest requester id with a row (rows are dense).
  RequesterId requesters() const {
    return static_cast<RequesterId>(rows_.size());
  }

 private:
  // Ways are stored as parallel arrays (sets * ways, row-major by set), so
  // a lookup scans one set's tags — two cache lines for 16 ways — without
  // touching LRU stamps or owners. An invalid way holds kNoTag.
  static constexpr Addr kNoTag = ~Addr{0};

  /// Index of the way in `set` holding `tag`, or -1.
  int find(std::size_t base, Addr tag) const;

  /// One integer row per requester, indexed by requester id.
  struct Row {
    std::int64_t hits = 0;
    std::int64_t misses = 0;
    std::int64_t bypasses = 0;
    std::int64_t evictions_suffered = 0;
  };

  Row row(RequesterId who) const {
    return who < rows_.size() ? rows_[who] : Row{};
  }
  /// The row of `who`, grown on the requester's first access.
  Row& row_for(RequesterId who) {
    if (who >= rows_.size()) rows_.resize(static_cast<std::size_t>(who) + 1);
    return rows_[who];
  }

  CacheConfig config_;
  unsigned line_shift_ = 0;      // log2(line_bytes)
  std::uint32_t set_mask_ = 0;   // sets - 1
  AllocationFilter filter_;      // empty until set: every way allowed
  std::uint64_t all_ways_ = 0;   // the unpartitioned mask
  std::vector<Addr> tags_;                // kNoTag = invalid way
  std::vector<std::uint64_t> last_use_;  // LRU stamp (tick_ of last access)
  std::vector<RequesterId> owner_;        // requester that allocated the line
  std::uint64_t tick_ = 0;
  std::vector<Row> rows_;
};

}  // namespace pap::cache
