#include "cache/cache.hpp"

#include <algorithm>
#include <limits>

namespace pap::cache {

Cache::Cache(const CacheConfig& config) : config_(config) {
  PAP_CHECK_MSG(config_.valid(), "invalid cache geometry");
  while ((1u << line_shift_) < config_.line_bytes) ++line_shift_;
  set_mask_ = config_.sets - 1;
  const std::size_t n = static_cast<std::size_t>(config_.sets) * config_.ways;
  tags_.assign(n, kNoTag);
  last_use_.assign(n, 0);
  owner_.assign(n, 0);
  filter_ = [ways = config_.ways](RequesterId, std::uint32_t) {
    return ways >= 64 ? ~0ull : ((1ull << ways) - 1);
  };
}

void Cache::set_allocation_filter(AllocationFilter filter) {
  PAP_CHECK(filter != nullptr);
  filter_ = std::move(filter);
}

std::uint32_t Cache::set_index(Addr addr) const {
  // sets and line_bytes are powers of two (CacheConfig::valid).
  return static_cast<std::uint32_t>(addr >> line_shift_) & set_mask_;
}

int Cache::find(std::size_t base, Addr tag) const {
  const Addr* tags = &tags_[base];
  for (std::uint32_t w = 0; w < config_.ways; ++w) {
    if (tags[w] == tag) return static_cast<int>(w);
  }
  return -1;
}

AccessResult Cache::access(RequesterId who, Addr addr) {
  ++tick_;
  const std::uint32_t set = set_index(addr);
  const Addr tag = addr >> line_shift_;
  PAP_CHECK(tag != kNoTag);
  const std::size_t base = static_cast<std::size_t>(set) * config_.ways;
  AccessResult result;
  Row& counts = row_for(who);

  if (const int way = find(base, tag); way >= 0) {
    // Hits are never restricted by partitioning.
    last_use_[base + static_cast<std::size_t>(way)] = tick_;
    result.hit = true;
    ++counts.hits;
    return result;
  }
  ++counts.misses;

  const std::uint64_t mask = filter_(who, set);
  if (mask == 0) {
    // No allocation rights: the access bypasses the cache.
    ++counts.bypasses;
    return result;
  }

  // Victim: invalid allowed way first, else LRU among allowed ways.
  std::size_t victim = 0;
  bool found = false;
  std::uint64_t oldest = std::numeric_limits<std::uint64_t>::max();
  for (std::uint32_t w = 0; w < config_.ways; ++w) {
    if (!(mask >> w & 1)) continue;
    const std::size_t i = base + w;
    if (tags_[i] == kNoTag) {
      victim = i;
      found = true;
      break;
    }
    if (last_use_[i] < oldest) {
      oldest = last_use_[i];
      victim = i;
      found = true;
    }
  }
  PAP_CHECK(found);  // mask != 0 guarantees a candidate
  if (tags_[victim] != kNoTag) {
    result.evicted = tags_[victim] << line_shift_;
    // The owner accessed before, so its row exists; `counts` may alias it.
    ++rows_[owner_[victim]].evictions_suffered;
  }
  tags_[victim] = tag;
  owner_[victim] = who;
  last_use_[victim] = tick_;
  result.allocated = true;
  return result;
}

void Cache::flush() { std::fill(tags_.begin(), tags_.end(), kNoTag); }

std::uint64_t Cache::ways_owned_by(std::uint32_t set, RequesterId who) const {
  PAP_CHECK(set < config_.sets);
  const std::size_t base = static_cast<std::size_t>(set) * config_.ways;
  std::uint64_t mask = 0;
  for (std::uint32_t w = 0; w < config_.ways; ++w) {
    if (tags_[base + w] != kNoTag && owner_[base + w] == who) {
      mask |= 1ull << w;
    }
  }
  return mask;
}

std::uint64_t Cache::occupancy(RequesterId who) const {
  std::uint64_t n = 0;
  for (std::size_t i = 0; i < tags_.size(); ++i) {
    if (tags_[i] != kNoTag && owner_[i] == who) ++n;
  }
  return n;
}

}  // namespace pap::cache
