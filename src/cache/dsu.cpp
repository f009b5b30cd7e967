#include "cache/dsu.hpp"

#include <cstdio>
#include <string>

#include "trace/tracer.hpp"

namespace pap::cache {

namespace {
constexpr int bit_index(SchemeId scheme, int group) {
  return static_cast<int>(scheme) * kNumPartitionGroups + group;
}
}  // namespace

std::uint32_t encode_clusterpartcr(const GroupOwners& owners) {
  std::uint32_t value = 0;
  for (int g = 0; g < kNumPartitionGroups; ++g) {
    if (owners[static_cast<std::size_t>(g)]) {
      value |= 1u << bit_index(*owners[static_cast<std::size_t>(g)], g);
    }
  }
  return value;
}

Expected<GroupOwners> decode_clusterpartcr(std::uint32_t value) {
  GroupOwners owners{};
  for (int g = 0; g < kNumPartitionGroups; ++g) {
    for (int s = 0; s < kNumSchemeIds; ++s) {
      if (value >> bit_index(static_cast<SchemeId>(s), g) & 1u) {
        if (owners[static_cast<std::size_t>(g)]) {
          return Expected<GroupOwners>::error(
              "partition group " + std::to_string(g) +
              " claimed by scheme IDs " +
              std::to_string(*owners[static_cast<std::size_t>(g)]) + " and " +
              std::to_string(s));
        }
        owners[static_cast<std::size_t>(g)] = static_cast<SchemeId>(s);
      }
    }
  }
  return owners;
}

DsuCluster::DsuCluster(std::uint32_t l3_sets, std::uint32_t ways)
    : l3_(CacheConfig{l3_sets, ways, 64}),
      ways_per_group_(ways / kNumPartitionGroups) {
  PAP_CHECK_MSG(ways == 12 || ways == 16,
                "the DSU L3 is 12- or 16-way set-associative");
  l3_.set_allocation_filter([this](RequesterId who, std::uint32_t) {
    return allocation_mask(static_cast<SchemeId>(who));
  });
}

Status DsuCluster::write_partition_register(std::uint32_t value) {
  auto decoded = decode_clusterpartcr(value);
  if (!decoded) return Status::error(decoded.error_message());
  owners_ = decoded.value();
  partcr_ = value;
  if (tracer_) {
    char name[48];
    std::snprintf(name, sizeof name, "partcr_write/0x%08x", value);
    tracer_->instant("dsu", name, "config");
  }
  return Status::ok();
}

void DsuCluster::set_vm_override(std::uint32_t vm, SchemeIdOverride ov) {
  PAP_CHECK(vm < overrides_.size());
  overrides_[vm] = ov;
}

SchemeId DsuCluster::effective_scheme_id(std::uint32_t vm,
                                         std::uint8_t guest_requested) const {
  PAP_CHECK(vm < overrides_.size());
  return overrides_[vm].apply(guest_requested);
}

std::uint64_t DsuCluster::allocation_mask(SchemeId scheme) const {
  std::uint64_t mask = 0;
  for (int g = 0; g < kNumPartitionGroups; ++g) {
    const auto& owner = owners_[static_cast<std::size_t>(g)];
    const bool allowed = !owner.has_value() || *owner == scheme;
    if (allowed) {
      const std::uint64_t group_ways = (1ull << ways_per_group_) - 1;
      mask |= group_ways << (static_cast<std::uint32_t>(g) * ways_per_group_);
    }
  }
  return mask;
}

AccessResult DsuCluster::access(std::uint32_t vm, std::uint8_t guest_scheme,
                                Addr addr) {
  return access_scheme(effective_scheme_id(vm, guest_scheme), addr);
}

AccessResult DsuCluster::access_scheme(SchemeId scheme, Addr addr) {
  PAP_CHECK(scheme < kNumSchemeIds);
  const AccessResult r = l3_.access(scheme, addr);
  if (tracer_) {
    const std::string who = "scheme" + std::to_string(scheme);
    // Portion occupancy moves only when a line is (de)allocated; hits keep
    // it flat, so gauge updates on allocations/evictions are enough.
    if (r.allocated || r.evicted) {
      tracer_->counter("dsu", who + "/occupancy_lines",
                       static_cast<double>(l3_.occupancy(scheme)));
    }
    tracer_->counter("dsu", who + (r.hit ? "/hits" : "/misses"),
                     static_cast<double>(r.hit ? l3_.hits(scheme)
                                               : l3_.misses(scheme)),
                     trace::CounterKind::kMonotonic);
  }
  return r;
}

}  // namespace pap::cache
