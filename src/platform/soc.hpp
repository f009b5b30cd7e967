// SoC platform model: CPU clusters with private L1s and a DSU-managed
// shared L3 per cluster, an interconnect, and an FR-FCFS DRAM controller —
// the "heterogeneous SoC with complex memory system composed of multiple
// levels of on-chip shared SRAM memories and off-chip DRAMs" the paper's
// Section I-II reasons about.
//
// The model is deliberately latency-focused: cache lookups are functional
// (instant decision) and contribute fixed hit latencies; DRAM requests go
// through the full event-driven controller, which is where the paper
// locates the interference that matters (row conflicts, write batching,
// refresh, queueing behind other masters).
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "cache/cache.hpp"
#include "cache/dsu.hpp"
#include "common/stats.hpp"
#include "dram/controller.hpp"
#include "dram/timing.hpp"
#include "mpam/regulator.hpp"
#include "sched/memguard.hpp"
#include "sim/kernel.hpp"

namespace pap::platform {

struct SocConfig {
  int clusters = 1;
  int cores_per_cluster = 4;

  std::uint32_t l1_sets = 64;  ///< per-core L1 (64-byte lines)
  std::uint32_t l1_ways = 4;
  Time l1_latency = Time::ns(1);

  std::uint32_t l3_sets = 2048;  ///< per-cluster DSU L3
  std::uint32_t l3_ways = 16;
  Time l3_latency = Time::ns(10);

  Time interconnect_latency = Time::ns(15);  ///< cluster <-> controller

  dram::Timings dram = dram::ddr3_1600();
  dram::ControllerConfig dram_ctrl;

  std::uint32_t dram_row_bytes = 2048;

  int total_cores() const { return clusters * cores_per_cluster; }
};

class Soc {
 public:
  Soc(sim::Kernel& kernel, const SocConfig& config);

  /// Completion callback carries the access's total latency. Stored
  /// inline (no heap): 24 bytes fit a master's `this` plus two words of
  /// per-access state.
  using DoneFn = sim::InlineFn<void(Time latency), 24>;

  /// Perform one cached memory access from `core` (global index). Walks
  /// L1 -> L3 -> (Memguard gate) -> DRAM; `done` fires at completion.
  void memory_access(int core, cache::Addr addr, bool write, DoneFn done);

  /// Observer fired synchronously at every `memory_access` entry, before
  /// any cache lookup: (core, addr, write, issue instant, critical), where
  /// `critical` is true when the core's L3 scheme is a non-default (RT)
  /// scheme. This is the recording hook behind trace-replay workloads
  /// (platform/trace_master.hpp, tools/pap_tracegen): the probe sees the
  /// exact (time, core, addr, op) stream that determines the memory
  /// system's evolution. Probing never alters simulation behaviour.
  using AccessProbe = std::function<void(int core, cache::Addr addr,
                                         bool write, Time at, bool critical)>;
  void set_access_probe(AccessProbe probe) { probe_ = std::move(probe); }

  /// L3 scheme ID used for a core's accesses (DSU partitioning handle).
  void set_scheme_id(int core, cache::SchemeId scheme);
  cache::SchemeId scheme_id(int core) const;

  /// Install a Memguard regulator; `domain_of_core[i]` maps core i to its
  /// regulation domain. Pass nullptr to remove regulation.
  void set_memguard(std::unique_ptr<sched::Memguard> memguard,
                    std::vector<std::uint32_t> domain_of_core);
  sched::Memguard* memguard() { return memguard_.get(); }

  /// Install an MPAM hardware bandwidth regulator at the memory path;
  /// `partid_of_core[i]` labels core i's DRAM traffic. Both regulators may
  /// be present (the later admission instant wins).
  void set_mpam_regulator(std::unique_ptr<mpam::BandwidthRegulator> regulator,
                          std::vector<mpam::PartId> partid_of_core);
  mpam::BandwidthRegulator* mpam_regulator() { return mpam_reg_.get(); }
  mpam::PartId partid_of_core(int core) const {
    return partid_of_core_.empty()
               ? 0
               : partid_of_core_.at(static_cast<std::size_t>(core));
  }

  cache::DsuCluster& dsu(int cluster) { return *clusters_.at(cluster); }
  dram::Controller& dram_controller() { return *dram_; }
  const SocConfig& config() const { return cfg_; }
  sim::Kernel& kernel() { return kernel_; }

  /// Per-core access latency distribution (all accesses).
  const LatencyHistogram& core_latency(int core) const {
    return core_latency_.at(core);
  }
  /// "accesses", "l1_hits", "l3_hits", "dram_accesses", "memguard_stalls",
  /// "mpam_bw_stalls".
  const Counters& counters() const { return counters_; }

  /// Every component counter, by qualified name: "soc.<name>",
  /// "dram.<name>", and each cache's per-requester rows as
  /// "l1.<core>.<requester>.<what>" / "l3.<cluster>.<requester>.<what>"
  /// (what = hits, misses, bypasses, evictions_suffered).
  std::vector<std::pair<std::string, std::int64_t>> counter_snapshot() const;

 private:
  enum Counter : Counters::Slot {
    kAccesses,
    kL1Hits,
    kL3Hits,
    kDramAccesses,
    kMemguardStalls,
    kMpamBwStalls,
  };

  std::pair<std::uint32_t, std::uint32_t> addr_to_bank_row(
      cache::Addr addr) const;
  /// Hand an access to the DRAM controller (writes are posted).
  void submit_to_dram(std::uint64_t req_id, std::uint32_t bank,
                      std::uint32_t row, int core, bool write);

  sim::Kernel& kernel_;
  SocConfig cfg_;
  std::vector<std::unique_ptr<cache::Cache>> l1_;  // per core
  std::vector<std::unique_ptr<cache::DsuCluster>> clusters_;
  std::unique_ptr<dram::Controller> dram_;
  std::unique_ptr<sched::Memguard> memguard_;
  std::vector<std::uint32_t> domain_of_core_;
  std::unique_ptr<mpam::BandwidthRegulator> mpam_reg_;
  std::vector<mpam::PartId> partid_of_core_;
  std::vector<cache::SchemeId> scheme_of_core_;
  std::vector<LatencyHistogram> core_latency_;
  Counters counters_{"accesses",        "l1_hits",       "l3_hits",
                     "dram_accesses",   "memguard_stalls",
                     "mpam_bw_stalls"};
  AccessProbe probe_;

  struct Outstanding {
    DoneFn done;
    Time issued;
    int core;
  };
  std::vector<std::pair<std::uint64_t, Outstanding>> outstanding_;
  std::uint64_t next_req_id_ = 1;
};

}  // namespace pap::platform
