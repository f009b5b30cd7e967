#include "platform/soc.hpp"

#include <algorithm>
#include <string>

#include "common/check.hpp"
#include "trace/tracer.hpp"

namespace pap::platform {

Soc::Soc(sim::Kernel& kernel, const SocConfig& config)
    : kernel_(kernel), cfg_(config) {
  PAP_CHECK(cfg_.clusters >= 1 && cfg_.cores_per_cluster >= 1);
  const int cores = cfg_.total_cores();
  for (int c = 0; c < cores; ++c) {
    l1_.push_back(std::make_unique<cache::Cache>(
        cache::CacheConfig{cfg_.l1_sets, cfg_.l1_ways, 64}));
  }
  for (int cl = 0; cl < cfg_.clusters; ++cl) {
    clusters_.push_back(
        std::make_unique<cache::DsuCluster>(cfg_.l3_sets, cfg_.l3_ways));
  }
  dram_ = std::make_unique<dram::Controller>(kernel_, cfg_.dram,
                                                   cfg_.dram_ctrl);
  scheme_of_core_.assign(static_cast<std::size_t>(cores), 0);
  core_latency_.resize(static_cast<std::size_t>(cores));

  dram_->set_completion_handler(
      [this](const dram::Request& r, Time completion) {
        // Only reads report completions (writes are posted). Match the
        // outstanding access and finish it after the return trip through
        // the interconnect.
        for (std::size_t i = 0; i < outstanding_.size(); ++i) {
          if (outstanding_[i].first == r.id) {
            Outstanding out = std::move(outstanding_[i].second);
            outstanding_.erase(outstanding_.begin() +
                               static_cast<std::ptrdiff_t>(i));
            const Time finish = completion + cfg_.interconnect_latency;
            kernel_.schedule_at(finish, [this, out = std::move(out), finish] {
              const Time latency = finish - out.issued;
              core_latency_[static_cast<std::size_t>(out.core)].add(latency);
              if (out.done) out.done(latency);
            });
            return;
          }
        }
        PAP_CHECK_MSG(false, "DRAM completion for unknown request");
      });
}

void Soc::set_scheme_id(int core, cache::SchemeId scheme) {
  scheme_of_core_.at(static_cast<std::size_t>(core)) = scheme;
}

cache::SchemeId Soc::scheme_id(int core) const {
  return scheme_of_core_.at(static_cast<std::size_t>(core));
}

void Soc::set_memguard(std::unique_ptr<sched::Memguard> memguard,
                       std::vector<std::uint32_t> domain_of_core) {
  if (memguard) {
    PAP_CHECK(domain_of_core.size() ==
              static_cast<std::size_t>(cfg_.total_cores()));
  }
  memguard_ = std::move(memguard);
  domain_of_core_ = std::move(domain_of_core);
}

void Soc::set_mpam_regulator(
    std::unique_ptr<mpam::BandwidthRegulator> regulator,
    std::vector<mpam::PartId> partid_of_core) {
  if (regulator) {
    PAP_CHECK(partid_of_core.size() ==
              static_cast<std::size_t>(cfg_.total_cores()));
  }
  mpam_reg_ = std::move(regulator);
  partid_of_core_ = std::move(partid_of_core);
}

std::vector<std::pair<std::string, std::int64_t>> Soc::counter_snapshot()
    const {
  std::vector<std::pair<std::string, std::int64_t>> out;
  for (const auto& [name, v] : counters_.entries()) {
    out.emplace_back("soc." + std::string(name), v);
  }
  for (const auto& [name, v] : dram_->counters().entries()) {
    out.emplace_back("dram." + std::string(name), v);
  }
  const auto rows = [&out](const std::string& prefix, const cache::Cache& c) {
    for (cache::RequesterId who = 0; who < c.requesters(); ++who) {
      const std::string p = prefix + std::to_string(who) + ".";
      out.emplace_back(p + "hits", c.hits(who));
      out.emplace_back(p + "misses", c.misses(who));
      out.emplace_back(p + "bypasses", c.bypasses(who));
      out.emplace_back(p + "evictions_suffered", c.evictions_suffered(who));
    }
  };
  for (std::size_t core = 0; core < l1_.size(); ++core) {
    rows("l1." + std::to_string(core) + ".", *l1_[core]);
  }
  for (std::size_t cl = 0; cl < clusters_.size(); ++cl) {
    rows("l3." + std::to_string(cl) + ".", clusters_[cl]->l3());
  }
  return out;
}

std::pair<std::uint32_t, std::uint32_t> Soc::addr_to_bank_row(
    cache::Addr addr) const {
  // Row-interleaved mapping: consecutive rows rotate across banks.
  const cache::Addr row_global = addr / cfg_.dram_row_bytes;
  const auto banks = static_cast<std::uint32_t>(cfg_.dram_ctrl.params().banks);
  return {static_cast<std::uint32_t>(row_global % banks),
          static_cast<std::uint32_t>(row_global / banks)};
}

void Soc::memory_access(int core, cache::Addr addr, bool write, DoneFn done) {
  PAP_CHECK(core >= 0 && core < cfg_.total_cores());
  const Time issued = kernel_.now();
  if (probe_) {
    probe_(core, addr, write, issued,
           scheme_of_core_[static_cast<std::size_t>(core)] != 0);
  }
  counters_.inc(kAccesses);
  trace::Tracer* tracer = kernel_.tracer();
  if (tracer) {
    // The DSU is functional (no kernel handle); keep its tracer in sync
    // with the kernel's so L3 portion-occupancy gauges flow into the same
    // stream.
    for (auto& cl : clusters_) cl->set_tracer(tracer);
    tracer->counter("soc", "accesses",
                    static_cast<double>(counters_.value(kAccesses)),
                    trace::CounterKind::kMonotonic);
  }

  // L1, private per core.
  auto& l1 = *l1_[static_cast<std::size_t>(core)];
  if (l1.access(0, addr).hit) {
    counters_.inc(kL1Hits);
    const Time finish = issued + cfg_.l1_latency;
    kernel_.schedule_at(finish, [this, core, issued, finish,
                                 done = std::move(done)] {
      const Time latency = finish - issued;
      core_latency_[static_cast<std::size_t>(core)].add(latency);
      if (done) done(latency);
    });
    return;
  }

  // Shared L3 of the core's cluster, under the DSU partition filter.
  const int cluster = core / cfg_.cores_per_cluster;
  auto& dsu = *clusters_[static_cast<std::size_t>(cluster)];
  const auto scheme = scheme_of_core_[static_cast<std::size_t>(core)];
  if (dsu.access_scheme(scheme, addr).hit) {
    counters_.inc(kL3Hits);
    const Time finish = issued + cfg_.l1_latency + cfg_.l3_latency;
    kernel_.schedule_at(finish, [this, core, issued, finish,
                                 done = std::move(done)] {
      const Time latency = finish - issued;
      core_latency_[static_cast<std::size_t>(core)].add(latency);
      if (done) done(latency);
    });
    return;
  }

  // Miss all the way to DRAM: Memguard gate, then interconnect, then the
  // event-driven controller.
  counters_.inc(kDramAccesses);
  Time admit = issued;
  if (memguard_) {
    admit = memguard_->request_access(
        domain_of_core_[static_cast<std::size_t>(core)]);
    if (admit > issued) {
      counters_.inc(kMemguardStalls);
      if (tracer) {
        tracer->span(issued, admit - issued, "soc",
                     "memguard_stall/core" + std::to_string(core), "stall");
      }
    }
  }
  if (mpam_reg_) {
    const Time hw_admit = mpam_reg_->admit(
        partid_of_core_[static_cast<std::size_t>(core)], issued);
    if (hw_admit > issued) {
      counters_.inc(kMpamBwStalls);
      if (tracer) {
        tracer->span(issued, hw_admit - issued, "soc",
                     "mpam_bw_stall/core" + std::to_string(core), "stall");
      }
    }
    admit = std::max(admit, hw_admit);
  }
  const auto [bank, row] = addr_to_bank_row(addr);
  const std::uint64_t req_id = next_req_id_++;
  const Time at = admit + cfg_.interconnect_latency;
  if (write) {
    // Writes are posted: the core retires them once handed to the memory
    // system ("the latter are not, and can be deferred", Sec. IV-A). The
    // hand-off and the retirement are one event. As two events they would
    // share (at, priority 0) with consecutive seqs, and submit() schedules
    // nothing at a negative priority, so nothing could run between them:
    // one event keeps the order exact.
    kernel_.schedule_at(at, [this, req_id, bank, row, core, issued,
                             done = std::move(done)] {
      submit_to_dram(req_id, bank, row, core, /*write=*/true);
      const Time latency = kernel_.now() - issued;
      core_latency_[static_cast<std::size_t>(core)].add(latency);
      if (done) done(latency);
    });
    return;
  }
  // Reads stall the issuing core until the data returns ("the former are
  // on the critical path for the master requesting them").
  outstanding_.emplace_back(req_id, Outstanding{std::move(done), issued, core});
  kernel_.schedule_at(at, [this, req_id, bank, row, core] {
    submit_to_dram(req_id, bank, row, core, /*write=*/false);
  });
}

void Soc::submit_to_dram(std::uint64_t req_id, std::uint32_t bank,
                         std::uint32_t row, int core, bool write) {
  dram::Request r;
  r.id = req_id;
  r.op = write ? dram::Op::kWrite : dram::Op::kRead;
  r.bank = bank;
  r.row = row;
  r.master = static_cast<std::uint32_t>(core);
  r.posted = write;
  dram_->submit(r);
}

}  // namespace pap::platform
