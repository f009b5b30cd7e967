#include "oracle/e2e_reference.hpp"

#include <algorithm>
#include <utility>

#include "nc/arrival.hpp"
#include "nc/bounds.hpp"
#include "nc/curve.hpp"
#include "nc/ops.hpp"
#include "nc/service.hpp"

namespace pap::core::reference {

namespace {

constexpr int kMaxFixpointIters = 200;
constexpr double kBurstDivergenceCap = 1e7;  // packets; clearly unstable

/// Per-flow, per-hop burst sizes (in each flow's own packets) after the
/// link-delay fixpoint.
struct PropagatedBursts {
  // bursts[f][h]: burst of flow f at its h-th link.
  std::vector<std::vector<double>> bursts;
  std::vector<bool> flow_unbounded;
};

nc::Curve link_beta_flits(const E2eAnalysis& e, bool injection) {
  // In flit units: one flit per flit_time; router channels add the hop
  // pipeline latency, the injection link only its own serialization start.
  const double rate = 1.0 / e.model().noc.flit_time.nanos();
  const double latency =
      injection ? e.model().noc.flit_time.nanos() : e.hop_latency().nanos();
  return nc::Curve::rate_latency(rate, latency);
}

std::optional<PropagatedBursts> propagate(
    const E2eAnalysis& e, const std::vector<AppRequirement>& flows,
    const std::vector<std::vector<PathLink>>& paths) {
  // Distinct links and the (flow, hop) pairs crossing them.
  std::vector<PathLink> links;
  std::vector<std::vector<std::pair<std::size_t, std::size_t>>> users;
  for (std::size_t f = 0; f < flows.size(); ++f) {
    for (std::size_t h = 0; h < paths[f].size(); ++h) {
      const auto& l = paths[f][h];
      std::size_t idx = links.size();
      for (std::size_t k = 0; k < links.size(); ++k) {
        if (links[k] == l) {
          idx = k;
          break;
        }
      }
      if (idx == links.size()) {
        links.push_back(l);
        users.emplace_back();
      }
      users[idx].emplace_back(f, h);
    }
  }

  PropagatedBursts out;
  out.bursts.resize(flows.size());
  out.flow_unbounded.assign(flows.size(), false);
  for (std::size_t f = 0; f < flows.size(); ++f) {
    out.bursts[f].assign(paths[f].size(), flows[f].traffic.burst);
  }

  // Stability pre-check: aggregate flit rate below capacity on every link.
  std::vector<bool> link_unstable(links.size(), false);
  for (std::size_t l = 0; l < links.size(); ++l) {
    double flit_rate = 0.0;
    for (const auto& [f, h] : users[l]) {
      flit_rate += flows[f].traffic.rate * flows[f].flits_per_packet;
    }
    if (flit_rate >= 1.0 / e.model().noc.flit_time.nanos() - 1e-12) {
      link_unstable[l] = true;
    }
  }

  // Fixpoint: link delays from current bursts; bursts from prefix delays.
  std::vector<double> delay(links.size(), 0.0);
  for (int iter = 0; iter < kMaxFixpointIters; ++iter) {
    bool changed = false;
    for (std::size_t l = 0; l < links.size(); ++l) {
      if (link_unstable[l]) continue;
      double burst_flits = 0.0;
      double rate_flits = 0.0;
      for (const auto& [f, h] : users[l]) {
        burst_flits += out.bursts[f][h] * flows[f].flits_per_packet;
        rate_flits += flows[f].traffic.rate * flows[f].flits_per_packet;
      }
      const auto d = nc::h_deviation(
          nc::Curve::affine(burst_flits, rate_flits),
          link_beta_flits(e, links[l].injection));
      if (!d) {
        link_unstable[l] = true;
        changed = true;
        continue;
      }
      if (*d > delay[l] + 1e-9) {
        delay[l] = *d;
        changed = true;
      }
    }
    for (std::size_t f = 0; f < flows.size(); ++f) {
      double prefix = 0.0;
      for (std::size_t h = 0; h < paths[f].size(); ++h) {
        if (h > 0) {
          // Find the previous link's delay (and instability).
          const auto& prev = paths[f][h - 1];
          for (std::size_t l = 0; l < links.size(); ++l) {
            if (links[l] == prev) {
              if (link_unstable[l]) prefix = kBurstDivergenceCap;
              prefix += delay[l];
              break;
            }
          }
        }
        const double want =
            flows[f].traffic.burst + flows[f].traffic.rate * prefix;
        if (want > out.bursts[f][h] + 1e-9) {
          out.bursts[f][h] = std::min(want, kBurstDivergenceCap);
          changed = true;
        }
      }
    }
    if (!changed) {
      // Converged: flows crossing unstable links are unbounded.
      for (std::size_t f = 0; f < flows.size(); ++f) {
        for (std::size_t h = 0; h < paths[f].size(); ++h) {
          for (std::size_t l = 0; l < links.size(); ++l) {
            if (links[l] == paths[f][h] && link_unstable[l]) {
              out.flow_unbounded[f] = true;
            }
          }
          if (out.bursts[f][h] >= kBurstDivergenceCap) {
            out.flow_unbounded[f] = true;
          }
        }
      }
      return out;
    }
  }
  // Did not converge: treat the whole set as unstable (conservative).
  return std::nullopt;
}

std::optional<nc::Curve> chain_for(
    const E2eAnalysis& e, const std::vector<AppRequirement>& flows,
    std::size_t self_idx, const PropagatedBursts& propagated,
    const std::vector<std::vector<PathLink>>& paths) {
  const AppRequirement& req = flows[self_idx];
  const auto& my_links = paths[self_idx];

  nc::Curve chain;
  bool first = true;
  for (std::size_t h = 0; h < my_links.size(); ++h) {
    // Link guarantee in this flow's packet units.
    const nc::Curve link = nc::Curve::rate_latency(
        e.link_rate(req.flits_per_packet),
        my_links[h].injection ? e.model().noc.flit_time.nanos()
                              : e.hop_latency().nanos());
    // Cross traffic with propagated (conservative) bursts, normalised to
    // this flow's packet service time via the flit ratio.
    nc::Curve cross = nc::Curve::constant(0.0);
    bool any_cross = false;
    for (std::size_t f = 0; f < flows.size(); ++f) {
      if (f == self_idx) continue;
      for (std::size_t oh = 0; oh < paths[f].size(); ++oh) {
        if (paths[f][oh] == my_links[h]) {
          const double scale =
              static_cast<double>(flows[f].flits_per_packet) /
              static_cast<double>(req.flits_per_packet);
          const nc::Curve oc =
              nc::Curve::affine(propagated.bursts[f][oh] * scale,
                                flows[f].traffic.rate * scale);
          cross = any_cross ? nc::add(cross, oc) : oc;
          any_cross = true;
          break;
        }
      }
    }
    const nc::Curve residual =
        any_cross ? nc::residual_blind(link, cross) : link;
    if (residual.final_slope() <= 1e-15) return std::nullopt;  // saturated
    chain = first ? residual : nc::convolve(chain, residual);
    first = false;
  }
  return chain;
}

std::optional<nc::Curve> path_service(
    const E2eAnalysis& e, const AppRequirement& req,
    const std::vector<AppRequirement>& others) {
  // Assemble the full flow set with `req` included exactly once.
  std::vector<AppRequirement> flows;
  std::size_t self_idx = others.size();
  for (const auto& o : others) {
    if (o.app == req.app) self_idx = flows.size();
    flows.push_back(o);
  }
  if (self_idx == others.size()) {
    self_idx = flows.size();
    flows.push_back(req);
  }
  std::vector<std::vector<PathLink>> paths;
  paths.reserve(flows.size());
  for (const auto& f : flows) paths.push_back(e.links_of(f));
  const auto propagated = propagate(e, flows, paths);
  if (!propagated) return std::nullopt;
  if (propagated->flow_unbounded[self_idx]) return std::nullopt;
  return chain_for(e, flows, self_idx, *propagated, paths);
}

nc::Curve dram_service(const E2eAnalysis& e, const AppRequirement& req,
                       const std::vector<AppRequirement>& others) {
  // Aggregate write pressure at the controller: the background bucket plus
  // every admitted app's traffic that targets the DRAM (conservatively all
  // of it is counted as writes for the batch interference — writes are the
  // traffic class that interrupts reads in the FR-FCFS policy).
  nc::TokenBucket writes = e.model().background_writes;
  for (const auto& o : others) {
    if (o.app == req.app || !o.uses_dram) continue;
    writes.burst += o.traffic.burst;
    writes.rate += o.traffic.rate;
  }
  dram::WcdAnalysis analysis(e.model().dram, e.model().dram_ctrl, writes);
  const nc::Curve aggregate =
      analysis.service_curve(e.model().dram_service_depth);
  // Reads of the other apps occupy queue positions ahead of ours: subtract
  // their arrival curves from the aggregate read service.
  nc::Curve cross_reads = nc::Curve::constant(0.0);
  bool any = false;
  for (const auto& o : others) {
    if (o.app == req.app || !o.uses_dram) continue;
    const nc::Curve oc = o.traffic.to_curve();
    cross_reads = any ? nc::add(cross_reads, oc) : oc;
    any = true;
  }
  const nc::Curve convex = nc::convex_minorant(aggregate);
  return any ? nc::residual_blind(convex, cross_reads) : convex;
}

}  // namespace

std::optional<Time> e2e_bound(const E2eAnalysis& e, const AppRequirement& req,
                              const std::vector<AppRequirement>& others) {
  auto chain = path_service(e, req, others);
  if (!chain) return std::nullopt;
  if (req.uses_dram) {
    const nc::Curve dram = dram_service(e, req, others);
    // Both curves are convex (residuals of convex curves); compose.
    chain = nc::convolve(*chain, dram);
  }
  return nc::delay_bound(req.traffic.to_curve(), *chain);
}

}  // namespace pap::core::reference
