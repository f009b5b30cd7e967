// Incremental admission control: the batch analysis, one component at a
// time (docs/admission.md).
//
// A batch decision re-proves *every* admitted flow — O(flows) per
// admit/release, which caps the "millions of users" north star. This
// engine, the one behind core::AdmissionController, keeps the converged
// fixpoint state resident between decisions:
//
//  * flows live in flat slot-indexed arrays (stable FlowSlot ids handed
//    out from a free list), each holding the committed requirement, its
//    admission sequence number, cached end-to-end bound, and — for
//    DRAM-using flows — the cached residual NoC service chain;
//  * links hold their member flows (ascending admission order), so the
//    *dirty set* of a decision — the links on the arriving/leaving flow's
//    path, the flows sharing them, and the transitive closure — is one BFS
//    over the membership graph;
//  * only the dirty set is re-propagated, re-run cold through the exact
//    batch pipeline (E2eAnalysis' flow-set slice API) in admission order;
//    everything outside the closure keeps its previously converged state —
//    the flow-dimension analogue of warm-starting the NC fixpoint.
//
// Exactness, not approximation: the burst-propagation fixpoint factors
// over connected components of the flow/link sharing graph (a joint sweep
// never mixes values across components), so re-running just the dirty
// component in canonical order reproduces the full batch run bit for bit.
// Every decision is decision-identical — same grants, same rejection
// strings — and every cached bound is ps-exact against
// E2eAnalysis::e2e_bounds_into over the same flow set; the seeded churn in
// tests/admit_incremental_test.cpp and bench/admission_churn.cpp pins this
// against the batch oracle (core::reference::BatchAdmission, tests/oracle).
//
// DRAM is the one globally shared resource: its residual service depends
// on the whole uses_dram set, not on NoC sharing. The engine therefore
// caches each DRAM flow's NoC chain and, when the DRAM population changes,
// re-derives affected bounds by convolving the cached chain with the fresh
// DRAM residual — O(dram flows) per DRAM churn event, independent of the
// NoC component sizes, and still bit-identical (the chain is a pure
// function of the flow's unchanged component).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.hpp"
#include "core/e2e_analysis.hpp"
#include "core/qos_spec.hpp"

namespace pap::admit {

/// Stable handle of a registered flow; reused via a free list after
/// release, so long-lived engines stay compact under churn.
using FlowSlot = std::uint32_t;
inline constexpr FlowSlot kInvalidSlot = 0xffffffffu;

/// Decision counters plus the incremental-work telemetry papd's
/// admission_stats endpoint reports.
struct EngineStats {
  std::uint64_t admissions = 0;
  std::uint64_t rejections = 0;
  std::uint64_t releases = 0;
  /// Dirty-set sizes, summed over all decisions (both route attempts) and
  /// for the most recent one — the per-decision work the engine actually
  /// did, as opposed to the O(live_flows) a batch run would have done.
  std::uint64_t dirty_flows_total = 0;
  std::uint64_t dirty_links_total = 0;
  std::uint64_t last_dirty_flows = 0;
  std::uint64_t last_dirty_links = 0;
  /// Live flows whose component failed to converge within the iteration
  /// cap. Non-zero means the batch oracle would prove nothing for anyone:
  /// current_bound returns nullopt for every flow until it clears.
  std::uint64_t diverged_flows = 0;
  std::size_t live_flows = 0;
  std::size_t live_links = 0;
};

class IncrementalAdmission {
 public:
  explicit IncrementalAdmission(core::PlatformModel model);

  /// Decision-identical to a batch re-proof of every flow on the same
  /// admission history: same route-retry order, same grant fields, same
  /// rejection strings (the failing flow is the admission-order-first one,
  /// exactly as the batch scan reports it).
  Expected<core::AdmissionGrant> request(const core::AppRequirement& req);

  /// Remove a flow and re-prove only its component. Always succeeds for an
  /// admitted app; the freed capacity is visible to the next decision.
  Status release(noc::AppId app);

  /// Cached bound of an admitted app — the value the last batch run over
  /// the full flow set would report, served O(1) without re-analysis.
  std::optional<Time> current_bound(noc::AppId app) const;

  bool contains(noc::AppId app) const;
  std::size_t size() const { return app_index_.size(); }

  /// Live flows in canonical (admission) order — exactly the vector the
  /// batch oracle would hold. O(live flows); for tests and introspection.
  std::vector<core::AppRequirement> flows() const;

  /// Counters with live_flows/live_links/diverged_flows filled in.
  EngineStats stats() const;

  const core::E2eAnalysis& analysis() const { return analysis_; }

 private:
  struct FlowState {
    core::AppRequirement req;            // committed route order
    std::uint64_t seq = 0;               // admission order, never reused
    std::vector<std::uint32_t> links;    // indices into links_
    std::optional<Time> bound;           // cached e2e bound
    nc::Curve chain;                     // cached NoC chain (uses_dram only)
    bool chain_valid = false;
    bool diverged = false;               // component hit the iteration cap
    bool live = false;
  };

  struct LinkState {
    core::PathLink key;
    std::vector<FlowSlot> members;  // live members, ascending seq
    bool live = false;
  };

  struct PathLinkHash {
    std::size_t operator()(const core::PathLink& l) const;
  };

  /// One tentative evaluation: the dirty component(s) re-run cold, plus
  /// the DRAM-coupled bound refreshes. Nothing is committed until the
  /// decision passes (admit) or unconditionally (release).
  struct Eval {
    std::vector<core::AppRequirement> flows;  // dirty reqs (+candidate last)
    bool converged = true;
    std::vector<std::optional<Time>> bounds;  // parallel to flows
    std::vector<nc::Curve> chains;            // NoC chains of dram flows
    std::vector<char> chain_ok;
    std::vector<FlowSlot> dram_clean;         // clean dram flows re-bounded
    std::vector<std::optional<Time>> dram_clean_bounds;
  };

  void begin_mark();
  /// BFS over the membership graph from already-marked seed links; fills
  /// `out` with the (marked) reachable live flows, ascending seq.
  void dirty_closure(std::vector<FlowSlot>* out);
  void evaluate(const core::AppRequirement* candidate,
                const std::vector<FlowSlot>& dirty, bool dram_set_changed,
                Eval* ev);
  /// Empty string when every tentative flow keeps its guarantee; otherwise
  /// the exact batch rejection message (admission-order-first failure).
  std::string first_failure(const core::AppRequirement& req,
                            const core::AppRequirement* candidate,
                            const std::vector<FlowSlot>& dirty,
                            const Eval& ev) const;
  void apply_eval(const std::vector<FlowSlot>& dirty, Eval* ev);
  /// Cache a (re)proved bound and keep failing_seqs_ consistent with it.
  void set_bound(FlowState& fs, std::optional<Time> b);
  FlowSlot alloc_slot();
  std::uint32_t intern_link(const core::PathLink& l);

  core::E2eAnalysis analysis_;

  std::vector<FlowState> flows_;
  std::vector<FlowSlot> free_slots_;
  std::vector<LinkState> links_;
  std::vector<std::uint32_t> free_links_;
  std::unordered_map<core::PathLink, std::uint32_t, PathLinkHash> link_index_;
  std::unordered_map<noc::AppId, FlowSlot> app_index_;
  /// Canonical admission order; values are slots. Also the DRAM-only view
  /// used to rebuild batch-order dram summation sequences.
  std::map<std::uint64_t, FlowSlot> by_seq_;
  std::map<std::uint64_t, FlowSlot> dram_by_seq_;
  /// Seqs of live flows whose cached bound misses (nullopt or past the
  /// deadline) — consulted so a decision can report the admission-order
  /// first failure without touching clean flows.
  std::set<std::uint64_t> failing_seqs_;
  std::uint64_t diverged_count_ = 0;
  std::uint64_t next_seq_ = 1;

  // BFS visitation marks (epoch-tagged so no per-decision clearing).
  std::vector<std::uint32_t> flow_mark_;
  std::vector<std::uint32_t> link_mark_;
  std::uint32_t epoch_ = 0;

  // Decision scratch, reused so a warm engine allocates little per call.
  std::vector<FlowSlot> dirty_;
  std::vector<std::uint32_t> bfs_stack_;
  std::vector<const core::AppRequirement*> dram_ptrs_;
  Eval ev_;
  std::uint64_t marked_links_ = 0;

  EngineStats stats_;
};

}  // namespace pap::admit
