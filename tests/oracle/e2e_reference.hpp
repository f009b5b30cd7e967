// The per-flow end-to-end pipeline: the original vector-based form of
// core::E2eAnalysis::e2e_bounds_into (test-only oracle library; nothing
// under src/ links it).
//
// One flow at a time: assemble the flow set, propagate bursts over
// per-flow path vectors, build the residual NoC chain and the DRAM residual
// through the owning nc::Curve API, and take the horizontal deviation. It
// repeats the whole burst fixpoint for every flow, which is why the library
// shares it across the set; the arithmetic is the same, so
// e2e_bound(e, flows[i], flows) equals e.e2e_bounds_into(flows)[i] to the
// picosecond (tests/core_e2e_test.cpp pins it, bench/perf_report times it
// against the library as BM_E2eBoundsPerFlow).
#pragma once

#include <optional>
#include <vector>

#include "common/time.hpp"
#include "core/e2e_analysis.hpp"
#include "core/qos_spec.hpp"

namespace pap::core::reference {

/// End-to-end bound of `req` (NoC path, plus the DRAM when it uses it)
/// against the admitted set `others`; `req` may or may not appear in
/// `others`. Empty when no bound exists.
std::optional<Time> e2e_bound(const E2eAnalysis& e, const AppRequirement& req,
                              const std::vector<AppRequirement>& others);

}  // namespace pap::core::reference
