// The pre-optimization DRAM service-curve construction (test-only oracle
// library; nothing under src/ links it).
//
// One cold fixpoint per queue position — WcdAnalysis::bounds(n) for
// n = 1..max_n, O(max_n * iterations) — joined into a curve with the same
// tail rule as WcdAnalysis::service_curve. The library's incremental
// construction warm-starts each position from the previous one and must
// produce the identical curve (Time is integer picoseconds), which
// tests/dram_wcd_test.cpp checks exactly; bench/perf_report times the two
// against each other.
#pragma once

#include "dram/wcd.hpp"
#include "nc/curve.hpp"

namespace pap::dram::reference {

nc::Curve service_curve(const WcdAnalysis& analysis, int max_n);

}  // namespace pap::dram::reference
