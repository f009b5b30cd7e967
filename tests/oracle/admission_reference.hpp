// The batch admission engine: the original re-prove-everything form of
// core::AdmissionController (test-only oracle library; nothing under src/
// links it).
//
// Every decision appends the candidate to the admitted vector and runs one
// E2eAnalysis::e2e_bounds_into pass over the whole tentative set, so it is
// O(admitted flows) per decision and needs no state beyond that vector and
// the last pass's bounds. The incremental engine behind the controller
// (admit::IncrementalAdmission) must take exactly the decisions this takes
// — same grants, same rejection strings, bounds equal to the picosecond —
// which tests/admit_incremental_test.cpp, tests/rm_federation_test.cpp,
// tests/serve_session_test.cpp and the engine=batch axis of
// bench/admission_churn check.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/status.hpp"
#include "core/e2e_analysis.hpp"
#include "core/qos_spec.hpp"

namespace pap::core::reference {

class BatchAdmission {
 public:
  explicit BatchAdmission(PlatformModel model) : analysis_(std::move(model)) {}

  /// Admit `req` iff every admitted flow, the newcomer included, keeps a
  /// proven bound within its deadline; on failure retry once on the
  /// flipped dimension order.
  Expected<AdmissionGrant> request(const AppRequirement& req);

  /// Remove an admitted app and re-prove the remaining set.
  Status release(noc::AppId app);

  /// Bound of an admitted app under the current mix (the last full pass).
  std::optional<Time> current_bound(noc::AppId app) const;

  /// Admitted applications in admission order.
  const std::vector<AppRequirement>& admitted() const { return admitted_; }
  std::size_t size() const { return admitted_.size(); }

  std::uint64_t admissions() const { return admissions_; }
  std::uint64_t rejections() const { return rejections_; }

 private:
  E2eAnalysis analysis_;
  std::vector<AppRequirement> admitted_;
  /// App-id -> position in admitted_.
  std::unordered_map<noc::AppId, std::size_t> index_;
  /// Bounds of admitted_ under the current mix, parallel to admitted_.
  std::vector<std::optional<Time>> admitted_bounds_;
  /// Decision scratch, reused across request() calls.
  std::vector<AppRequirement> tentative_;
  std::vector<std::optional<Time>> bounds_;
  std::uint64_t admissions_ = 0;
  std::uint64_t rejections_ = 0;
};

}  // namespace pap::core::reference
