// End-to-end admission control (Section V, Fig. 6).
//
// "Admission control can be used as an alternative method to provide
// applications with a global resource arbitration. It allows to decouple
// the data layer where transmission is performed, from the control layer
// responsible for allocation and arbitration of available resources. ...
// Whenever an application is granted admission, E2E access allocation of a
// sequence of shared network and memory resources is achieved."
//
// The controller admits an application iff, *with the newcomer included*,
// every admitted application still has a proven end-to-end delay bound
// within its deadline — computed with the compositional NC analysis of
// e2e_analysis.hpp. On admission it returns the shaper parameters every
// enforcement point must be programmed with (the rates the RM distributes
// via confMsg).
//
// The proof engine is admit::IncrementalAdmission: it keeps the converged
// fixpoint state resident and re-proves only the decision's dirty
// component, taking exactly the decisions a full re-proof of every flow
// would take (docs/admission.md; the full re-proof is the test-only oracle
// core::reference::BatchAdmission).
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "admit/incremental.hpp"
#include "common/status.hpp"
#include "core/e2e_analysis.hpp"
#include "core/qos_spec.hpp"

namespace pap::core {

/// One engine; the enum is kept because perfbench/ names it.
enum class AdmissionEngine { kIncremental };

class AdmissionController {
 public:
  explicit AdmissionController(
      PlatformModel model, AdmissionEngine = AdmissionEngine::kIncremental)
      : engine_(std::move(model)) {}

  /// Try to admit `req`. On success the grant is recorded and returned;
  /// on failure the error names the application whose guarantee would
  /// break (possibly the newcomer itself).
  Expected<AdmissionGrant> request(const AppRequirement& req) {
    return engine_.request(req);
  }

  /// Release a previously admitted application (terMsg processing).
  Status release(noc::AppId app) { return engine_.release(app); }

  /// Bound of an admitted app under the current mix, served from the
  /// engine's cache (no re-analysis).
  std::optional<Time> current_bound(noc::AppId app) const {
    return engine_.current_bound(app);
  }

  /// Admitted applications in admission order. O(admitted).
  std::vector<AppRequirement> admitted() const { return engine_.flows(); }

  /// Kept because perfbench/ reads the engine's stats through it; never null.
  const admit::IncrementalAdmission* incremental() const { return &engine_; }

  /// Number of currently admitted applications. O(1).
  std::size_t size() const { return engine_.size(); }

  std::uint64_t admissions() const { return engine_.stats().admissions; }
  std::uint64_t rejections() const { return engine_.stats().rejections; }

 private:
  admit::IncrementalAdmission engine_;
};

}  // namespace pap::core
