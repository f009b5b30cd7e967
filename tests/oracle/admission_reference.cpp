#include "oracle/admission_reference.hpp"

#include <string>
#include <utility>

namespace pap::core::reference {

Expected<AdmissionGrant> BatchAdmission::request(const AppRequirement& req) {
  if (index_.count(req.app) != 0) {
    ++rejections_;
    return Expected<AdmissionGrant>::error("app " + std::to_string(req.app) +
                                           " already admitted");
  }

  // Route computation (Sec. IV): try the requested dimension order first;
  // if the proof fails, retry on the flipped order — the minimal
  // alternative route through the other dimension's links.
  std::string first_error;
  for (int attempt = 0; attempt < 2; ++attempt) {
    AppRequirement candidate = req;
    if (attempt == 1) {
      candidate.route_order =
          req.route_order == noc::Mesh2D::RouteOrder::kXY
              ? noc::Mesh2D::RouteOrder::kYX
              : noc::Mesh2D::RouteOrder::kXY;
    }
    tentative_ = admitted_;
    tentative_.push_back(candidate);

    // Every application — existing and new — must keep a proven bound.
    analysis_.e2e_bounds_into(tentative_, &bounds_);
    std::string error;
    for (std::size_t i = 0; i < tentative_.size(); ++i) {
      const auto& a = tentative_[i];
      if (!bounds_[i]) {
        error = "admitting '" + req.name + "' would leave '" + a.name +
                "' without a bounded end-to-end delay (resource saturated)";
        break;
      }
      if (*bounds_[i] > a.deadline) {
        error = "admitting '" + req.name + "' would break '" + a.name +
                "': bound " + bounds_[i]->to_string() + " > deadline " +
                a.deadline.to_string();
        break;
      }
    }
    if (!error.empty()) {
      if (attempt == 0) first_error = std::move(error);
      continue;
    }

    // The tentative bounds are exactly the new mix's bounds.
    std::swap(admitted_, tentative_);
    std::swap(admitted_bounds_, bounds_);
    index_.emplace(req.app, admitted_.size() - 1);
    ++admissions_;
    AdmissionGrant grant;
    grant.app = req.app;
    grant.noc_shaper = req.traffic;  // the contract becomes the enforced rate
    grant.e2e_bound = *admitted_bounds_.back();
    grant.route_order = admitted_.back().route_order;
    return grant;
  }
  ++rejections_;
  return Expected<AdmissionGrant>::error(first_error +
                                         " (alternate route also fails)");
}

Status BatchAdmission::release(noc::AppId app) {
  const auto it = index_.find(app);
  if (it == index_.end()) {
    return Status::error("app " + std::to_string(app) + " not admitted");
  }
  const std::size_t pos = it->second;
  admitted_.erase(admitted_.begin() + static_cast<std::ptrdiff_t>(pos));
  index_.erase(it);
  for (auto& [a, p] : index_) {
    if (p > pos) --p;
  }
  // Refresh the cached bounds under the shrunken mix.
  analysis_.e2e_bounds_into(admitted_, &bounds_);
  std::swap(admitted_bounds_, bounds_);
  return Status::ok();
}

std::optional<Time> BatchAdmission::current_bound(noc::AppId app) const {
  const auto it = index_.find(app);
  if (it == index_.end()) return std::nullopt;
  return admitted_bounds_[it->second];
}

}  // namespace pap::core::reference
