#include "serve/sessions.hpp"

#include <algorithm>

#include "noc/topology.hpp"
#include "serve/param_reader.hpp"

namespace pap::serve {

namespace {

HandlerOutcome bad(const std::string& msg) {
  return HandlerOutcome::fail(ErrorCode::kBadRequest, msg);
}

}  // namespace

bool SessionRegistry::is_session_op(const std::string& op) {
  const auto& ops = session_ops();
  return std::find(ops.begin(), ops.end(), op) != ops.end();
}

const std::vector<std::string>& SessionRegistry::session_ops() {
  static const std::vector<std::string> kOps{
      "admission_open", "admission_admit", "admission_release",
      "admission_stats", "admission_close"};
  return kOps;
}

HandlerOutcome SessionRegistry::dispatch(const std::string& op,
                                         const exp::Params& params) {
  if (op == "admission_open") return open(params);
  if (op == "admission_admit") return admit(params);
  if (op == "admission_release") return release(params);
  if (op == "admission_stats") return stats(params);
  if (op == "admission_close") return close(params);
  return bad("unknown op '" + op + "'");
}

std::size_t SessionRegistry::open_sessions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.size();
}

std::shared_ptr<SessionRegistry::Session> SessionRegistry::find(
    std::int64_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : it->second;
}

HandlerOutcome SessionRegistry::open(const exp::Params& params) {
  ParamReader r(params);
  const int cols = static_cast<int>(
      r.get_int("mesh_cols", 4, 2, limits_.max_mesh_dim));
  const int rows = static_cast<int>(
      r.get_int("mesh_rows", 4, 2, limits_.max_mesh_dim));
  const std::string engine = r.get_string("engine", "incremental");
  r.finish();
  if (r.failed()) return bad(r.error());
  if (engine != "incremental") {
    return bad("'engine' must be \"incremental\"");
  }

  core::PlatformModel model;
  model.noc.cols = cols;
  model.noc.rows = rows;

  std::int64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (static_cast<int>(sessions_.size()) >= limits_.max_sessions) {
      return HandlerOutcome::fail(
          ErrorCode::kOverloaded,
          "session cap reached (" + std::to_string(limits_.max_sessions) +
              " open); close one first");
    }
    id = next_id_++;
    sessions_.emplace(id, std::make_shared<Session>(std::move(model)));
  }

  exp::Result out("admission_open");
  out.add("session", id).add("engine", engine);
  out.add("mesh_cols", static_cast<std::int64_t>(cols));
  out.add("mesh_rows", static_cast<std::int64_t>(rows));
  return HandlerOutcome::success(std::move(out));
}

HandlerOutcome SessionRegistry::admit(const exp::Params& params) {
  ParamReader r(params);
  r.require("session");
  const std::int64_t sid = r.get_int("session", 0, 1, INT64_MAX);
  r.require("app");
  const std::int64_t app_id = r.get_int("app", 0, 1, 1 << 30);
  const double burst = r.get_double("burst", 1.0, 0.0, 1e6);
  r.require("rate");
  const double rate = r.get_double("rate", 0.0, 0.0, 1e6);
  // Coordinate ranges are validated against the session's mesh below.
  const int sx = static_cast<int>(r.get_int("src_x", 0, 0, 1 << 16));
  const int sy = static_cast<int>(r.get_int("src_y", 0, 0, 1 << 16));
  const int dx = static_cast<int>(r.get_int("dst_x", 0, 0, 1 << 16));
  const int dy = static_cast<int>(r.get_int("dst_y", 0, 0, 1 << 16));
  const double deadline_ns =
      r.get_double("deadline_ns", 2000.0, 0.001, 1e12);
  const bool uses_dram = r.get_bool("uses_dram", false);
  const std::string order = r.get_string("route_order", "xy");
  r.finish();
  if (r.failed()) return bad(r.error());
  if (order != "xy" && order != "yx") {
    return bad("'route_order' must be \"xy\" or \"yx\"");
  }

  auto session = find(sid);
  if (!session) return bad("unknown session " + std::to_string(sid));
  std::lock_guard<std::mutex> lock(session->mu);

  const auto& noc = session->engine.analysis().model().noc;
  if (sx >= noc.cols || dx >= noc.cols || sy >= noc.rows || dy >= noc.rows) {
    return bad("src/dst outside the session's " + std::to_string(noc.cols) +
               "x" + std::to_string(noc.rows) + " mesh");
  }
  if (session->engine.size() >=
      static_cast<std::size_t>(limits_.max_session_flows)) {
    return HandlerOutcome::fail(
        ErrorCode::kOverloaded,
        "session flow cap reached (" +
            std::to_string(limits_.max_session_flows) + ")");
  }

  noc::Mesh2D mesh(noc.cols, noc.rows);
  core::AppRequirement a;
  a.app = static_cast<noc::AppId>(app_id);
  a.name = "app" + std::to_string(a.app);
  a.traffic = nc::TokenBucket{burst, rate};
  a.src = mesh.node(sx, sy);
  a.dst = mesh.node(dx, dy);
  a.deadline = Time::from_ns(deadline_ns);
  a.uses_dram = uses_dram;
  if (order == "yx") a.route_order = noc::Mesh2D::RouteOrder::kYX;

  ++session->decisions;
  const auto grant = session->engine.request(a);

  exp::Result out("admission_admit");
  out.add("app", app_id);
  if (grant) {
    out.add("admitted", true);
    out.add("bound", grant.value().e2e_bound);
    out.add("shaper_rate", exp::Value{grant.value().noc_shaper.rate, 6});
    out.add("route_order",
            grant.value().route_order == noc::Mesh2D::RouteOrder::kXY
                ? std::string("xy")
                : std::string("yx"));
  } else {
    out.add("admitted", false);
    out.add("reason", grant.error_message());
  }
  return HandlerOutcome::success(std::move(out));
}

HandlerOutcome SessionRegistry::release(const exp::Params& params) {
  ParamReader r(params);
  r.require("session");
  const std::int64_t sid = r.get_int("session", 0, 1, INT64_MAX);
  r.require("app");
  const std::int64_t app_id = r.get_int("app", 0, 1, 1 << 30);
  r.finish();
  if (r.failed()) return bad(r.error());

  auto session = find(sid);
  if (!session) return bad("unknown session " + std::to_string(sid));
  std::lock_guard<std::mutex> lock(session->mu);

  ++session->decisions;
  const Status s =
      session->engine.release(static_cast<noc::AppId>(app_id));

  exp::Result out("admission_release");
  out.add("app", app_id);
  out.add("released", s.is_ok());
  if (!s.is_ok()) out.add("reason", s.message());
  return HandlerOutcome::success(std::move(out));
}

HandlerOutcome SessionRegistry::stats(const exp::Params& params) {
  ParamReader r(params);
  r.require("session");
  const std::int64_t sid = r.get_int("session", 0, 1, INT64_MAX);
  r.finish();
  if (r.failed()) return bad(r.error());

  auto session = find(sid);
  if (!session) return bad("unknown session " + std::to_string(sid));
  std::lock_guard<std::mutex> lock(session->mu);

  exp::Result out("admission_stats");
  const auto s = session->engine.stats();
  out.add("engine", std::string("incremental"));
  out.add("flows", static_cast<std::int64_t>(s.live_flows));
  out.add("decisions", static_cast<std::int64_t>(session->decisions));
  out.add("admissions", static_cast<std::int64_t>(s.admissions));
  out.add("rejections", static_cast<std::int64_t>(s.rejections));
  out.add("releases", static_cast<std::int64_t>(s.releases));
  out.add("live_links", static_cast<std::int64_t>(s.live_links));
  out.add("dirty_flows_total", static_cast<std::int64_t>(s.dirty_flows_total));
  out.add("dirty_links_total", static_cast<std::int64_t>(s.dirty_links_total));
  out.add("last_dirty_flows", static_cast<std::int64_t>(s.last_dirty_flows));
  out.add("last_dirty_links", static_cast<std::int64_t>(s.last_dirty_links));
  return HandlerOutcome::success(std::move(out));
}

HandlerOutcome SessionRegistry::close(const exp::Params& params) {
  ParamReader r(params);
  r.require("session");
  const std::int64_t sid = r.get_int("session", 0, 1, INT64_MAX);
  r.finish();
  if (r.failed()) return bad(r.error());

  std::shared_ptr<Session> session;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = sessions_.find(sid);
    if (it == sessions_.end()) {
      return bad("unknown session " + std::to_string(sid));
    }
    session = std::move(it->second);
    sessions_.erase(it);
  }
  // An op racing close may still hold the shared_ptr; it completes against
  // the detached session and the state dies with the last reference.
  std::lock_guard<std::mutex> lock(session->mu);
  exp::Result out("admission_close");
  out.add("session", sid);
  out.add("decisions", static_cast<std::int64_t>(session->decisions));
  return HandlerOutcome::success(std::move(out));
}

}  // namespace pap::serve
