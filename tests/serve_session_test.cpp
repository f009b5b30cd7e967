// Stateful admission sessions over the serving layer (serve/sessions.hpp).
//
// The load-bearing properties: session ops bypass every caching tier (two
// byte-identical admit requests are different decisions against evolving
// state), replies are deterministic functions of the session history, the
// session's decisions through the service door match the batch oracle's,
// and the caps in HandlerLimits turn into typed overload replies
// rather than unbounded state.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "noc/topology.hpp"
#include "oracle/admission_reference.hpp"
#include "serve/service.hpp"
#include "serve/sessions.hpp"

namespace pap::serve {
namespace {

std::string line(int id, const std::string& op, const std::string& params) {
  return "{\"id\":" + std::to_string(id) + ",\"op\":\"" + op +
         "\",\"params\":{" + params + "}}";
}

std::string admit_params(int session, int app, double rate, int sx, int sy,
                         int dx, int dy, double deadline_ns = 2000.0) {
  return "\"session\":" + std::to_string(session) +
         ",\"app\":" + std::to_string(app) +
         ",\"rate\":" + std::to_string(rate) + ",\"src_x\":" +
         std::to_string(sx) + ",\"src_y\":" + std::to_string(sy) +
         ",\"dst_x\":" + std::to_string(dx) + ",\"dst_y\":" +
         std::to_string(dy) + ",\"deadline_ns\":" + std::to_string(deadline_ns);
}

std::uint64_t counter(const AnalysisService& svc, const std::string& name) {
  const auto e = svc.counters().sample("serve", name);
  return e ? static_cast<std::uint64_t>(e->value) : 0u;
}

TEST(ServeSession, LifecycleThroughTheService) {
  ServiceConfig cfg;
  cfg.workers = 2;
  AnalysisService svc(cfg);

  const std::string open = svc.handle(
      line(1, "admission_open", "\"mesh_cols\":4,\"mesh_rows\":4"));
  EXPECT_NE(open.find("\"id\":1,\"ok\":true"), open.npos) << open;
  EXPECT_NE(open.find("\"session\":1"), open.npos) << open;
  EXPECT_NE(open.find("\"engine\":\"incremental\""), open.npos) << open;

  const std::string admit =
      svc.handle(line(2, "admission_admit", admit_params(1, 7, 0.01, 0, 0, 3, 3)));
  EXPECT_NE(admit.find("\"ok\":true"), admit.npos) << admit;
  EXPECT_NE(admit.find("\"admitted\":true"), admit.npos) << admit;
  EXPECT_NE(admit.find("\"bound\":"), admit.npos) << admit;
  EXPECT_NE(admit.find("\"shaper_rate\":"), admit.npos) << admit;
  EXPECT_NE(admit.find("\"route_order\":\"xy\""), admit.npos) << admit;

  const std::string stats =
      svc.handle(line(3, "admission_stats", "\"session\":1"));
  EXPECT_NE(stats.find("\"flows\":1"), stats.npos) << stats;
  EXPECT_NE(stats.find("\"decisions\":1"), stats.npos) << stats;
  EXPECT_NE(stats.find("\"admissions\":1"), stats.npos) << stats;
  EXPECT_NE(stats.find("\"live_links\":"), stats.npos) << stats;

  const std::string release = svc.handle(
      line(4, "admission_release", "\"session\":1,\"app\":7"));
  EXPECT_NE(release.find("\"released\":true"), release.npos) << release;

  // Stats is a read-only op: only admit and release count as decisions.
  const std::string close =
      svc.handle(line(5, "admission_close", "\"session\":1"));
  EXPECT_NE(close.find("\"decisions\":2"), close.npos) << close;

  // The session is gone: further ops are typed bad_request errors.
  const std::string gone =
      svc.handle(line(6, "admission_stats", "\"session\":1"));
  EXPECT_NE(gone.find("\"code\":\"bad_request\""), gone.npos) << gone;
  EXPECT_NE(gone.find("unknown session 1"), gone.npos) << gone;
}

TEST(ServeSession, IdenticalAdmitLinesAreDistinctDecisionsNotCacheHits) {
  ServiceConfig cfg;
  cfg.workers = 1;
  AnalysisService svc(cfg);
  (void)svc.handle(line(1, "admission_open", ""));

  // Byte-identical params twice. A cached (or coalesced) reply would
  // repeat "admitted":true; the live controller rejects the duplicate id.
  const std::string params = admit_params(1, 5, 0.01, 0, 0, 2, 2);
  const std::string first = svc.handle(line(2, "admission_admit", params));
  const std::string second = svc.handle(line(2, "admission_admit", params));
  EXPECT_NE(first.find("\"admitted\":true"), first.npos) << first;
  EXPECT_NE(second.find("\"admitted\":false"), second.npos) << second;
  EXPECT_NE(second.find("already admitted"), second.npos) << second;
  EXPECT_EQ(counter(svc, "admission_admit/cache_hits"), 0u);
  EXPECT_EQ(counter(svc, "admission_admit/coalesced"), 0u);
  EXPECT_EQ(counter(svc, "admission_admit/requests"), 2u);
  EXPECT_EQ(counter(svc, "admission_admit/ok"), 2u);
}

TEST(ServeSession, IncrementalAndBatchEnginesAnswerByteIdentically) {
  ServiceConfig cfg;
  cfg.workers = 1;
  AnalysisService svc(cfg);
  (void)svc.handle(line(1, "admission_open", "\"engine\":\"incremental\""));
  // papd serves only the incremental engine; batch is a test-only oracle.
  const std::string batch_open =
      svc.handle(line(2, "admission_open", "\"engine\":\"batch\""));
  EXPECT_NE(batch_open.find("\"code\":\"bad_request\""), batch_open.npos)
      << batch_open;
  EXPECT_NE(batch_open.find("'engine' must be \\\"incremental\\\""),
            batch_open.npos)
      << batch_open;

  // A deterministic mix of admits (some duplicates, some saturating) and
  // releases, driven into the session and into the batch oracle; every
  // reply must carry the oracle's decision, bound and reason.
  core::PlatformModel model;
  model.noc.cols = 4;
  model.noc.rows = 4;
  core::reference::BatchAdmission oracle(model);
  noc::Mesh2D mesh(4, 4);
  std::uint32_t lcg = 1234567u;
  auto next = [&lcg] { return lcg = lcg * 1664525u + 1013904223u; };
  for (int i = 0; i < 60; ++i) {
    const int app = 1 + static_cast<int>(next() % 12);
    if (next() % 4 == 0) {
      const std::string a = svc.handle(
          line(100 + i, "admission_release",
               "\"session\":1,\"app\":" + std::to_string(app)));
      const Status want = oracle.release(static_cast<noc::AppId>(app));
      EXPECT_NE(a.find(want.is_ok() ? "\"released\":true"
                                    : "\"released\":false"),
                a.npos)
          << "decision " << i << ": " << a;
      if (!want.is_ok()) {
        EXPECT_NE(a.find("\"reason\":" + exp::Value{want.message()}.json()),
                  a.npos)
            << "decision " << i << ": " << a;
      }
      continue;
    }
    const double rate = 0.005 + 0.005 * static_cast<double>(next() % 10);
    const int sx = static_cast<int>(next() % 4);
    const int sy = static_cast<int>(next() % 4);
    const int dx = static_cast<int>(next() % 4);
    const int dy = static_cast<int>(next() % 4);
    const std::string a = svc.handle(line(
        100 + i, "admission_admit",
        admit_params(1, app, rate, sx, sy, dx, dy, 900.0)));
    // The request exactly as the session builds it from those params.
    core::AppRequirement req;
    req.app = static_cast<noc::AppId>(app);
    req.name = "app" + std::to_string(app);
    req.traffic = nc::TokenBucket{1.0, std::stod(std::to_string(rate))};
    req.src = mesh.node(sx, sy);
    req.dst = mesh.node(dx, dy);
    req.deadline = Time::from_ns(900.0);
    req.uses_dram = false;
    const auto want = oracle.request(req);
    if (want) {
      EXPECT_NE(a.find("\"admitted\":true"), a.npos)
          << "decision " << i << ": " << a;
      EXPECT_NE(
          a.find("\"bound\":" + exp::Value{want.value().e2e_bound}.json()),
          a.npos)
          << "decision " << i << ": " << a;
    } else {
      EXPECT_NE(a.find("\"admitted\":false"), a.npos)
          << "decision " << i << ": " << a;
      const std::string reason = exp::Value{want.error_message()}.json();
      EXPECT_NE(a.find("\"reason\":" + reason), a.npos)
          << "decision " << i << ": " << a;
    }
  }
  // The session saw real traffic, not just rejections.
  const std::string sa = svc.handle(line(901, "admission_stats", "\"session\":1"));
  EXPECT_NE(sa.find("\"engine\":\"incremental\""), sa.npos) << sa;
  EXPECT_EQ(sa.find("\"admissions\":0"), sa.npos) << sa;
  EXPECT_NE(sa.find("\"admissions\":" + std::to_string(oracle.admissions())),
            sa.npos)
      << sa;
}

TEST(ServeSession, CapsComeBackAsTypedOverloads) {
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.handlers.max_sessions = 2;
  cfg.handlers.max_session_flows = 2;
  AnalysisService svc(cfg);

  EXPECT_NE(svc.handle(line(1, "admission_open", "")).find("\"ok\":true"),
            std::string::npos);
  EXPECT_NE(svc.handle(line(2, "admission_open", "")).find("\"ok\":true"),
            std::string::npos);
  const std::string third = svc.handle(line(3, "admission_open", ""));
  EXPECT_NE(third.find("\"code\":\"overloaded\""), third.npos) << third;
  EXPECT_NE(third.find("session cap reached (2 open)"), third.npos) << third;

  // Closing one frees the slot.
  (void)svc.handle(line(4, "admission_close", "\"session\":2"));
  EXPECT_NE(svc.handle(line(5, "admission_open", "")).find("\"ok\":true"),
            std::string::npos);

  // Flow cap: the third resident flow is refused before analysis runs.
  (void)svc.handle(line(6, "admission_admit", admit_params(1, 1, 0.001, 0, 0, 1, 0)));
  (void)svc.handle(line(7, "admission_admit", admit_params(1, 2, 0.001, 0, 1, 1, 1)));
  const std::string full =
      svc.handle(line(8, "admission_admit", admit_params(1, 3, 0.001, 0, 2, 1, 2)));
  EXPECT_NE(full.find("\"code\":\"overloaded\""), full.npos) << full;
  EXPECT_NE(full.find("session flow cap reached (2)"), full.npos) << full;
  // A release makes room again.
  (void)svc.handle(line(9, "admission_release", "\"session\":1,\"app\":1"));
  const std::string retry =
      svc.handle(line(10, "admission_admit", admit_params(1, 3, 0.001, 0, 2, 1, 2)));
  EXPECT_NE(retry.find("\"admitted\":true"), retry.npos) << retry;
}

TEST(ServeSession, ParametersAreStrictlyValidated) {
  ServiceConfig cfg;
  cfg.workers = 1;
  AnalysisService svc(cfg);
  (void)svc.handle(line(1, "admission_open", "\"mesh_cols\":3,\"mesh_rows\":3"));

  const std::string bad_engine =
      svc.handle(line(2, "admission_open", "\"engine\":\"oracle\""));
  EXPECT_NE(bad_engine.find("'engine' must be \\\"incremental\\\""),
            bad_engine.npos)
      << bad_engine;

  const std::string unknown_key = svc.handle(
      line(3, "admission_admit",
           admit_params(1, 1, 0.01, 0, 0, 1, 1) + ",\"typo\":1"));
  EXPECT_NE(unknown_key.find("unknown parameter 'typo'"), unknown_key.npos)
      << unknown_key;

  const std::string off_mesh = svc.handle(
      line(4, "admission_admit", admit_params(1, 1, 0.01, 0, 0, 5, 0)));
  EXPECT_NE(off_mesh.find("outside the session's 3x3 mesh"), off_mesh.npos)
      << off_mesh;

  const std::string no_session =
      svc.handle(line(5, "admission_stats", "\"session\":42"));
  EXPECT_NE(no_session.find("unknown session 42"), no_session.npos)
      << no_session;

  const std::string missing =
      svc.handle(line(6, "admission_admit", "\"session\":1,\"app\":1"));
  EXPECT_NE(missing.find("\"code\":\"bad_request\""), missing.npos) << missing;

  const std::string bad_order = svc.handle(
      line(7, "admission_admit",
           admit_params(1, 1, 0.01, 0, 0, 1, 1) + ",\"route_order\":\"zz\""));
  EXPECT_NE(bad_order.find("must be \\\"xy\\\" or \\\"yx\\\""), bad_order.npos)
      << bad_order;
}

TEST(ServeSession, StatsJsonListsSessionEndpointsAndOpenCount) {
  ServiceConfig cfg;
  cfg.workers = 1;
  AnalysisService svc(cfg);
  (void)svc.handle(line(1, "admission_open", ""));
  const std::string stats = svc.stats_json();
  EXPECT_NE(stats.find("\"open_sessions\":1"), stats.npos) << stats;
  for (const auto& op : SessionRegistry::session_ops()) {
    EXPECT_NE(stats.find("\"" + op + "\":{"), stats.npos) << op;
  }
  EXPECT_NE(stats.find("\"admission_open\":{\"requests\":1,\"ok\":1"),
            stats.npos)
      << stats;
}

TEST(ServeSession, RegistryIsDirectlyDrivable) {
  HandlerLimits limits;
  SessionRegistry reg(limits);
  EXPECT_TRUE(SessionRegistry::is_session_op("admission_admit"));
  EXPECT_FALSE(SessionRegistry::is_session_op("admission_check"));
  EXPECT_EQ(reg.open_sessions(), 0u);

  exp::Params open;
  const auto opened = reg.dispatch("admission_open", open);
  ASSERT_TRUE(opened.ok);
  EXPECT_EQ(opened.result.at("session").as_int(), 1);
  EXPECT_EQ(reg.open_sessions(), 1u);

  // Session ids are never reused: determinism of id assignment is part of
  // the replayable-transcript contract.
  exp::Params close;
  close.set("session", exp::Value{static_cast<std::int64_t>(1)});
  ASSERT_TRUE(reg.dispatch("admission_close", close).ok);
  const auto reopened = reg.dispatch("admission_open", open);
  ASSERT_TRUE(reopened.ok);
  EXPECT_EQ(reopened.result.at("session").as_int(), 2);
}

}  // namespace
}  // namespace pap::serve
