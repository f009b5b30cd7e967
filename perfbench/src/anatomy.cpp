// The traced run: per-layer numbers for every workload.
//
// Spans are recorded from the benchmark's own code around the calls it
// makes into each module's public functions, on a trace::Tracer whose clock
// is steady_clock (set through Tracer::set_clock). Every span of one request
// carries the request's id as its category, so the stages of a request can
// be summed and set against the same request's wire time. Each workload is
// replayed on its own seeded inputs at a fixed size:
//
//   serve_hot    depth-1 wire round trips (pings interleaved) against a
//                warmed papd, then parse and reply rendering in-process
//   serve_cold   depth-1 wire round trips of fresh requests, then parse,
//                dispatch per op, render and the batch AdmissionController
//   admit_churn  the churn transcript at depth 1, then SessionRegistry
//                dispatch, and an incremental AdmissionController replay
//                for its EngineStats
//   sim_families generate / parse / run per member; simulated counters from
//                a subset of members run with a simulated-time tracer
//
// Per-layer metrics are read back from the recorded spans (medians).
#include <fstream>
#include <memory>
#include <unordered_map>

#include "core/admission.hpp"
#include "inputs.hpp"
#include "noc/topology.hpp"
#include "papd.hpp"
#include "scenario/generate.hpp"
#include "scenario/run.hpp"
#include "serve/handlers.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "serve/sessions.hpp"
#include "trace/chrome_trace.hpp"
#include "trace/tracer.hpp"
#include "wire.hpp"
#include "workloads.hpp"

namespace bench {

namespace {

namespace ps = pap::serve;
using pap::Time;

/// Requests per workload replay; pings go out every kPingEvery-th request.
/// Each workload's request ids start at its own base, so span categories
/// (the request ids) never collide across workloads in one trace.
constexpr long kHotRequests = 6000;
constexpr long kColdRequests = 1500;
constexpr long kChurnDecisions = 3000;
constexpr long kSimMembers = 20;
constexpr int kPingEvery = 8;
constexpr long kHotBase = 1000000, kColdBase = 2000000, kChurnBase = 3000000,
               kSimBase = 4000000;
/// Open-loop seconds measured for bench.gen_late_p99_us.
constexpr double kLateProbeSeconds = 1.0;
/// |remainder| may be at most this share of the wire median.
constexpr double kReconTolerance = 0.5;

/// Wall-clock spans on a trace::Tracer.
class Spans {
 public:
  Spans() : t0_(Clock::now()) {
    tracer_.set_clock([t0 = t0_] {
      return Time::ps(std::chrono::duration_cast<std::chrono::nanoseconds>(
                          Clock::now() - t0)
                          .count() *
                      1000);
    });
  }
  bool enabled = true;

  template <typename F>
  auto time(const char* component, const char* name, long id, F&& f) {
    if (!enabled) return f();
    const Time start = tracer_.now();
    auto out = f();
    tracer_.span(start, tracer_.now() - start, component, name,
                 "r" + std::to_string(id));
    return out;
  }

  /// Durations (us) of every span (component, name), and per request id.
  Samples durations(const std::string& component,
                    const std::string& name) const {
    Samples s;
    for (const auto& e : tracer_.events()) {
      if (e.component == component && e.name == name) {
        s.add(static_cast<double>(e.dur_ps) / 1e6);
      }
    }
    return s;
  }
  std::unordered_map<std::string, double> per_request(
      const std::string& component) const {
    std::unordered_map<std::string, double> out;
    for (const auto& e : tracer_.events()) {
      if (e.component.rfind(component, 0) == 0) {
        out[e.category] += static_cast<double>(e.dur_ps) / 1e6;
      }
    }
    return out;
  }
  const pap::trace::Tracer& tracer() const { return tracer_; }

 private:
  Clock::time_point t0_;
  pap::trace::Tracer tracer_;
};

std::string socket_path(const Options& o, const char* tag) {
  return o.workdir + "/trace-" + tag + "-" + std::to_string(::getpid()) +
         ".sock";
}

struct Wire {
  std::vector<std::pair<long, double>> requests;  // id, round trip us
  Samples ping_us;
};

/// Depth-1 round trips of `lines` with a ping every kPingEvery requests.
Wire depth1(ps::Client& client, const std::vector<std::string>& lines,
            Report& r, std::vector<std::string>* replies = nullptr) {
  Wire w;
  long pings = 0;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (i % kPingEvery == 0) {
      const auto t0 = Clock::now();
      auto pong =
          client.call("{\"id\":" + std::to_string(--pings) + ",\"op\":\"ping\"}");
      if (!pong) fail("ping: " + pong.error_message());
      w.ping_us.add(us_between(t0, Clock::now()));
    }
    const auto t0 = Clock::now();
    auto reply = client.call(lines[i]);
    const double us = us_between(t0, Clock::now());
    if (!reply) fail("depth-1: " + reply.error_message());
    ++r.attempted;
    if (!reply_ok(reply.value())) ++r.failed;
    w.requests.emplace_back(reply_id(reply.value()), us);
    if (replies) replies->push_back(std::move(reply.value()));
  }
  return w;
}

/// Per-request reconciliation: a request's wire time against the ping floor
/// (reactor + socket) plus the request's own traced in-process stages. The
/// median remainder is what no traced stage accounts for: on the worker
/// paths (serve_cold, admit_churn) the hand-off from the reactor to a worker
/// and the worker's wake-up, which only tracing inside papd can split out.
void reconcile(const char* workload, const Wire& w, double ping_floor,
               const std::unordered_map<std::string, double>& stages,
               Report& r) {
  Samples wire, staged, remainder;
  for (const auto& [id, us] : w.requests) {
    const auto it = stages.find("r" + std::to_string(id));
    if (it == stages.end()) continue;
    wire.add(us);
    staged.add(it->second);
    remainder.add(us - ping_floor - it->second);
  }
  const double rem = remainder.median();
  const double wire_med = wire.median();
  // Out of tolerance is flagged, not fatal: the remainder grows with host
  // noise, and the traced run's numbers are still what was measured.
  const bool ok = std::abs(rem) <= kReconTolerance * wire_med;
  r.note("%srecon %s: depth-1 wire median %.1f us = ping floor %.1f + stages "
         "(median %.1f) + remainder %.1f us (%.0f%% of wire, tolerance "
         "%.0f%%)",
         ok ? "" : "FLAG ", workload, wire_med, ping_floor, staged.median(),
         rem, 100.0 * rem / wire_med, 100.0 * kReconTolerance);
  r.set(std::string("recon.") + workload + ".remainder_us", rem, "us");
}

/// Count-weighted mean over `ops` of papd's per-op service p50 (parse to
/// rendered result, measured inside papd) minus the in-process median of
/// the matching dispatch spans: queue wait plus whatever else the worker
/// path adds.
double queue_wait(const std::map<std::string, OpStats>& before,
                  const std::map<std::string, OpStats>& after,
                  const Spans& spans, const char* component,
                  const std::vector<std::string>& ops, double* service_p50) {
  double service = 0.0, dispatch = 0.0, n = 0.0;
  for (const auto& op : ops) {
    const auto it = after.find(op);
    if (it == after.end()) continue;
    const auto b = before.find(op);
    const double c =
        it->second.count - (b == before.end() ? 0.0 : b->second.count);
    service += it->second.p50_us * c;
    dispatch += spans.durations(component, op).median() * c;
    n += c;
  }
  if (n == 0) return 0.0;
  if (service_p50) *service_p50 = service / n;
  return (service - dispatch) / n;
}

struct Overhead {
  double untraced_s = 0, traced_s = 0;
};

/// Runs `fn` untraced, traced (the spans the metrics read) and untraced
/// again; the untraced time is the mean of the two untraced passes.
template <typename F>
Overhead overhead(Spans& spans, F&& fn) {
  Overhead o;
  for (int pass = 0; pass < 3; ++pass) {
    spans.enabled = pass == 1;
    const auto t0 = Clock::now();
    fn();
    (pass == 1 ? o.traced_s : o.untraced_s) += seconds_since(t0);
  }
  o.untraced_s /= 2;
  spans.enabled = true;
  return o;
}

/// Open-loop probe of the generator's own lateness.
double late_probe(const std::string& socket, double rate, const LineFn& make,
                  long first_id, Report& r) {
  const ReplyFn ok = [](long, std::string_view reply) {
    return reply_ok(reply);
  };
  PhaseResult p = run_open(socket, kConnections, rate, kLateProbeSeconds,
                           first_id, make, ok);
  r.attempted += p.sent;
  r.failed += p.failed;
  return p.late_us.quantile(0.99);
}

// ---- serve_hot -------------------------------------------------------------

void hot(const Options& o, Spans& spans, Report& r, Overhead* ov) {
  const auto pop = hot_population(o.seed);
  Papd papd(o.papd, socket_path(o, "hot"));
  auto client = papd.connect();
  std::unordered_map<std::string, std::string> payload;  // key -> result
  for (std::size_t m = 0; m < pop.size(); ++m) {
    const std::string line = with_id(static_cast<long>(m), pop[m]);
    auto reply = client.call(line);
    if (!reply) fail("warm-up: " + reply.error_message());
    const auto req = ps::parse_request(line).value();
    const auto out = ps::dispatch(req.op, req.params, ps::HandlerLimits{});
    payload[req.key()] = ps::render_result(out.result);
  }
  std::vector<std::string> lines;
  for (long i = 0; i < kHotRequests; ++i) {
    lines.push_back(with_id(kHotBase + i, pop[hot_member(o.seed, i)]));
  }
  const auto before = parse_stats(papd.stats());
  std::vector<std::string> replies;
  const Wire w = depth1(client, lines, r, &replies);
  const auto after = parse_stats(papd.stats());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const auto req = ps::parse_request(lines[i]).value();
    if (replies[i] != ps::ok_reply(req.id, payload.at(req.key()))) {
      fail("output mismatch: hot request " + lines[i] + ": papd sent " +
           replies[i]);
    }
  }

  auto replay = [&] {
    std::size_t bytes = 0;
    for (const auto& line : lines) {
      const long id = reply_id(line);
      const std::string key = spans.time("serve.protocol", "parse", id, [&] {
        return ps::parse_request(line).value().key();
      });
      const std::string& result = payload.at(key);
      bytes += spans.time("serve.protocol", "render", id, [&] {
        return ps::ok_reply(id, result);
      }).size();
    }
    return bytes;
  };
  const Overhead oh = overhead(spans, replay);
  if (o.workload == "serve_hot") *ov = oh;

  // Service-internal median: count-weighted per-op p50 from papd stats.
  double service = 0.0, n = 0.0;
  for (const auto& [op, s] : after) {
    service += s.p50_us * s.count;
    n += s.count;
  }
  service = n > 0 ? service / n : 0.0;
  Samples wire;
  for (const auto& [id, us] : w.requests) wire.add(us);
  Samples ping = w.ping_us;
  r.set("serve.server.ping_rtt_us", ping.median(), "us");
  r.set("serve.server.overhead_us", wire.median() - service, "us");
  r.set("serve.protocol.parse_us",
        spans.durations("serve.protocol", "parse").median(), "us");
  const double requests = stats_delta(before, after, &OpStats::requests);
  r.set("serve.service.cache_hit_ratio",
        requests > 0
            ? stats_delta(before, after, &OpStats::cache_hits) / requests
            : 0.0,
        "ratio");
  r.set("serve.service.coalesced",
        stats_delta(before, after, &OpStats::coalesced), "count");
  r.set("serve.service.overloaded",
        stats_delta(before, after, &OpStats::overloaded), "count");
  reconcile("serve_hot", w, ping.median(), spans.per_request("serve."), r);

  const LineFn make = [&](long id, std::string* out) {
    *out = with_id(id, pop[hot_member(o.seed, id)]);
  };
  r.set("bench.gen_late_p99_us",
        late_probe(papd.socket(), kHotRate, make, 1L << 40, r), "us");
}

// ---- serve_cold ------------------------------------------------------------

/// The batch AdmissionController calls admission_check makes, rebuilt from
/// the request parameters the way the handler builds them.
void admission_requests(const pap::exp::Params& p, long id, Spans& spans) {
  namespace core = pap::core;
  const int cols = static_cast<int>(p.get_int("mesh_cols"));
  const int rows = static_cast<int>(p.get_int("mesh_rows"));
  core::PlatformModel model;
  model.noc.cols = cols;
  model.noc.rows = rows;
  pap::noc::Mesh2D mesh(cols, rows);
  core::AdmissionController ac(model);
  for (int i = 0;; ++i) {
    const std::string k = "apps." + std::to_string(i) + ".";
    if (p.find(k + "rate") == nullptr) break;
    core::AppRequirement a;
    a.app = static_cast<pap::noc::AppId>(i + 1);
    a.name = "app" + std::to_string(a.app);
    a.traffic.burst = p.get_double(k + "burst");
    a.traffic.rate = p.get_double(k + "rate");
    a.src = mesh.node(static_cast<int>(p.get_int(k + "src_x")),
                      static_cast<int>(p.get_int(k + "src_y")));
    a.dst = mesh.node(static_cast<int>(p.get_int(k + "dst_x")),
                      static_cast<int>(p.get_int(k + "dst_y")));
    a.deadline = Time::from_ns(p.get_double(k + "deadline_ns"));
    a.uses_dram = p.get_bool(k + "uses_dram");
    if (p.get_bool(k + "critical")) a.asil = pap::sched::Asil::kC;
    spans.time("core", "admission_request", id, [&] {
      return ac.request(a).has_value();
    });
  }
}

void cold(const Options& o, Spans& spans, Report& r, Overhead* ov) {
  Papd papd(o.papd, socket_path(o, "cold"));
  auto client = papd.connect();
  std::vector<std::string> lines;
  for (long i = 0; i < kColdRequests; ++i) {
    lines.push_back(with_id(kColdBase + i, cold_body(o.seed, i)));
  }
  const auto before = parse_stats(papd.stats());
  std::vector<std::string> replies;
  const Wire w = depth1(client, lines, r, &replies);
  const auto after = parse_stats(papd.stats());

  std::vector<std::string> rendered(lines.size());
  std::size_t key_bytes = 0;
  auto replay = [&] {
    for (std::size_t i = 0; i < lines.size(); ++i) {
      const long id = kColdBase + static_cast<long>(i);
      const auto req = spans.time("serve.protocol", "parse", id, [&] {
        auto q = ps::parse_request(lines[i]).value();
        key_bytes += q.key().size();
        return q;
      });
      const char* op = req.op == "admission_check" ? "admission_check"
                       : req.op == "wcd_bound"     ? "wcd_bound"
                                                   : "nc_delay";
      const auto out = spans.time("serve.handlers", op, id, [&] {
        return ps::dispatch(req.op, req.params, ps::HandlerLimits{});
      });
      rendered[i] = spans.time("serve.protocol", "render", id, [&] {
        return ps::ok_reply(id, ps::render_result(out.result));
      });
    }
    return 0;
  };
  const Overhead oh = overhead(spans, replay);
  if (o.workload == "serve_cold") *ov = oh;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (rendered[i] != replies[i]) {
      fail("output mismatch: cold request " + std::to_string(i) +
           ": papd sent " + replies[i] + " in-process gives " + rendered[i]);
    }
  }
  // The handler's batch engine; its "core" spans stay out of the "serve."
  // stage sums of the reconciliation (dispatch already contains them).
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const auto req = ps::parse_request(lines[i]).value();
    if (req.op == "admission_check") {
      admission_requests(req.params, kColdBase + static_cast<long>(i), spans);
    }
  }

  const std::vector<std::string> ops{"admission_check", "wcd_bound",
                                     "nc_delay"};
  for (const auto& op : ops) {
    r.set("serve.handlers." + op + "_us",
          spans.durations("serve.handlers", op).median(), "us");
  }
  double service = 0.0;
  const double wait =
      queue_wait(before, after, spans, "serve.handlers", ops, &service);
  r.set("serve.service.latency_p50_us", service, "us");
  r.set("serve.service.queue_wait_us", wait, "us");
  r.set("serve.protocol.render_us",
        spans.durations("serve.protocol", "render").median(), "us");
  r.set("core.admission_request_us",
        spans.durations("core", "admission_request").median(), "us");
  r.metrics["serve.service.coalesced"].value +=
      stats_delta(before, after, &OpStats::coalesced);
  r.metrics["serve.service.overloaded"].value +=
      stats_delta(before, after, &OpStats::overloaded);
  Samples ping = w.ping_us;
  reconcile("serve_cold", w, ping.median(), spans.per_request("serve."), r);
  const LineFn make = [&](long id, std::string* out) {
    *out = with_id(id, cold_body(o.seed, id));
  };
  const double late = late_probe(papd.socket(), kColdRate, make, 1L << 40, r);
  r.note("bench.gen_late_p99_us on serve_cold: %.1f us", late);
}

// ---- admit_churn -----------------------------------------------------------

void churn(const Options& o, Spans& spans, Report& r, Overhead* ov) {
  Papd papd(o.papd, socket_path(o, "churn"));
  auto client = papd.connect();
  ChurnGen gen(o.seed);
  std::vector<std::string> prefill{with_id(kChurnBase, churn_open_body())};
  {
    auto opened = client.call(prefill[0]);
    if (!opened || opened.value().find("\"session\":1") == std::string::npos) {
      fail("admission_open failed");
    }
  }
  for (int i = 0; i < kChurnPrefill; ++i) {
    prefill.push_back(with_id(kChurnBase + static_cast<long>(prefill.size()),
                              gen.next(1, true)));
    auto reply = client.call(prefill.back());
    if (!reply) fail("prefill: " + reply.error_message());
    gen.observe(reply.value());
  }
  // The timed decisions depend on the replies, so they are generated
  // against papd; pings interleave as in depth1().
  const auto before = parse_stats(papd.stats());
  Wire w;
  std::vector<std::string> lines, replies;
  for (long i = 0; i < kChurnDecisions; ++i) {
    if (i % kPingEvery == 0) {
      const auto t0 = Clock::now();
      if (!client.call("{\"id\":0,\"op\":\"ping\"}")) fail("ping failed");
      w.ping_us.add(us_between(t0, Clock::now()));
    }
    const long id = kChurnBase + static_cast<long>(prefill.size()) + i;
    lines.push_back(with_id(id, gen.next(1, false)));
    const auto t0 = Clock::now();
    auto reply = client.call(lines.back());
    const double us = us_between(t0, Clock::now());
    if (!reply) fail("churn: " + reply.error_message());
    ++r.attempted;
    if (!reply_ok(reply.value())) ++r.failed;
    w.requests.emplace_back(id, us);
    gen.observe(reply.value());
    replies.push_back(std::move(reply.value()));
  }
  const auto after = parse_stats(papd.stats());

  auto replay = [&] {
    ps::SessionRegistry registry{ps::HandlerLimits{}};
    for (const auto& line : prefill) {
      const auto q = ps::parse_request(line).value();
      registry.dispatch(q.op, q.params);
    }
    for (std::size_t i = 0; i < lines.size(); ++i) {
      const long id = reply_id(lines[i]);
      const auto q = spans.time("serve.protocol", "parse", id, [&] {
        return ps::parse_request(lines[i]).value();
      });
      const char* op = q.op == "admission_admit" ? "admission_admit"
                                                  : "admission_release";
      const auto out = spans.time("serve.sessions", op, id, [&] {
        return registry.dispatch(q.op, q.params);
      });
      const std::string reply = spans.time("serve.protocol", "render", id, [&] {
        return ps::ok_reply(id, ps::render_result(out.result));
      });
      if (reply != replies[i]) {
        fail("output mismatch at churn decision " + std::to_string(i) +
             ": papd sent " + replies[i] + " in-process gives " + reply);
      }
    }
    return 0;
  };
  const Overhead oh = overhead(spans, replay);
  if (o.workload == "admit_churn") *ov = oh;
  Samples dispatch = spans.durations("serve.sessions", "admission_admit");
  const Samples releases = spans.durations("serve.sessions", "admission_release");
  for (double v : releases.values()) dispatch.add(v);
  r.set("serve.sessions.dispatch_us", dispatch.median(), "us");

  // The incremental engine on its own, replaying the same decisions.
  namespace core = pap::core;
  core::PlatformModel model;
  model.noc.cols = kChurnMesh;
  model.noc.rows = kChurnMesh;
  core::AdmissionController ac(model, core::AdmissionEngine::kIncremental);
  pap::noc::Mesh2D mesh(kChurnMesh, kChurnMesh);
  pap::admit::EngineStats s0;
  long granted = 0, offered = 0;
  auto apply = [&](const std::string& line, long id, bool timed,
                   const std::string* reply) {
    const auto q = ps::parse_request(line).value();
    const auto& p = q.params;
    if (q.op == "admission_release") {
      const auto app = static_cast<pap::noc::AppId>(p.get_int("app"));
      if (!timed) return void(ac.release(app));
      spans.time("admit", "release", id, [&] { return ac.release(app).is_ok(); });
      return;
    }
    if (q.op != "admission_admit") return;
    core::AppRequirement a;
    a.app = static_cast<pap::noc::AppId>(p.get_int("app"));
    a.name = "app" + std::to_string(a.app);
    a.traffic = pap::nc::TokenBucket{p.get_double("burst"), p.get_double("rate")};
    a.src = mesh.node(static_cast<int>(p.get_int("src_x")),
                      static_cast<int>(p.get_int("src_y")));
    a.dst = mesh.node(static_cast<int>(p.get_int("dst_x")),
                      static_cast<int>(p.get_int("dst_y")));
    a.deadline = Time::from_ns(p.get_double("deadline_ns"));
    a.uses_dram = p.get_bool("uses_dram");
    const bool ok = timed ? spans.time("admit", "request", id, [&] {
      return ac.request(a).has_value();
    }) : ac.request(a).has_value();
    if (reply != nullptr &&
        ok != (reply->find("\"admitted\":true") != std::string::npos)) {
      fail("output mismatch: incremental AdmissionController decision " +
           std::to_string(id) + " differs from papd's");
    }
    if (timed) {
      ++offered;
      granted += ok;
    }
  };
  for (std::size_t i = 1; i < prefill.size(); ++i) {
    apply(prefill[i], 0, false, nullptr);
  }
  s0 = ac.incremental()->stats();
  for (std::size_t i = 0; i < lines.size(); ++i) {
    apply(lines[i], reply_id(lines[i]), true, &replies[i]);
  }
  const auto s1 = ac.incremental()->stats();
  const double d = static_cast<double>(lines.size());
  // admit/release spans are not part of the wire path's stage sum (the
  // session dispatch already contains them), so they are read separately.
  r.set("admit.request_us", spans.durations("admit", "request").median(), "us");
  r.set("admit.release_us", spans.durations("admit", "release").median(), "us");
  r.set("admit.dirty_flows_per_decision",
        static_cast<double>(s1.dirty_flows_total - s0.dirty_flows_total) / d,
        "flows");
  r.set("admit.dirty_links_per_decision",
        static_cast<double>(s1.dirty_links_total - s0.dirty_links_total) / d,
        "links");
  r.set("admit.grant_ratio",
        offered ? static_cast<double>(granted) / static_cast<double>(offered)
                : 0.0,
        "ratio");
  r.set("admit.live_flows", static_cast<double>(s1.live_flows), "count");
  Samples ping = w.ping_us;
  reconcile("admit_churn", w, ping.median(), spans.per_request("serve."), r);
}

// ---- sim_families ------------------------------------------------------------

void sim(const Options& o, Spans& spans, Report& r, Overhead* ov) {
  namespace sc = pap::scenario;
  Samples wall;
  double run_ns = 0;
  double accesses = 0;
  std::vector<std::string> results(kSimMembers);
  auto member = [&](long i) {
    const Member m = sim_member(i);
    const long id = kSimBase + i;
    const auto t0 = Clock::now();
    const std::string text = spans.time("scenario", "generate", id, [&] {
      return sc::generate_scenario(m.family, o.seed, m.index)
          .value()
          .canonical();
    });
    const auto parsed = spans.time("scenario", "parse", id, [&] {
      return sc::parse_scenario(text).value();
    });
    const auto t_run = Clock::now();
    const auto res = spans.time("scenario", "run", id, [&] {
      return sc::run_parsed(parsed).value();
    });
    run_ns += us_between(t_run, Clock::now()) * 1000.0;
    for (const char* k : {"rt_accesses", "hog_accesses", "trace_accesses"}) {
      if (const auto* v = res.find(k)) accesses += static_cast<double>(v->as_int());
    }
    results[static_cast<std::size_t>(i)] = res.serialize();
    if (spans.enabled) wall.add(us_between(t0, Clock::now()));
  };
  auto replay = [&] {
    run_ns = 0;
    accesses = 0;
    for (long i = 0; i < kSimMembers; ++i) member(i);
    return 0;
  };
  const Overhead oh = overhead(spans, replay);
  if (o.workload == "sim_families") *ov = oh;
  r.attempted += kSimMembers;
  r.set("scenario.generate_us",
        spans.durations("scenario", "generate").median(), "us");
  r.set("scenario.parse_us", spans.durations("scenario", "parse").median(),
        "us");
  r.set("scenario.run_ms", spans.durations("scenario", "run").median() / 1e3,
        "ms");
  r.set("sim.host_ns_per_access", run_ns / accesses, "ns");

  // Simulated counters: one member of each of the two cheapest families,
  // run with a simulated-time tracer attached (tracing slows the simulator
  // by an order of magnitude; it must not change the result).
  // The family worlds do not route over the NoC model, so there is no
  // noc counter to read here.
  double row_hits = 0, row_misses = 0, throttles = 0, soc = 0;
  for (long i : {0L, 3L}) {  // flash_crowd #0, hog_mix #0
    const Member m = sim_member(i);
    pap::trace::Tracer tracer;
    sc::RunOptions opts;
    opts.tracer = &tracer;
    const auto s = sc::generate_scenario(m.family, o.seed, m.index).value();
    const auto res = sc::run_parsed(s, opts);
    if (!res || res.value().serialize() != results[static_cast<std::size_t>(i)]) {
      fail("output mismatch: traced run of " + m.family +
           " differs from the untraced run");
    }
    const auto& c = tracer.counters();
    auto val = [&](const char* comp, const char* name) {
      const auto* e = c.find(comp, name);
      return e ? e->value : 0.0;
    };
    row_hits += val("dram", "row_hits");
    row_misses += val("dram", "row_misses");
    soc += val("soc", "accesses");
    throttles += res.value().at("memguard_throttles").as_double();
  }
  r.set("dram.row_hits", row_hits, "count");
  r.set("dram.row_misses", row_misses, "count");
  r.set("memguard.throttles", throttles, "count");
  r.set("soc.accesses", soc, "count");

  // Member wall time against its own stages: what the spans leave out.
  Samples rem;
  const auto stages = spans.per_request("scenario");
  const auto& walls = wall.values();
  for (std::size_t i = 0; i < walls.size(); ++i) {
    rem.add(walls[i] - stages.at("r" + std::to_string(kSimBase + static_cast<long>(i))));
  }
  const double rem_med = rem.median();
  r.note("recon sim_families: member wall median %.1f us = stages + "
         "remainder %.1f us", wall.median(), rem_med);
  r.set("recon.sim_families.remainder_us", rem_med, "us");
}

}  // namespace

void run_anatomy(const Options& o, Report& r) {
  Spans spans;
  Overhead ov;
  hot(o, spans, r, &ov);
  cold(o, spans, r, &ov);
  churn(o, spans, r, &ov);
  sim(o, spans, r, &ov);
  r.set("trace.overhead_ratio", ov.traced_s / ov.untraced_s, "ratio");
  r.note("trace: %s replay %.3f s traced vs %.3f s untraced, %zu spans",
         o.workload.c_str(), ov.traced_s, ov.untraced_s, spans.tracer().size());

  const std::string path = o.workdir + "/trace-" + o.workload + ".json";
  const auto written = pap::trace::write_chrome_json(spans.tracer(), path);
  if (!written) fail("write " + path + ": " + written.message());
  std::ifstream in(path);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  ps::JsonLimits limits;
  limits.max_bytes = text.size() + 1;
  if (!ps::json_parse(text, limits)) fail("Chrome trace is not valid JSON");
  r.note("trace: Chrome JSON %s (%zu bytes) parses", path.c_str(),
         text.size());
}

}  // namespace bench
