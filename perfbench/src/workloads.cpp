#include "workloads.hpp"

#include <unistd.h>

#include <atomic>
#include <memory>
#include <mutex>
#include <fstream>
#include <thread>

#include "inputs.hpp"
#include "papd.hpp"
#include "scenario/generate.hpp"
#include "scenario/run.hpp"
#include "serve/handlers.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "serve/sessions.hpp"
#include "wire.hpp"

namespace bench {

namespace ps = pap::serve;

std::map<std::string, OpStats> parse_stats(const std::string& payload) {
  auto doc = ps::json_parse(payload);
  if (!doc) fail("stats payload does not parse: " + doc.error_message());
  const ps::JsonValue* endpoints = doc.value().get("endpoints");
  if (endpoints == nullptr) fail("stats payload without endpoints");
  auto num = [](const ps::JsonValue* v) {
    if (v == nullptr) return 0.0;
    return v->kind == ps::JsonValue::Kind::kInt
               ? static_cast<double>(v->int_v)
               : v->dbl_v;
  };
  std::map<std::string, OpStats> out;
  for (const auto& [op, v] : endpoints->object_v) {
    OpStats s;
    s.requests = num(v.get("requests"));
    s.cache_hits = num(v.get("cache_hits"));
    s.coalesced = num(v.get("coalesced"));
    s.overloaded = num(v.get("overloaded"));
    if (const ps::JsonValue* lat = v.get("latency_us")) {
      s.count = num(lat->get("count"));
      s.p50_us = num(lat->get("p50"));
    }
    out[op] = s;
  }
  return out;
}

double stats_delta(const std::map<std::string, OpStats>& before,
                   const std::map<std::string, OpStats>& after,
                   double OpStats::*field) {
  double d = 0.0;
  for (const auto& [op, s] : after) {
    const auto it = before.find(op);
    d += s.*field - (it == before.end() ? 0.0 : it->second.*field);
  }
  return d;
}

std::string expected_reply(const std::string& line) {
  auto req = ps::parse_request(line);
  if (!req) fail("generated request does not parse: " + req.error_message());
  const auto outcome =
      ps::dispatch(req.value().op, req.value().params, ps::HandlerLimits{});
  return outcome.ok ? ps::ok_reply(req.value().id,
                                   ps::render_result(outcome.result))
                    : ps::error_reply(req.value().id, outcome.error.code,
                                      outcome.error.message);
}

double steal_seconds() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  long long v[8] = {};
  in >> cpu;
  for (auto& x : v) in >> x;
  return static_cast<double>(v[7]) / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

namespace {

std::string socket_path(const Options& o, const std::string& tag) {
  return o.workdir + "/" + tag + "-" + std::to_string(::getpid()) + ".sock";
}

/// Runs `check(i)` for i in [0, n) on two threads; the first failure wins.
template <typename F>
void verify_parallel(long n, F&& check) {
  std::atomic<long> next{0};
  std::string first_error;
  std::mutex mu;
  auto worker = [&] {
    for (long i = next++; i < n; i = next++) {
      std::string err = check(i);
      if (!err.empty()) {
        std::lock_guard<std::mutex> lock(mu);
        if (first_error.empty()) first_error = err;
        next = n;
      }
    }
  };
  std::thread t(worker);
  worker();
  t.join();
  if (!first_error.empty()) fail("output mismatch: " + first_error);
}

/// Per-round figures. Every serve and churn round runs against a freshly
/// started papd, so a run samples ten daemon thread placements and ten
/// stretches of host weather (steal bursts, busy neighbours); the run
/// reports the median round of each figure, which a few spoiled rounds
/// cannot move.
class Rounds {
 public:
  void add(const std::string& name, double v) { v_[name].push_back(v); }
  double median(const std::string& name) const { return median_of(v_.at(name)); }
  std::string list(const std::string& name, const char* fmt) const {
    std::string out;
    for (double v : v_.at(name)) {
      char buf[32];
      std::snprintf(buf, sizeof buf, fmt, v);
      out += (out.empty() ? "" : " ") + std::string(buf);
    }
    return out;
  }

 private:
  std::map<std::string, std::vector<double>> v_;
};

/// The end-to-end metrics of a round-based run. latency_p99_us is printed
/// but not part of the result line: on a shared host it moves several-fold
/// with host stalls between identical runs, so it cannot be gated.
void set_metrics(Report& r, const Rounds& rounds) {
  for (const auto& [name, unit] :
       {std::pair<const char*, const char*>{"setup_s", "s"},
        {"throughput_ops_s", "ops/s"},
        {"latency_p50_us", "us"},
        {"peak_rss_mb", "MiB"}}) {
    r.set(name, rounds.median(name), unit);
  }
  r.note("latency_p99_us %.1f us (median round; not gated)",
         rounds.median("latency_p99_us"));
}

/// Closed-loop throughput and open-loop latency figures of one round.
void add_phases(Rounds& rounds, const PhaseResult& closed, PhaseResult& open,
                Report& r) {
  rounds.add("throughput_ops_s",
             static_cast<double>(closed.completed_in_window) / closed.window_s);
  rounds.add("latency_p50_us", open.latency_us.median());
  rounds.add("latency_p99_us", open.latency_us.quantile(0.99));
  rounds.add("late_p99_us", open.late_us.quantile(0.99));
  r.attempted += closed.sent + open.sent;
  r.failed += closed.failed + open.failed;
}

void report_serve(Report& r, const char* what, const Rounds& rounds,
                  double rate, double open_s) {
  r.note("%s rounds: setup_s %s", what,
         rounds.list("setup_s", "%.4f").c_str());
  r.note("%s rounds: closed loop %d conns x depth %d, ops/s %s", what,
         kConnections, kPipeline, rounds.list("throughput_ops_s", "%.0f").c_str());
  r.note("%s rounds: open loop %.0f req/s (%.0f samples a round), p50 us "
         "%s; p99 us %s; generator late p99 us %s",
         what, rate, rate * open_s,
         rounds.list("latency_p50_us", "%.1f").c_str(),
         rounds.list("latency_p99_us", "%.1f").c_str(),
         rounds.list("late_p99_us", "%.1f").c_str());
  // The open-loop validity flag: a generator that ran late measured its
  // own stalls, not the daemon's latency.
  if (rounds.median("late_p99_us") > 0.25 * rounds.median("latency_p99_us")) {
    r.note("FLAG %s: generator late p99 %.1f us is not small against the "
           "latency p99 %.1f us it measures",
           what, rounds.median("late_p99_us"), rounds.median("latency_p99_us"));
  }
  set_metrics(r, rounds);
}

/// Lengths of a serve round's closed- and open-loop phases.
double closed_s(const Options& o) { return o.seconds * kClosedShare / kRounds; }
double open_s(const Options& o) {
  return o.seconds * (1.0 - kClosedShare) / kRounds;
}

/// Request ids of round k's closed and open phases.
long closed_base(int k) { return (2L * k + 1) << 32; }
long open_base(int k) { return (2L * k + 2) << 32; }

}  // namespace

void run_serve_hot(const Options& o, Report& r) {
  const std::vector<std::string> pop = hot_population(o.seed);
  std::vector<std::string> want(pop.size());
  for (std::size_t m = 0; m < pop.size(); ++m) {
    want[m] = std::string(reply_body(expected_reply(with_id(0, pop[m]))));
  }
  const LineFn make = [&](long id, std::string* out) {
    *out = with_id(id, pop[hot_member(o.seed, id)]);
  };
  // Hot and cold must give identical bytes: every warm-up reply (computed
  // on a worker) and every timed reply (an LRU hit) equals the in-process
  // reply of its member.
  long mismatches = 0;
  std::string first_mismatch;
  auto same = [&](std::size_t m, std::string_view reply) {
    if (reply_body(reply) == want[m]) return true;
    if (mismatches++ == 0) {
      first_mismatch = "hot member " + std::to_string(m) + ": papd sent " +
                       std::string(reply) + " in-process gives " + want[m];
    }
    return false;
  };
  const ReplyFn check = [&](long id, std::string_view reply) {
    return reply_ok(reply) && same(hot_member(o.seed, id), reply);
  };
  Rounds rounds;
  double requests = 0, hits = 0;
  for (int k = 0; k < kRounds; ++k) {
    const auto t0 = Clock::now();
    Papd papd(o.papd, socket_path(o, "hot"));
    {
      // The whole population in one pipelined burst (replies come back in
      // completion order); it fits the socket buffers both ways.
      auto client = papd.connect();
      for (std::size_t m = 0; m < pop.size(); ++m) {
        const auto sent = client.send_line(with_id(static_cast<long>(m), pop[m]));
        if (!sent) fail("warm-up: " + sent.message());
      }
      for (std::size_t m = 0; m < pop.size(); ++m) {
        auto reply = client.read_line();
        if (!reply) fail("warm-up: " + reply.error_message());
        const long id = reply_id(reply.value());
        if (id < 0 || id >= static_cast<long>(pop.size())) {
          fail("warm-up: unmatched reply " + reply.value());
        }
        same(static_cast<std::size_t>(id), reply.value());
      }
    }
    rounds.add("setup_s", seconds_since(t0));
    const auto before = parse_stats(papd.stats());
    const PhaseResult closed =
        run_closed(papd.socket(), kConnections, kPipeline, closed_s(o),
                   closed_base(k), make, check);
    PhaseResult open = run_open(papd.socket(), kConnections, kHotRate,
                                open_s(o), open_base(k), make, check);
    const auto after = parse_stats(papd.stats());
    rounds.add("peak_rss_mb", papd.peak_rss_mb());
    requests += stats_delta(before, after, &OpStats::requests);
    hits += stats_delta(before, after, &OpStats::cache_hits);
    add_phases(rounds, closed, open, r);
  }
  if (mismatches > 0) {
    fail("output mismatch (" + std::to_string(mismatches) + " replies): " +
         first_mismatch);
  }
  const double hit_ratio = requests > 0 ? hits / requests : 0.0;
  r.note("serve_hot check: every reply byte-identical to in-process dispatch");
  r.note("serve_hot guard: cache_hit_ratio %.5f over %.0f timed requests "
         "(>= 0.99)", hit_ratio, requests);
  if (hit_ratio < 0.99) fail("serve_hot guard: cache hit ratio below 0.99");
  report_serve(r, "serve_hot", rounds, kHotRate, open_s(o));
}

void run_serve_cold(const Options& o, Report& r) {
  const LineFn make = [&](long id, std::string* out) {
    *out = with_id(id, cold_body(o.seed, id));
  };
  // Reply hashes, checked against in-process dispatch after timing.
  std::map<long, std::uint64_t> got;
  const ReplyFn keep = [&](long id, std::string_view reply) {
    got[id] = fnv1a(reply.data(), reply.size());
    return reply_ok(reply);
  };
  Rounds rounds;
  double hits = 0, coalesced = 0;
  for (int k = 0; k < kRounds; ++k) {
    const auto t0 = Clock::now();
    Papd papd(o.papd, socket_path(o, "cold"));
    rounds.add("setup_s", seconds_since(t0));
    const auto before = parse_stats(papd.stats());
    const PhaseResult closed =
        run_closed(papd.socket(), kConnections, kPipeline, closed_s(o),
                   closed_base(k), make, keep);
    PhaseResult open = run_open(papd.socket(), kConnections, kColdRate,
                                open_s(o), open_base(k), make, keep);
    const auto after = parse_stats(papd.stats());
    rounds.add("peak_rss_mb", papd.peak_rss_mb());
    hits += stats_delta(before, after, &OpStats::cache_hits);
    coalesced += stats_delta(before, after, &OpStats::coalesced);
    add_phases(rounds, closed, open, r);
  }

  std::vector<std::pair<long, std::uint64_t>> all(got.begin(), got.end());
  verify_parallel(static_cast<long>(all.size()), [&](long i) {
    const auto [id, hash] = all[static_cast<std::size_t>(i)];
    std::string line;
    make(id, &line);
    const std::string want = expected_reply(line);
    return fnv1a(want) == hash
               ? std::string()
               : "cold request " + std::to_string(id) + " (" + line +
                     "): papd reply differs from in-process " + want;
  });
  r.note("serve_cold check: %zu replies byte-identical to in-process "
         "dispatch", all.size());
  r.note("serve_cold guard: cache_hits %.0f, coalesced %.0f (both must be 0)",
         hits, coalesced);
  if (hits != 0 || coalesced != 0) {
    fail("serve_cold guard: cold requests were served from the cache or "
         "coalesced");
  }
  report_serve(r, "serve_cold", rounds, kColdRate, open_s(o));
}

namespace {

struct ChurnStats {
  double decisions = 0, dirty_flows = 0, dirty_links = 0, flows = 0,
         admissions = 0, rejections = 0;
};

ChurnStats churn_stats(std::string_view reply) {
  auto doc = ps::json_parse(std::string(reply));
  if (!doc) fail("admission_stats reply does not parse");
  const ps::JsonValue* m = doc.value().get("result");
  m = m ? m->get("metrics") : nullptr;
  if (m == nullptr) fail("admission_stats reply without metrics");
  auto num = [&](const char* k) {
    const ps::JsonValue* v = m->get(k);
    return v ? static_cast<double>(v->int_v) : 0.0;
  };
  return ChurnStats{num("decisions"), num("dirty_flows_total"),
                    num("dirty_links_total"), num("flows"),
                    num("admissions"), num("rejections")};
}

}  // namespace

void run_admit_churn(const Options& o, Report& r) {
  const std::string stats_body =
      "\"op\":\"admission_stats\",\"params\":{\"session\":1}}";
  Rounds rounds;
  double decisions = 0, dirty = 0, admissions = 0, offered = 0, flows = 0;
  std::size_t checked = 0;
  for (int k = 0; k < kRounds; ++k) {
    std::vector<std::string> lines, replies;  // the transcript, in order
    const auto t0 = Clock::now();
    Papd papd(o.papd, socket_path(o, "churn"));
    ps::Client client = papd.connect();
    auto exchange = [&](const std::string& line) -> const std::string& {
      auto reply = client.call(line);
      if (!reply) fail("admit_churn: " + reply.error_message());
      lines.push_back(line);
      replies.push_back(std::move(reply.value()));
      return replies.back();
    };
    // Each round is its own session history: a fresh structure of flows.
    ChurnGen gen((o.seed << 8) | static_cast<std::uint64_t>(k));
    long id = 0;
    const std::string& opened = exchange(with_id(id++, churn_open_body()));
    if (opened.find("\"session\":1") == std::string::npos) {
      fail("admission_open failed: " + opened);
    }
    for (int i = 0; i < kChurnPrefill; ++i) {
      gen.observe(exchange(with_id(id++, gen.next(1, true))));
    }
    rounds.add("setup_s", seconds_since(t0));

    const ChurnStats s0 = churn_stats(exchange(with_id(id++, stats_body)));
    const auto start = Clock::now();
    const auto end = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(o.seconds /
                                                               kRounds));
    Samples lat;
    while (Clock::now() < end) {
      const std::string line = with_id(id++, gen.next(1, false));
      const auto sent = Clock::now();
      const std::string& reply = exchange(line);
      lat.add(us_between(sent, Clock::now()));
      ++r.attempted;
      if (!reply_ok(reply)) ++r.failed;
      gen.observe(reply);
    }
    rounds.add("throughput_ops_s",
               static_cast<double>(lat.count()) / seconds_since(start));
    const ChurnStats s1 = churn_stats(exchange(with_id(id++, stats_body)));
    rounds.add("peak_rss_mb", papd.peak_rss_mb());
    papd.stop();
    rounds.add("latency_p50_us", lat.median());
    rounds.add("latency_p99_us", lat.quantile(0.99));
    decisions += s1.decisions - s0.decisions;
    dirty += s1.dirty_flows - s0.dirty_flows;
    admissions += s1.admissions - s0.admissions;
    offered += (s1.admissions - s0.admissions) +
               (s1.rejections - s0.rejections);
    flows += s1.flows / kRounds;

    // The transcript must equal an in-process incremental-engine replay of
    // the same lines through the session registry papd runs.
    ps::SessionRegistry registry{ps::HandlerLimits{}};
    for (std::size_t i = 0; i < lines.size(); ++i) {
      auto req = ps::parse_request(lines[i]);
      if (!req) fail("churn line does not parse: " + lines[i]);
      const auto out = registry.dispatch(req.value().op, req.value().params);
      const std::string want =
          out.ok ? ps::ok_reply(req.value().id, ps::render_result(out.result))
                 : ps::error_reply(req.value().id, out.error.code,
                                   out.error.message);
      if (want != replies[i]) {
        fail("output mismatch in round " + std::to_string(k) + " at step " +
             std::to_string(i) + " (" + lines[i] + "): papd sent " +
             replies[i] + " in-process gives " + want);
      }
    }
    checked += lines.size();
  }
  r.note("admit_churn check: %zu replies byte-identical to the in-process "
         "session replay", checked);

  const double dirty_per = decisions > 0 ? dirty / decisions : 0.0;
  const double grant = offered > 0 ? admissions / offered : 0.0;
  r.note("admit_churn guard: %.1f dirty flows/decision (band 5..80), grant "
         "ratio %.3f (band 0.6..0.98), %.0f live flows (mean over rounds)",
         dirty_per, grant, flows);
  if (dirty_per < 5 || dirty_per > 80) {
    fail("admit_churn guard: dirty flows per decision outside 5..80");
  }
  if (grant < 0.6 || grant > 0.98) {
    fail("admit_churn guard: grant ratio outside 0.6..0.98");
  }
  r.note("admit_churn rounds: setup_s %s", rounds.list("setup_s", "%.4f").c_str());
  r.note("admit_churn rounds: depth 1, %.0f decisions; decisions/s %s; p50 "
         "us %s; p99 us %s",
         decisions,
         rounds.list("throughput_ops_s", "%.0f").c_str(),
         rounds.list("latency_p50_us", "%.1f").c_str(),
         rounds.list("latency_p99_us", "%.1f").c_str());
  set_metrics(r, rounds);
}

namespace {

struct MemberRun {
  double generate_us = 0, parse_us = 0, run_us = 0;
  std::uint64_t accesses = 0;
  std::uint64_t hash = 0;
};

/// One member the way pap_scenario runs it: generate, print canonically,
/// re-parse, run_parsed.
MemberRun run_member(std::uint64_t seed, const Member& m) {
  namespace sc = pap::scenario;
  MemberRun out;
  const auto t0 = Clock::now();
  auto gen = sc::generate_scenario(m.family, seed, m.index);
  if (!gen) fail("generate " + m.family + ": " + gen.error_message());
  const std::string text = gen.value().canonical();
  const auto t1 = Clock::now();
  auto parsed = sc::parse_scenario(text);
  if (!parsed) fail("re-parse " + m.family + ": " + parsed.error_message());
  const auto t2 = Clock::now();
  auto result = sc::run_parsed(parsed.value());
  const auto t3 = Clock::now();
  if (!result) fail("run " + m.family + ": " + result.error_message());
  out.generate_us = us_between(t0, t1);
  out.parse_us = us_between(t1, t2);
  out.run_us = us_between(t2, t3);
  const auto& res = result.value();
  for (const char* k : {"rt_accesses", "hog_accesses", "trace_accesses"}) {
    if (const auto* v = res.find(k)) {
      out.accesses += static_cast<std::uint64_t>(v->as_int());
    }
  }
  out.hash = fnv1a(res.serialize());
  return out;
}

/// The host-speed probe of sim_families: a fixed chain of dependent 64-bit
/// multiply-adds, with no memory traffic and nothing the compiler can fold
/// or vectorize. Returns its wall time in microseconds.
double calibration_us() {
  const auto t0 = Clock::now();
  std::uint64_t x = 1;
  for (long n = 0; n < kCalibSteps; ++n) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    asm volatile("" : "+r"(x));
  }
  return us_between(t0, Clock::now());
}

}  // namespace

void run_sim_families(const Options& o, Report& r) {
  // The host's speed drifts by a third within a run and by a fifth from one
  // run to the next, in episodes of seconds, so every timing is corrected
  // for the host's speed at that moment. The reference member kRefMember
  // runs before and after each timed step, and the step's time is scaled
  // by the reference's nominal time divided by the mean of those two
  // reference times. The nominal time is the reference's fast time over
  // the run (its 2nd percentile), rescaled by the calibration loop's fast
  // time to the host speed at which that loop takes kCalibUs. The reference
  // is the program under test too, so a change to the program's speed
  // scales all three of its times and the correction leaves the change in
  // the figure; the calibration loop is not, and pins the scale.
  std::vector<double> ref_times;
  Samples calib_us;
  std::uint64_t ref_hash = 0;
  auto run_ref = [&] {
    const MemberRun a = run_member(kRefSeed, kRefMember);
    if (ref_times.empty()) ref_hash = a.hash;
    if (a.hash != ref_hash) fail("output mismatch: reference member changed");
    ref_times.push_back(a.generate_us + a.parse_us + a.run_us);
    calib_us.add(calibration_us());
  };
  run_ref();

  // Set-up: expand the first group of members into scenarios (generate,
  // print canonically, re-parse), as a family sweep does before it runs.
  // Per timed step: its time and the index in ref_times of the reference
  // run just before it.
  std::vector<std::pair<double, std::size_t>> setups;
  for (int k = 0; k < kRounds; ++k) {
    const auto t0 = Clock::now();
    for (long i = 0; i < static_cast<long>(kSimGroup); ++i) {
      const Member m = sim_member(i);
      auto gen = pap::scenario::generate_scenario(m.family, o.seed, m.index);
      if (!gen) fail("generate " + m.family + ": " + gen.error_message());
      if (!pap::scenario::parse_scenario(gen.value().canonical())) {
        fail("re-parse " + m.family);
      }
    }
    setups.emplace_back(us_between(t0, Clock::now()), ref_times.size() - 1);
    run_ref();
  }

  // Timed: consecutive members until the run's time is up. Members differ
  // thirtyfold in size, so the throughput figure counts simulated
  // accesses, not members.
  std::vector<std::pair<double, std::size_t>> member_runs;
  std::vector<std::uint64_t> hashes;
  double accesses = 0;
  const auto t0 = Clock::now();
  const auto end =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(o.seconds));
  for (long i = 0; i == 0 || Clock::now() < end; ++i) {
    const MemberRun m = run_member(o.seed, sim_member(i));
    member_runs.emplace_back(m.generate_us + m.parse_us + m.run_us,
                             ref_times.size() - 1);
    accesses += static_cast<double>(m.accesses);
    hashes.push_back(m.hash);
    run_ref();
  }
  const double elapsed = seconds_since(t0);
  r.set("peak_rss_mb", vm_hwm_mb("self"), "MiB");
  r.attempted += static_cast<long>(hashes.size());

  // Timing-free result hash; members re-run directly from the generated
  // scenario (no print/parse round trip) must agree with the timed runs.
  std::uint64_t run_hash = 0xcbf29ce484222325ull;
  for (std::uint64_t h : hashes) {
    run_hash = fnv1a(reinterpret_cast<const char*>(&h), sizeof h, run_hash);
  }
  const long n = static_cast<long>(hashes.size());
  for (long j : {0L, 1L, 2L, 3L, n / 2, n - 1}) {
    if (j < 0 || j >= n) continue;
    const Member m = sim_member(j);
    auto s = pap::scenario::generate_scenario(m.family, o.seed, m.index);
    if (!s) fail("generate " + m.family + ": " + s.error_message());
    auto direct = pap::scenario::run_parsed(s.value());
    if (!direct || fnv1a(direct.value().serialize()) !=
                       hashes[static_cast<std::size_t>(j)]) {
      fail("output mismatch: member " + std::to_string(j) + " (" + m.family +
           ") differs from in-process run_parsed");
    }
  }

  Samples ref_us;
  for (double t : ref_times) ref_us.add(t);
  const double ref_fast = ref_us.quantile(0.02);
  const double calib_fast = calib_us.quantile(0.02);
  const double ref_nominal = ref_fast * kCalibUs / calib_fast;
  auto corrected = [&](const std::pair<double, std::size_t>& run) {
    const auto& [us, before] = run;
    return us * ref_nominal / ((ref_times[before] + ref_times[before + 1]) / 2);
  };
  Samples setup_raw, setup, member_raw, cost;
  for (const auto& s : setups) {
    setup_raw.add(s.first);
    setup.add(corrected(s));
  }
  for (const auto& m : member_runs) {
    member_raw.add(m.first);
    cost.add(corrected(m));
  }
  r.note("sim_families: %ld members in %.2f s (%.2f members/s), result hash "
         "%016llx",
         n, elapsed, static_cast<double>(n) / elapsed,
         static_cast<unsigned long long>(run_hash));
  r.note("sim_families: reference member %s #%d (seed %d): p2 %.0f us, p50 "
         "%.0f us over %zu runs; calibration loop p2 %.1f us (nominal %.0f "
         "us), so the reference at nominal host speed takes %.0f us",
         kRefMember.family.c_str(), kRefMember.index, kRefSeed, ref_fast,
         ref_us.median(), ref_us.count(), calib_fast, kCalibUs, ref_nominal);
  r.note("sim_families: uncorrected: setup %.0f us, sim_accesses_per_s %.6g, "
         "member p50 %.0f us; corrected: setup %.0f us, sim_accesses_per_s "
         "%.6g, member p50 %.0f us",
         setup_raw.median(), accesses / (member_raw.sum() / 1e6),
         member_raw.median(), setup.median(), accesses / (cost.sum() / 1e6),
         cost.median());
  r.set("setup_s", setup.median() / 1e6, "s");
  r.set("throughput_ops_s", accesses / (cost.sum() / 1e6), "ops/s");
  r.set("latency_p50_us", cost.median(), "us");
  r.note("latency_p99_us %.1f us (corrected, %zu members beyond; not gated)",
         cost.quantile(0.99), cost.beyond(0.99));
}

}  // namespace bench
