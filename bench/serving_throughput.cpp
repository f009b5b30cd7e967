// Serving-path benchmark and acceptance gate for the papd analysis
// service. Exercises an in-process AnalysisService (no sockets — this
// measures the service core: queueing, batching, caching, handler
// dispatch) and enforces the serving-layer guarantees:
//
//   1. throughput — sustained admission_check rate at 4 workers must stay
//      above 10k req/s (all-distinct parameters, so every request runs the
//      full admission analysis; cache hits would be cheating);
//   2. byte-identity — a served wcd_bound reply must render exactly the
//      bytes the offline path produces for the same parameters, metric by
//      metric (dram::table2_row + the JsonlSink value rendering);
//   3. bounded overload — with the queue saturated, `overloaded` replies
//      must come back in well under 10 ms and the process RSS must stay
//      flat: backpressure sheds load instead of buffering it;
//   4. sharded fleet — four service shards behind the consistent-hash
//      router must answer byte-identically to one service, and because
//      routing happens on the cache identity every key has a home shard:
//      steady-state traffic over a bounded key population is all cache
//      hits, and the fleet must sustain >= 100k req/s aggregate;
//   5. disk warm restart — a service restarted over the same --cache-dir
//      must answer previously computed requests from the disk tier
//      (disk_hits > 0) with exactly the bytes the first run produced.
//
// Results go to BENCH_serve.json in the pap-bench-v1 schema consumed by
// tools/bench_compare.py; the committed baseline lives at the repo root
// next to BENCH_nc.json / BENCH_sim.json.
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench_report.hpp"
#include "common/stats.hpp"
#include "dram/controller.hpp"
#include "dram/timing.hpp"
#include "dram/wcd.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using pap::serve::AnalysisService;
using pap::serve::ServiceConfig;

using pap::bench::BenchRow;

int g_failures = 0;

void check(bool ok, const std::string& what) {
  std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

std::string admission_request(long id, long variant) {
  // All-distinct rate pairs: every request is a fresh cache key.
  const double r0 = 0.001 + 0.0001 * static_cast<double>(variant % 997);
  const double r1 = 0.002 + 0.0001 * static_cast<double>(variant % 1009);
  return "{\"id\": " + std::to_string(id) +
         ", \"op\": \"admission_check\", \"params\": {"
         "\"mesh_cols\": 4, \"mesh_rows\": 4, \"noc_budget_gbps\": 64.0, "
         "\"apps\": ["
         "{\"burst\": 8, \"rate\": " + std::to_string(r0) +
         ", \"src_x\": 0, \"src_y\": 0, \"dst_x\": 3, \"dst_y\": 3, "
         "\"deadline_ns\": 40000, \"uses_dram\": true},"
         "{\"burst\": 4, \"rate\": " + std::to_string(r1) +
         ", \"src_x\": 1, \"src_y\": 2, \"dst_x\": 2, \"dst_y\": 0, "
         "\"deadline_ns\": 80000}"
         "]}}";
}

/// Section 1: closed-loop throughput over the full service path with
/// distinct parameters on every request.
BenchRow bench_admission_throughput() {
  ServiceConfig config;
  config.workers = 4;
  config.queue_capacity = 4096;
  AnalysisService service(config);

  constexpr long kRequests = 20000;
  constexpr int kSubmitters = 8;
  std::atomic<long> next{0};
  std::atomic<long> ok{0};
  const auto t0 = Clock::now();
  std::vector<std::thread> threads;
  for (int t = 0; t < kSubmitters; ++t) {
    threads.emplace_back([&] {
      for (;;) {
        const long i = next.fetch_add(1);
        if (i >= kRequests) return;
        const std::string reply = service.handle(admission_request(i, i));
        if (reply.find("\"ok\":true") != std::string::npos) ok.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  const double seconds =
      std::chrono::duration<double>(Clock::now() - t0).count();
  const double rps = static_cast<double>(kRequests) / seconds;

  std::printf("admission_check: %ld requests, %.2f s, %.0f req/s\n",
              kRequests, seconds, rps);
  check(ok.load() == kRequests, "all requests answered ok");
  check(rps >= 10000.0, "sustained >= 10k admission_check req/s at 4 workers");
  service.shutdown();
  return BenchRow{"BM_ServeAdmissionCheck", seconds * 1e9 / kRequests,
                  kRequests};
}

/// Section 2: a served wcd_bound reply carries exactly the offline bytes.
BenchRow bench_wcd_byte_identity() {
  ServiceConfig config;
  config.workers = 2;
  AnalysisService service(config);

  // The Table II configuration (bench/table2_wcd_bounds.cpp).
  const pap::dram::ControllerParams ctrl = pap::dram::ControllerConfig{}
                                               .n_cap(16)
                                               .watermarks(55, 28)
                                               .n_wd(16)
                                               .banks(1)
                                               .build()
                                               .value();
  constexpr int kN = 13;
  const auto timings = pap::dram::ddr3_1600();

  long long served = 0;
  double total_ns = 0.0;
  bool all_identical = true;
  for (const double gbps : {0.5, 1.0, 2.0, 4.0, 5.0, 6.0, 6.5, 7.0, 7.2}) {
    // Offline: the exact engine call and value rendering the batch bench
    // uses for a Table II row.
    const auto b = pap::dram::table2_row(timings, ctrl, gbps, kN);
    const auto bucket = pap::nc::TokenBucket::from_rate(
        pap::Rate::gbps(gbps), pap::kCacheLineBytes, 8.0);
    pap::dram::WcdAnalysis analysis(timings, ctrl, bucket);
    pap::exp::Result offline("wcd_bound");
    offline.add("lower", b.lower)
        .add("upper", b.upper)
        .add("gap", b.upper - b.lower)
        .add("iterations_lower", b.iterations_lower)
        .add("iterations_upper", b.iterations_upper)
        .add("converged", b.converged)
        .add("interference_utilization",
             pap::exp::Value{analysis.interference_utilization(), 6});
    const std::string expect =
        pap::serve::ok_reply(served, pap::serve::render_result(offline));

    char line[160];
    std::snprintf(line, sizeof line,
                  "{\"id\": %lld, \"op\": \"wcd_bound\", "
                  "\"params\": {\"write_gbps\": %.17g}}",
                  served, gbps);
    const auto t0 = Clock::now();
    const std::string reply = service.handle(line);
    total_ns += std::chrono::duration<double, std::nano>(Clock::now() - t0)
                    .count();
    if (reply != expect) {
      all_identical = false;
      std::printf("  mismatch at %.1f GB/s:\n    served  %s\n    offline %s\n",
                  gbps, reply.c_str(), expect.c_str());
    }
    ++served;
  }
  check(all_identical,
        "wcd_bound replies byte-identical to offline table2_row rendering");
  service.shutdown();
  return BenchRow{"BM_ServeWcdBound", total_ns / static_cast<double>(served),
                  served};
}

long rss_kb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (!f) return -1;
  char line[256];
  long kb = -1;
  while (std::fgets(line, sizeof line, f)) {
    if (std::strncmp(line, "VmRSS:", 6) == 0) {
      std::sscanf(line + 6, "%ld", &kb);
      break;
    }
  }
  std::fclose(f);
  return kb;
}

/// Section 3: saturate a tiny service and verify overload replies are
/// immediate and allocation-free at steady state.
BenchRow bench_overload() {
  ServiceConfig config;
  config.workers = 1;
  config.queue_capacity = 4;
  config.coalesce = false;
  config.cache_entries = 0;  // force every request through the queue
  AnalysisService service(config);

  // Fill the worker + queue with slow scenario simulations (distinct sim
  // times, so they cannot coalesce even if coalescing were on).
  std::atomic<int> slow_done{0};
  std::vector<std::string> slow;
  for (int i = 0; i < 5; ++i) {
    slow.push_back("{\"id\": " + std::to_string(i) +
                   ", \"op\": \"scenario_sim\", \"params\": {\"hogs\": " +
                   std::to_string(1 + i % 3) +
                   ", \"sim_time_us\": " + std::to_string(2000 + i) + "}}");
  }
  for (const auto& line : slow) {
    service.submit(line, [&](std::string) { slow_done.fetch_add(1); });
  }

  // Flood with distinct admission checks; queue is full, so all but a
  // handful must bounce immediately.
  constexpr long kFlood = 50000;
  const long rss_before = rss_kb();
  pap::LatencyHistogram overload_latency;
  long overloaded = 0;
  long accepted = 0;
  // Accepted requests reply later on a worker thread, so the reply target
  // must outlive this loop iteration: shared slots, written exactly once.
  struct ReplySlot {
    std::atomic<bool> done{false};
    std::string text;
  };
  for (long i = 0; i < kFlood; ++i) {
    const std::string line = admission_request(1000 + i, i);
    auto slot = std::make_shared<ReplySlot>();
    const auto t0 = Clock::now();
    service.submit(line, [slot](std::string reply) {
      slot->text = std::move(reply);
      slot->done.store(true, std::memory_order_release);
    });
    // Overload replies are synchronous by contract: done before submit
    // returned. Anything still pending was accepted into the queue.
    if (slot->done.load(std::memory_order_acquire) &&
        slot->text.find("\"code\":\"overloaded\"") != std::string::npos) {
      ++overloaded;
      overload_latency.add(pap::Time::from_ns(
          std::chrono::duration<double, std::nano>(Clock::now() - t0)
              .count()));
    } else {
      ++accepted;
    }
  }
  const long rss_after = rss_kb();

  std::printf("overload: %ld flooded, %ld overloaded, %ld accepted, "
              "RSS %ld -> %ld kB\n",
              kFlood, overloaded, accepted, rss_before, rss_after);
  check(overloaded > kFlood / 2, "backpressure engaged under flood");
  const double p99_ms = overload_latency.empty()
                            ? 1e9
                            : overload_latency.percentile(99).nanos() / 1e6;
  const double max_ms = overload_latency.empty()
                            ? 1e9
                            : overload_latency.max().nanos() / 1e6;
  std::printf("overload reply latency: p99 %.3f ms, max %.3f ms\n", p99_ms,
              max_ms);
  check(p99_ms < 10.0, "overloaded replies within 10 ms (p99)");
  check(rss_after - rss_before < 64 * 1024,
        "flat RSS under sustained overload (< 64 MB growth)");

  service.shutdown();
  const double mean_ns = overload_latency.empty()
                             ? 0.0
                             : overload_latency.mean().nanos();
  return BenchRow{"BM_ServeOverloadReject", mean_ns, overloaded};
}

/// Section 4: a 4-shard fleet routed on the cache identity. Every distinct
/// computation has exactly one home shard, so a bounded key population is
/// computed once per key fleet-wide and then served from each home
/// shard's LRU — the steady state a papd fleet runs in. The gate is on
/// that steady state: >= 100k req/s aggregate, byte-identical to a single
/// service the whole way.
BenchRow bench_sharded_fleet() {
  constexpr std::size_t kShards = 4;
  constexpr int kKeys = 64;
  constexpr long kHot = 300000;
  constexpr int kSubmitters = 2;

  std::vector<std::unique_ptr<AnalysisService>> fleet;
  for (std::size_t s = 0; s < kShards; ++s) {
    ServiceConfig cfg;
    cfg.workers = 1;
    fleet.push_back(std::make_unique<AnalysisService>(cfg));
  }
  ServiceConfig ref_cfg;
  ref_cfg.workers = 1;
  AnalysisService reference(ref_cfg);

  // Warm phase: every key computed once on its home shard and once on the
  // reference — replies must match byte for byte. The population is
  // compact single-app admission checks: steady-state RM traffic repeats
  // a bounded set of admission questions, and parse cost scales with line
  // length, so the hot path measures serving overhead, not JSON length.
  std::vector<std::string> lines(kKeys);
  std::vector<std::size_t> home(kKeys);
  std::vector<std::string> expect(kKeys);
  std::set<std::size_t> shards_used;
  bool identical = true;
  for (int k = 0; k < kKeys; ++k) {
    lines[k] = "{\"id\":" + std::to_string(k) +
               ",\"op\":\"admission_check\",\"params\":{\"apps\":[{\"rate\":" +
               std::to_string(0.01 + 0.001 * k) + "}]}}";
    const auto req = pap::serve::parse_request(lines[k]);
    home[k] = pap::serve::Client::route(req.value().key(), kShards);
    shards_used.insert(home[k]);
    expect[k] = reference.handle(lines[k]);
    const std::string sharded = fleet[home[k]]->handle(lines[k]);
    if (sharded != expect[k]) identical = false;
  }
  check(identical, "4-shard replies byte-identical to single service");
  check(shards_used.size() == kShards, "routing uses every shard");

  // Steady state: closed-loop traffic over the warmed population, every
  // request answered from its home shard. Cache-hit replies fire
  // synchronously on the submitting thread by contract, so a plain slot
  // captures them — no future round trip per request.
  std::atomic<long> next{0};
  std::atomic<long> mismatches{0};
  const auto t0 = Clock::now();
  std::vector<std::thread> threads;
  for (int t = 0; t < kSubmitters; ++t) {
    threads.emplace_back([&] {
      std::string reply;
      auto capture = [&reply](std::string r) { reply = std::move(r); };
      for (;;) {
        const long i = next.fetch_add(1);
        if (i >= kHot) return;
        const int k = static_cast<int>(i % kKeys);
        reply.clear();
        fleet[home[k]]->submit(lines[k], capture);
        if (reply != expect[k]) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  const double seconds =
      std::chrono::duration<double>(Clock::now() - t0).count();
  const double rps = static_cast<double>(kHot) / seconds;

  long hits = 0;
  for (const auto& s : fleet) {
    const auto entry =
        s->counters().sample("serve", "admission_check/cache_hits");
    if (entry) hits += static_cast<long>(entry->value);
  }
  std::printf("sharded fleet: %ld requests over %d keys x %zu shards, "
              "%.2f s, %.0f req/s aggregate, %ld cache hits\n",
              kHot, kKeys, kShards, seconds, rps, hits);
  check(mismatches.load() == 0, "hot-path replies byte-identical throughout");
  check(hits >= kHot, "steady state served from each key's home shard LRU");
  check(rps >= 100000.0, "sustained >= 100k req/s aggregate across 4 shards");

  for (auto& s : fleet) s->shutdown();
  reference.shutdown();
  return BenchRow{"BM_ServeShardedHot", seconds * 1e9 / kHot, kHot};
}

/// Section 5: restart warmth. A fresh service over the same cache
/// directory must serve previously computed answers from disk —
/// byte-identical, without rerunning the analysis.
BenchRow bench_disk_warm_restart() {
  const std::string dir =
      "bench_serve_diskcache-" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.cache_dir = dir;

  const std::vector<double> gbps = {0.5, 1.0, 2.0, 4.0,  5.0,
                                    6.0, 6.5, 7.0, 7.2};
  auto line = [](std::size_t i, double g) {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "{\"id\": %zu, \"op\": \"wcd_bound\", "
                  "\"params\": {\"write_gbps\": %.17g}}",
                  i, g);
    return std::string(buf);
  };

  // Cold run: compute and persist.
  std::vector<std::string> first(gbps.size());
  {
    AnalysisService service(cfg);
    for (std::size_t i = 0; i < gbps.size(); ++i) {
      first[i] = service.handle(line(i, gbps[i]));
    }
    service.shutdown();
  }

  // Restart: a new service, empty LRU, same directory.
  AnalysisService restarted(cfg);
  bool identical = true;
  double total_ns = 0.0;
  for (std::size_t i = 0; i < gbps.size(); ++i) {
    const auto t0 = Clock::now();
    const std::string reply = restarted.handle(line(i, gbps[i]));
    total_ns +=
        std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
    if (reply != first[i]) identical = false;
  }
  const auto entry =
      restarted.counters().sample("serve", "wcd_bound/disk_hits");
  const long disk_hits = entry ? static_cast<long>(entry->value) : 0;

  std::printf("disk warm restart: %zu requests, %ld disk hits\n",
              gbps.size(), disk_hits);
  check(disk_hits > 0, "restarted service answers from the disk tier");
  check(disk_hits == static_cast<long>(gbps.size()),
        "every previously computed answer came from disk");
  check(identical, "disk-served replies byte-identical to the first run");

  restarted.shutdown();
  std::filesystem::remove_all(dir);
  return BenchRow{"BM_ServeDiskWarmRestart",
                  total_ns / static_cast<double>(gbps.size()),
                  static_cast<long long>(gbps.size())};
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_dir = ".";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--out-dir=", 10) == 0) {
      out_dir = argv[i] + 10;
    } else if (std::strcmp(argv[i], "--out-dir") == 0 && i + 1 < argc) {
      out_dir = argv[++i];
    }
  }

  std::printf("== serving throughput ==\n");
  std::vector<BenchRow> rows;
  rows.push_back(bench_admission_throughput());
  std::printf("== wcd byte identity ==\n");
  rows.push_back(bench_wcd_byte_identity());
  std::printf("== overload behaviour ==\n");
  rows.push_back(bench_overload());
  std::printf("== sharded fleet ==\n");
  rows.push_back(bench_sharded_fleet());
  std::printf("== disk warm restart ==\n");
  rows.push_back(bench_disk_warm_restart());

  const std::string report = out_dir + "/BENCH_serve.json";
  if (!pap::bench::write_bench_report(report, "serve", rows)) {
    std::fprintf(stderr, "serving_throughput: cannot write %s\n",
                 report.c_str());
    return 1;
  }
  std::printf("serving_throughput: wrote %s\n", report.c_str());
  if (g_failures > 0) {
    std::printf("serving_throughput: %d check(s) FAILED\n", g_failures);
    return 1;
  }
  std::printf("serving_throughput: all checks passed\n");
  return 0;
}
