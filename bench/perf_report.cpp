// Perf-regression harness: runs the shared microbenchmark set and writes the
// results to BENCH_nc.json (NC curve algebra + WCD analysis),
// BENCH_sim.json (DES kernel) and BENCH_protocol.json (papd request parse +
// cache key) in a stable, diff-friendly schema:
//
//   {
//     "schema": "pap-bench-v1",
//     "suite": "nc",
//     "benchmarks": [
//       {"name": "BM_NcDeconvolve", "real_ns": 1.23e3,
//        "cpu_ns": 1.20e3, "iterations": 567890},
//       ...
//     ]
//   }
//
// No timestamps or host info on purpose: reruns on the same machine diff
// cleanly except for the numbers. tools/bench_compare.py consumes these
// files, both to compare a fresh run against the committed baselines (warn
// or fail on >25% regressions) and to enforce machine-independent
// optimized-vs-reference speedup floors. See docs/performance.md.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_report.hpp"
#include "perf_benchmarks.hpp"

namespace {

using pap::bench::BenchRow;

/// Collects per-iteration results while still printing the familiar console
/// table, so interactive runs remain readable.
class CollectingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const auto& r : runs) {
      if (r.run_type != Run::RT_Iteration) continue;
      if (r.error_occurred) continue;
      results_.push_back(BenchRow{
          r.benchmark_name(), r.GetAdjustedRealTime(),
          static_cast<long long>(r.iterations), r.GetAdjustedCPUTime()});
    }
    ConsoleReporter::ReportRuns(runs);
  }

  const std::vector<BenchRow>& results() const { return results_; }

 private:
  std::vector<BenchRow> results_;
};

bool is_sim_bench(const std::string& name) {
  return name.rfind("BM_Kernel", 0) == 0 || name.rfind("BM_Sim", 0) == 0;
}

bool is_protocol_bench(const std::string& name) {
  return name.rfind("BM_ServeParse", 0) == 0;
}

bool write_suite(const std::string& path, const std::string& suite,
                 const std::vector<BenchRow>& results) {
  if (!pap::bench::write_bench_report(path, suite, results)) {
    std::fprintf(stderr, "perf_report: cannot write %s\n", path.c_str());
    return false;
  }
  std::printf("perf_report: wrote %zu benchmarks to %s\n", results.size(),
              path.c_str());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  // Strip our own flags before google-benchmark sees the argv.
  // --min-runtime-ms N is a warmup/repeat knob: it maps to google-benchmark's
  // --benchmark_min_time=<N/1000>s, forcing every benchmark to run at least
  // that long so short kernels get enough iterations for a stable median on
  // noisy CI runners.
  std::string out_dir = ".";
  std::string min_time_flag;  // owns the synthesized argv entry
  std::vector<char*> args;
  args.push_back(argv[0]);
  auto set_min_runtime = [&](const char* val) {
    const double ms = std::atof(val);
    if (ms <= 0.0) {
      std::fprintf(stderr,
                   "perf_report: --min-runtime-ms needs a positive number, "
                   "got '%s'\n",
                   val);
      std::exit(64);
    }
    min_time_flag = "--benchmark_min_time=" + std::to_string(ms / 1000.0);
  };
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--out-dir=", 10) == 0) {
      out_dir = argv[i] + 10;
    } else if (std::strcmp(argv[i], "--out-dir") == 0 && i + 1 < argc) {
      out_dir = argv[++i];
    } else if (std::strncmp(argv[i], "--min-runtime-ms=", 17) == 0) {
      set_min_runtime(argv[i] + 17);
    } else if (std::strcmp(argv[i], "--min-runtime-ms") == 0 && i + 1 < argc) {
      set_min_runtime(argv[++i]);
    } else {
      args.push_back(argv[i]);
    }
  }
  if (!min_time_flag.empty()) args.push_back(min_time_flag.data());
  int bench_argc = static_cast<int>(args.size());
  benchmark::Initialize(&bench_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data())) {
    return 1;
  }

  CollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  std::vector<BenchRow> nc_results;
  std::vector<BenchRow> sim_results;
  std::vector<BenchRow> protocol_results;
  for (const auto& r : reporter.results()) {
    (is_sim_bench(r.name)        ? sim_results
     : is_protocol_bench(r.name) ? protocol_results
                                 : nc_results)
        .push_back(r);
  }
  const bool ok =
      write_suite(out_dir + "/BENCH_nc.json", "nc", nc_results) &&
      write_suite(out_dir + "/BENCH_sim.json", "sim", sim_results) &&
      write_suite(out_dir + "/BENCH_protocol.json", "protocol",
                  protocol_results);
  return ok ? 0 : 1;
}
