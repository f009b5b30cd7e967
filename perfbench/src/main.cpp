// pap_bench — the repo benchmark harness (see perfbench/README.md).
//
//   pap_bench --workload serve_hot|serve_cold|admit_churn|sim_families
//             --seed N --seconds S --trace 0|1 --papd PATH --workdir DIR
//
// --trace 0 prints the end-to-end metrics of the workload; --trace 1 runs
// the traced per-layer anatomy instead. Report lines come first on stdout;
// the last line is one JSON object {"correct", "attempted", "failed",
// "metrics"}. A failed check or guard prints the reason on stderr and
// exits 1.
#include <sys/utsname.h>
#include <unistd.h>

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.hpp"
#include "papd.hpp"
#include "workloads.hpp"

#ifndef PAP_BENCH_BUILD_TYPE
#define PAP_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef PAP_BENCH_CXX_FLAGS
#define PAP_BENCH_CXX_FLAGS "unknown"
#endif

namespace bench {

void Report::note(const char* fmt, ...) {
  char buf[2048];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  lines.emplace_back(buf);
}

}  // namespace bench

namespace {

using bench::Options;
using bench::Report;

int usage(const char* why) {
  std::fprintf(stderr,
               "pap_bench: %s\n"
               "usage: pap_bench --workload NAME --seed N --seconds S "
               "--trace 0|1 --papd PATH --workdir DIR\n"
               "workloads: serve_hot serve_cold admit_churn sim_families\n",
               why);
  return 2;
}

bool parse_args(int argc, char** argv, Options* o) {
  bool have[4] = {};
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      o->workload = v;
      have[0] = true;
    } else if (k == "--seed") {
      o->seed = std::strtoull(v, &end, 10);
      if (*end != '\0') return false;
      have[1] = true;
    } else if (k == "--seconds") {
      o->seconds = std::strtod(v, &end);
      if (*end != '\0' || o->seconds <= 0 || o->seconds > 600) return false;
      have[2] = true;
    } else if (k == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) return false;
      o->trace = v[0] == '1';
      have[3] = true;
    } else if (k == "--papd") {
      o->papd = v;
    } else if (k == "--workdir") {
      o->workdir = v;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && have[0] && have[1] && have[2] && have[3] &&
         !o->papd.empty() && !o->workdir.empty();
}

/// Host and build facts recorded with every result, so noise and build
/// differences can be explained after the fact.
void metadata(const Options& o, Report& r) {
  utsname u{};
  ::uname(&u);
  std::string flags;
  for (const auto& f : bench::papd_flags()) flags += " " + f;
  r.note("meta: workload %s, seed %llu, seconds %g, trace %d",
         o.workload.c_str(), static_cast<unsigned long long>(o.seed),
         o.seconds, o.trace ? 1 : 0);
  r.note("meta: build %s, flags '%s', compiler gcc %s", PAP_BENCH_BUILD_TYPE,
         PAP_BENCH_CXX_FLAGS, __VERSION__);
  r.note("meta: nproc %ld, kernel %s %s %s", ::sysconf(_SC_NPROCESSORS_ONLN),
         u.sysname, u.release, u.machine);
  r.note("meta: papd%s", flags.c_str());
}

/// Only a run whose checks all passed gets here, so `correct` is true.
void print_result(const Report& r) {
  for (const auto& line : r.lines) std::printf("%s\n", line.c_str());
  std::string json = std::string("{\"correct\": true") +
                     ", \"attempted\": " + std::to_string(r.attempted) +
                     ", \"failed\": " + std::to_string(r.failed) +
                     ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", m.value);
    json += std::string(first ? "" : ", ") + "\"" + name +
            "\": {\"value\": " + buf + ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
#ifndef __OPTIMIZE__
  std::fprintf(stderr, "pap_bench: refusing to measure a non-optimized "
                       "build (build type %s)\n", PAP_BENCH_BUILD_TYPE);
  return 2;
#endif
  Options o;
  if (!parse_args(argc, argv, &o)) return usage("bad arguments");
  if (o.workload != "serve_hot" && o.workload != "serve_cold" &&
      o.workload != "admit_churn" && o.workload != "sim_families") {
    return usage(("unknown workload '" + o.workload + "'").c_str());
  }
  Report r;
  metadata(o, r);
  try {
    const double steal0 = bench::steal_seconds();
    const auto t0 = bench::Clock::now();
    if (o.trace) {
      bench::run_anatomy(o, r);
    } else if (o.workload == "serve_hot") {
      bench::run_serve_hot(o, r);
    } else if (o.workload == "serve_cold") {
      bench::run_serve_cold(o, r);
    } else if (o.workload == "admit_churn") {
      bench::run_admit_churn(o, r);
    } else {
      bench::run_sim_families(o, r);
    }
    r.note("meta: wall %.2f s, host steal %.3f s (all CPUs, /proc/stat)",
           bench::seconds_since(t0), bench::steal_seconds() - steal0);
    r.note("fail_ratio %ld/%ld = %.6f", r.failed, r.attempted,
           r.attempted ? static_cast<double>(r.failed) / r.attempted : 0.0);
  } catch (const bench::BenchError& e) {
    for (const auto& line : r.lines) std::fprintf(stderr, "%s\n", line.c_str());
    std::fprintf(stderr, "pap_bench: %s: %s\n", o.workload.c_str(), e.what());
    return 1;
  }
  print_result(r);
  return 0;
}
