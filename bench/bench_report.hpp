// The pap-bench-v1 report writer shared by perf_report, admission_churn and
// serving_throughput:
//
//   {
//     "schema": "pap-bench-v1",
//     "suite": "nc",
//     "benchmarks": [
//       {"name": "BM_NcDeconvolve", "real_ns": 1230,
//        "cpu_ns": 1200, "iterations": 567890},
//       ...
//     ]
//   }
//
// (each row is written on one line). tools/bench_compare.py reads these
// files; see docs/performance.md.
#pragma once

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

namespace pap::bench {

struct BenchRow {
  std::string name;
  double real_ns = 0.0;  // per iteration
  long long iterations = 0;
  /// Unset for wall-clock benches, which report real_ns in its place.
  std::optional<double> cpu_ns;
};

/// Writes `rows` to `path` as one pap-bench-v1 suite. False when the file
/// cannot be opened or any byte of it fails to reach the file (a short
/// write, a full disk, a failed close); the caller reports the failure.
inline bool write_bench_report(const std::string& path,
                               const std::string& suite,
                               const std::vector<BenchRow>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"schema\": \"pap-bench-v1\",\n");
  std::fprintf(f, "  \"suite\": \"%s\",\n", suite.c_str());
  std::fprintf(f, "  \"benchmarks\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"real_ns\": %.6g, "
                 "\"cpu_ns\": %.6g, \"iterations\": %lld}%s\n",
                 r.name.c_str(), r.real_ns, r.cpu_ns.value_or(r.real_ns),
                 r.iterations, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n");
  std::fprintf(f, "}\n");
  const bool written = std::ferror(f) == 0;
  return std::fclose(f) == 0 && written;
}

}  // namespace pap::bench
