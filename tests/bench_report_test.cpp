// The shared pap-bench-v1 writer (bench/bench_report.hpp): the exact bytes
// tools/bench_compare.py and the committed BENCH_*.json baselines expect,
// and a false return whenever the report does not reach the file.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_report.hpp"

namespace pap::bench {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(BenchReport, WritesTheSchemaByteForByte) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("bench_report_test_" + std::to_string(::getpid()) + ".json"))
          .string();
  const std::vector<BenchRow> rows{
      {"BM_Wall/10000", 5874.25, 600, std::nullopt},
      {"BM_Cpu", 1.5e9, 3, 1.25e9},
  };
  ASSERT_TRUE(write_bench_report(path, "admit", rows));
  EXPECT_EQ(slurp(path),
            "{\n"
            "  \"schema\": \"pap-bench-v1\",\n"
            "  \"suite\": \"admit\",\n"
            "  \"benchmarks\": [\n"
            "    {\"name\": \"BM_Wall/10000\", \"real_ns\": 5874.25, "
            "\"cpu_ns\": 5874.25, \"iterations\": 600},\n"
            "    {\"name\": \"BM_Cpu\", \"real_ns\": 1.5e+09, "
            "\"cpu_ns\": 1.25e+09, \"iterations\": 3}\n"
            "  ]\n"
            "}\n");
  std::filesystem::remove(path);
}

TEST(BenchReport, FullDeviceIsAFailedWrite) {
  if (::access("/dev/full", W_OK) != 0) GTEST_SKIP() << "no /dev/full";
  // fopen succeeds and every fprintf fits the stdio buffer; the ENOSPC
  // surfaces only when fclose flushes, and must still come back as false.
  EXPECT_FALSE(write_bench_report("/dev/full", "nc",
                                  {{"BM_X", 1.0, 1, std::nullopt}}));
}

TEST(BenchReport, UnopenablePathIsAFailedWrite) {
  EXPECT_FALSE(write_bench_report("/nonexistent-dir/BENCH_nc.json", "nc", {}));
}

}  // namespace
}  // namespace pap::bench
