// The four benchmark workloads (untraced, end-to-end metrics) and the
// traced per-layer run.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "common.hpp"

namespace bench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string papd;     ///< papd binary
  std::string workdir;  ///< sockets and the Chrome trace go here
};

/// Rounds per run of the serve and churn workloads, each against a freshly
/// started papd; also the set-up repetitions of sim_families.
constexpr int kRounds = 10;

/// Open-loop offered rates (requests/s): absolute constants, a tenth to a
/// fifth of the closed-loop capacity measured when the benchmark was
/// introduced (4-vCPU x86-64 microVM, papd --workers 2 --reactors 1: about
/// 60k req/s hot, 15k req/s cold). Nearer half of capacity, queueing
/// amplified host-speed noise into 30-45% swings of the median.
constexpr double kHotRate = 10000.0;
constexpr double kColdRate = 1500.0;

/// Share of each round given to the closed-loop saturation phase of the
/// serve workloads; the rest is the open-loop latency phase.
constexpr double kClosedShare = 0.4;

/// sim_families members expanded at set-up (five cycles of the family mix).
constexpr std::size_t kSimGroup = 30;

/// The calibration loop of sim_families (see calibration_us): its length in
/// multiply-add steps, and its nominal time. sim_families reports its times
/// at the host speed at which the loop takes kCalibUs: about its
/// 2nd-percentile time on the 4-vCPU x86-64 microVM the benchmark was
/// introduced on, which ranged from 667 us in quiet stretches to 770 us in
/// busy ones.
constexpr long kCalibSteps = 500000;
constexpr double kCalibUs = 700.0;

/// Closed-loop shape of the serve workloads.
constexpr int kConnections = 2;
constexpr int kPipeline = 8;

void run_serve_hot(const Options& o, Report& r);
void run_serve_cold(const Options& o, Report& r);
void run_admit_churn(const Options& o, Report& r);
void run_sim_families(const Options& o, Report& r);

/// The traced run: per-layer metrics of every workload.
void run_anatomy(const Options& o, Report& r);

/// Per-op counters of a papd `stats` payload.
struct OpStats {
  double requests = 0, cache_hits = 0, coalesced = 0,
         overloaded = 0, count = 0, p50_us = 0;
};
std::map<std::string, OpStats> parse_stats(const std::string& payload);
/// Sum of `field` over every op, after minus before.
double stats_delta(const std::map<std::string, OpStats>& before,
                   const std::map<std::string, OpStats>& after,
                   double OpStats::*field);

/// Expected reply of an in-process stateless dispatch for `line`, the bytes
/// papd must send: ok_reply(id, render_result(dispatch(...))).
std::string expected_reply(const std::string& line);

/// /proc/stat steal time, seconds, summed over CPUs.
double steal_seconds();

}  // namespace bench
