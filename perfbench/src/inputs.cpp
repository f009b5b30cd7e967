#include "inputs.hpp"

#include <cstdio>
#include <set>

#include "wire.hpp"

namespace bench {

namespace {

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.6f", v);
  return buf;
}
std::string num(long v) { return std::to_string(v); }

std::string app_json(Rng& rng, int cols, int rows, double rate_lo,
                     double rate_hi) {
  return "{\"burst\":" + num(rng.uniform(1, 8)) +
         ",\"rate\":" + num(rng.real(rate_lo, rate_hi)) +
         ",\"src_x\":" + num(rng.uniform(0, cols - 1)) +
         ",\"src_y\":" + num(rng.uniform(0, rows - 1)) +
         ",\"dst_x\":" + num(rng.uniform(0, cols - 1)) +
         ",\"dst_y\":" + num(rng.uniform(0, rows - 1)) +
         ",\"deadline_ns\":" + num(rng.real(2000.0, 8000.0)) +
         ",\"uses_dram\":" + (rng.chance(0.25) ? "true" : "false") +
         ",\"critical\":" + (rng.chance(0.5) ? "true" : "false") + "}";
}

std::string admission_check(Rng& rng, int mesh, int apps) {
  std::string body = "\"op\":\"admission_check\",\"params\":{\"mesh_cols\":" +
                     num(static_cast<long>(mesh)) + ",\"mesh_rows\":" +
                     num(static_cast<long>(mesh)) +
                     ",\"noc_budget_gbps\":" + num(rng.real(8.0, 64.0)) +
                     ",\"apps\":[";
  for (int a = 0; a < apps; ++a) {
    if (a) body += ',';
    body += app_json(rng, mesh, mesh, 0.05, 1.5);
  }
  return body + "]}}";
}

std::string wcd_bound(Rng& rng) {
  static const char* kPolicies[] = {"frfcfs", "fcfs", "close_page",
                                    "starvation_guard"};
  static const char* kDevices[] = {"ddr3_1600", "ddr4_2400", "lpddr4_3200"};
  return "\"op\":\"wcd_bound\",\"params\":{\"write_gbps\":" +
         num(rng.real(0.5, 6.0)) + ",\"n\":" + num(rng.uniform(1, 32)) +
         ",\"dram\":{\"policy\":\"" + kPolicies[rng.uniform(0, 3)] +
         "\",\"device\":\"" + kDevices[rng.uniform(0, 2)] + "\"}}}";
}

std::string nc_delay(Rng& rng) {
  return "\"op\":\"nc_delay\",\"params\":{\"arrival\":{\"burst\":" +
         num(rng.real(1.0, 64.0)) + ",\"rate\":" + num(rng.real(0.5, 12.0)) +
         "},\"service\":{\"rate\":" + num(rng.real(12.8, 25.6)) +
         ",\"latency_ns\":" + num(rng.real(50.0, 500.0)) + "}}}";
}

}  // namespace

std::string with_id(long id, const std::string& body) {
  return "{\"id\":" + std::to_string(id) + "," + body;
}

std::vector<std::string> hot_population(std::uint64_t seed) {
  Rng rng(seed ^ 0x407u);
  std::set<std::string> seen;
  std::vector<std::string> out;
  while (out.size() < kHotPopulation) {
    const std::size_t slot = out.size() % 4;
    std::string body = slot < 2 ? admission_check(rng, 4, 2)
                       : slot == 2 ? wcd_bound(rng)
                                   : nc_delay(rng);
    if (seen.insert(body).second) out.push_back(std::move(body));
  }
  return out;
}

std::size_t hot_member(std::uint64_t seed, long id) {
  Rng rng(seed * 0x51ED27u + static_cast<std::uint64_t>(id));
  return static_cast<std::size_t>(rng.next() % kHotPopulation);
}

std::string cold_body(std::uint64_t seed, long index) {
  Rng rng((seed << 32) ^ static_cast<std::uint64_t>(index) ^ 0xC01Du);
  const long slot = rng.uniform(0, 9);
  if (slot < 4) {
    return admission_check(rng, 8, static_cast<int>(rng.uniform(2, 16)));
  }
  return slot < 7 ? wcd_bound(rng) : nc_delay(rng);
}

std::string churn_open_body() {
  return "\"op\":\"admission_open\",\"params\":{\"mesh_cols\":" +
         std::to_string(kChurnMesh) +
         ",\"mesh_rows\":" + std::to_string(kChurnMesh) + "}}";
}

std::string ChurnGen::next(long session, bool prefill) {
  const std::string s = "{\"session\":" + std::to_string(session);
  // Releases balance admits around the prefill population.
  const double release_p =
      0.5 * static_cast<double>(resident_.size()) / kChurnTarget;
  if (!prefill && !resident_.empty() && rng_.chance(release_p)) {
    const std::size_t at = rng_.next() % resident_.size();
    pending_app_ = resident_[at];
    resident_[at] = resident_.back();
    resident_.pop_back();
    pending_admit_ = false;
    return "\"op\":\"admission_release\",\"params\":" + s +
           ",\"app\":" + std::to_string(pending_app_) + "}}";
  }
  // Tile-local flow: the destination is a mesh neighbour, diagonal (two
  // hops) for one flow in ten. That keeps the flow/link sharing graph below
  // the percolation threshold while a decision's dirty component still
  // holds about 25 flows; one diagonal flow in five gave about 45, and
  // diagonal-or-straight +-1 in both axes 70 to 95 with millisecond tails.
  const long sx = rng_.uniform(0, kChurnMesh - 1);
  const long sy = rng_.uniform(0, kChurnMesh - 1);
  auto step = [&](long v) {
    const long d = rng_.chance(0.5) ? 1 : -1;
    return v + d < 0 || v + d >= kChurnMesh ? v - d : v + d;
  };
  const bool diagonal = rng_.chance(0.1);
  const bool along_x = rng_.chance(0.5);
  const long dx = diagonal || along_x ? step(sx) : sx;
  const long dy = diagonal || !along_x ? step(sy) : sy;
  pending_app_ = next_app_++;
  pending_admit_ = true;
  return "\"op\":\"admission_admit\",\"params\":" + s +
         ",\"app\":" + std::to_string(pending_app_) +
         ",\"rate\":" + num(rng_.real(0.004, 0.03)) +
         ",\"burst\":" + std::to_string(rng_.uniform(1, 6)) +
         ",\"src_x\":" + std::to_string(sx) + ",\"src_y\":" +
         std::to_string(sy) + ",\"dst_x\":" + std::to_string(dx) +
         ",\"dst_y\":" + std::to_string(dy) +
         ",\"deadline_ns\":" + num(rng_.real(600.0, 2400.0)) +
         ",\"uses_dram\":" + (rng_.chance(1.0 / 16.0) ? "true" : "false") +
         "}}";
}

void ChurnGen::observe(std::string_view reply) {
  if (pending_admit_ &&
      reply.find("\"admitted\":true") != std::string_view::npos) {
    resident_.push_back(pending_app_);
  }
  pending_admit_ = false;
}

Member sim_member(long i) {
  static const char* const kCycle[] = {"flash_crowd", "diurnal", "mode_storm"};
  const long slot = i % 6, cycle = i / 6;
  if (slot >= 3) {
    return Member{"hog_mix", static_cast<int>(3 * cycle + (slot - 3))};
  }
  return Member{kCycle[slot], static_cast<int>(cycle)};
}

}  // namespace bench
