// Cross-commit byte-identity of the SoC simulator.
//
// The simulator's outputs are folded into FNV-1a digests and compared with
// committed constants:
//  * members: `Result::serialize()` of 64 seeded family members (16 each
//    of flash_crowd, diurnal, mode_storm and hog_mix) run through
//    `scenario::run_parsed`, the path `pap_scenario` and papd take;
//  * counters: every component counter of one member per family — the
//    Soc's, the DRAM controller's and each L1/L3 cache's per-requester
//    rows — read by qualified name from `ScenarioResult::counters`;
//  * trace: the counter CSV and the Chrome trace JSON of one member run
//    with a simulated-time tracer attached.
//
// The constants are the digests of the implementation they were captured
// from. A change to the kernel's event order, a dropped or doubled counter
// bump, or one picosecond of latency anywhere changes a digest. A
// deliberate behaviour change must re-capture the constants and say why; a
// refactor of the simulator's hot path must leave them alone.
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "platform/scenario.hpp"
#include "scenario/generate.hpp"
#include "scenario/run.hpp"
#include "trace/chrome_trace.hpp"
#include "trace/tracer.hpp"

namespace {

// Captured digests (see the file comment).
constexpr std::uint64_t kMembersDigest = 0x759eef15c7a9e145;
constexpr std::uint64_t kCountersDigest = 0x35faf752d1802184;
constexpr std::uint64_t kTraceCsvDigest = 0x8503ae27f4dbff2f;
constexpr std::uint64_t kTraceJsonDigest = 0xbd2fde7f555a054d;

const char* const kFamilies[] = {"flash_crowd", "diurnal", "mode_storm",
                                 "hog_mix"};

class Digest {
 public:
  void str(const std::string& s) {
    u64(s.size());
    for (const char c : s) byte(static_cast<unsigned char>(c));
  }
  void u64(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) byte(static_cast<unsigned char>(v >> (8 * b)));
  }
  std::uint64_t value() const { return h_; }

 private:
  void byte(unsigned char b) {
    h_ ^= b;
    h_ *= 0x100000001b3ULL;
  }
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

pap::scenario::Scenario member(const char* family, int seed, int index) {
  auto s = pap::scenario::generate_scenario(family, seed, index);
  EXPECT_TRUE(s.has_value()) << family << " " << seed << " " << index;
  return s.value();
}

TEST(SimGolden, FamilyMemberResultsAreByteIdentical) {
  Digest d;
  std::int64_t accesses = 0;
  for (const char* family : kFamilies) {
    for (int seed = 1; seed <= 4; ++seed) {
      for (int index = 0; index < 4; ++index) {
        const auto r = pap::scenario::run_parsed(member(family, seed, index));
        ASSERT_TRUE(r.has_value()) << r.error_message();
        d.str(r.value().serialize());
        accesses += r.value().at("rt_accesses").as_int() +
                    r.value().at("hog_accesses").as_int();
      }
    }
  }
  EXPECT_GT(accesses, 100000);
  EXPECT_EQ(d.value(), kMembersDigest) << std::hex << "digest 0x" << d.value();
}

TEST(SimGolden, ComponentCountersAreByteIdentical) {
  // Names a reader may ask for. A counter the run never touched reads 0,
  // whether or not the component lists it.
  const char* const kSoc[] = {"accesses",        "l1_hits",
                              "l3_hits",         "dram_accesses",
                              "memguard_stalls", "mpam_bw_stalls"};
  const char* const kDram[] = {
      "reads_submitted",     "writes_submitted",  "injected_stalls",
      "switches_to_write",   "switches_to_read",  "refreshes",
      "read_hit_promotions", "read_hits",         "write_hits",
      "read_misses",         "write_misses"};
  const char* const kCache[] = {"hits", "misses", "bypasses",
                                "evictions_suffered"};
  Digest d;
  for (const char* family : kFamilies) {
    const auto s = member(family, 2, 1);
    const auto run = pap::platform::run_scenario(s.soc, s.name);
    ASSERT_TRUE(run.has_value()) << run.error_message();
    std::map<std::string, std::int64_t> counters;
    for (const auto& [name, value] : run.value().counters) {
      EXPECT_TRUE(counters.emplace(name, value).second) << name;
    }
    const auto read = [&](const std::string& name) {
      const auto it = counters.find(name);
      const std::int64_t v = it == counters.end() ? 0 : it->second;
      d.str(name);
      d.u64(static_cast<std::uint64_t>(v));
      return v;
    };
    for (const char* n : kSoc) read(std::string("soc.") + n);
    for (const char* n : kDram) read(std::string("dram.") + n);
    std::int64_t l1_hits = 0, l3_misses = 0;
    for (int core = 0; core < 16; ++core) {
      for (int who = 0; who < 8; ++who) {
        for (const char* n : kCache) {
          const std::string key = std::to_string(core) + "." +
                                  std::to_string(who) + "." + n;
          const std::int64_t v = read("l1." + key);
          if (std::string(n) == "hits") l1_hits += v;
          if (core < 4) {
            const std::int64_t w = read("l3." + key);
            if (std::string(n) == "misses") l3_misses += w;
          }
        }
      }
    }
    // The Soc's own tallies and the caches' rows describe the same run.
    EXPECT_GT(counters["soc.accesses"], 0) << family;
    EXPECT_EQ(l1_hits, counters["soc.l1_hits"]) << family;
    EXPECT_EQ(l3_misses, counters["soc.dram_accesses"]) << family;
  }
  EXPECT_EQ(d.value(), kCountersDigest) << std::hex << "digest 0x" << d.value();
}

TEST(SimGolden, TracedMemberCsvAndChromeTraceAreByteIdentical) {
  pap::trace::Tracer tracer;
  pap::scenario::RunOptions opts;
  opts.tracer = &tracer;
  const auto traced =
      pap::scenario::run_parsed(member("hog_mix", 3, 2), opts);
  ASSERT_TRUE(traced.has_value()) << traced.error_message();
  // Tracing never changes the result.
  const auto plain = pap::scenario::run_parsed(member("hog_mix", 3, 2));
  ASSERT_TRUE(plain.has_value());
  EXPECT_EQ(traced.value().serialize(), plain.value().serialize());

  const std::string csv = tracer.counters().csv();
  const std::string json = pap::trace::to_chrome_json(tracer);
  EXPECT_NE(csv.find("row_hits"), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  Digest dc, dj;
  dc.str(csv);
  dj.str(json);
  EXPECT_EQ(dc.value(), kTraceCsvDigest) << std::hex << "digest 0x"
                                         << dc.value();
  EXPECT_EQ(dj.value(), kTraceJsonDigest) << std::hex << "digest 0x"
                                          << dj.value();
}

}  // namespace
