// The canonical parameter encoding is an on-disk and on-wire contract:
// exp::content_hash keys the sweep result cache, and papd's Request::key()
// (op + ParamMap::canonical()) keys the LRU, request coalescing, the disk
// result cache and rendezvous shard routing. A change to one byte of it
// silently invalidates every cache and moves requests between shards.
//
// Two pins: the in-house hexfloat spelling of doubles equals glibc's
// printf("%a") on random bit patterns, and an FNV-1a digest over
// Value::canonical(), ParamMap::canonical() and content_hash of a seeded
// corpus equals the constant captured from the snprintf-based encoder.

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "common/time.hpp"
#include "exp/experiment.hpp"

namespace pap::exp {
namespace {

double from_bits(std::uint64_t bits) {
  double d = 0.0;
  std::memcpy(&d, &bits, sizeof d);
  return d;
}

// Specials plus random bit patterns; one in four has its exponent field
// forced to all-zeros (zero / subnormal) or all-ones (inf / NaN), which
// uniform bits almost never hit.
std::vector<double> doubles(std::uint64_t seed, int n) {
  std::vector<double> out = {
      0.0, -0.0, from_bits(1), -from_bits(1),
      from_bits(0x000FFFFFFFFFFFFFull), DBL_MIN, -DBL_MIN, DBL_MAX, -DBL_MAX,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
      from_bits(0x7FF0000000000001ull), from_bits(0xFFF8000000000001ull),
      1.0, -1.0, 0.5, 0.125, 3.0, 1e300, 1e-300, 0.1, 2.2250738585072009e-308};
  std::mt19937_64 rng(seed);
  while (out.size() < static_cast<std::size_t>(n)) {
    std::uint64_t bits = rng();
    switch (rng() % 8) {
      case 0: bits &= 0x800FFFFFFFFFFFFFull; break;  // zero / subnormal
      case 1: bits |= 0x7FF0000000000000ull; break;  // inf / NaN
      default: break;
    }
    out.push_back(from_bits(bits));
  }
  return out;
}

TEST(CanonicalEncoding, HexfloatMatchesPrintfOnRandomBitPatterns) {
  int mismatches = 0;
  for (const double d : doubles(0x4E7F10A7ull, 1'200'000)) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%a", d);
    const std::string want = std::string("d:") + buf;
    const std::string got = Value{d}.canonical();
    if (got != want && ++mismatches <= 5) {
      ADD_FAILURE() << "canonical " << got << " vs printf " << want;
    }
  }
  EXPECT_EQ(mismatches, 0);
}

std::string random_string(std::mt19937_64& rng) {
  static const char* parts[] = {"a", "rate", "\t", "\n", "\r", "\\", "\\t",
                                " ", ".", "-", "apps.0", "\xc3\xa9", "x\\n"};
  std::string s;
  for (int i = static_cast<int>(rng() % 4); i >= 0; --i) {
    s += parts[rng() % (sizeof(parts) / sizeof(parts[0]))];
  }
  return s;
}

std::vector<Value> values(std::uint64_t seed) {
  std::vector<Value> out;
  for (const double d : doubles(seed, 3000)) out.emplace_back(d);
  for (const std::int64_t i :
       {std::int64_t{0}, std::int64_t{-1}, std::int64_t{1}, INT64_MAX,
        INT64_MIN, INT64_MIN + 1, std::int64_t{1} << 53}) {
    out.emplace_back(i);
    out.emplace_back(Time::ps(i));
  }
  out.emplace_back(true);
  out.emplace_back(false);
  out.emplace_back(std::string());
  std::mt19937_64 rng(seed ^ 0x5151);
  for (int i = 0; i < 500; ++i) {
    out.emplace_back(random_string(rng));
    out.emplace_back(static_cast<std::int64_t>(rng()));
    out.emplace_back(Time::ps(static_cast<std::int64_t>(rng() >> 1)));
  }
  return out;
}

std::uint64_t fnv1a(std::uint64_t h, const std::string& s) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  h ^= 0xff;  // record separator
  return h * 1099511628211ull;
}

TEST(CanonicalEncoding, DigestMatchesSnprintfEncoder) {
  const auto vals = values(0xCA7A106ull);
  std::uint64_t h = 14695981039346656037ull;
  for (const Value& v : vals) h = fnv1a(h, v.canonical());

  // Maps of 1..12 entries with escaped keys, and their content hashes under
  // two experiment identities.
  std::mt19937_64 rng(0xD16E57ull);
  Experiment a;
  a.name = "wcd_bound";
  Experiment b;
  b.name = "admission_check";
  b.version = 3;
  for (int m = 0; m < 400; ++m) {
    Params p;
    const int n = 1 + static_cast<int>(rng() % 12);
    for (int i = 0; i < n; ++i) {
      p.set(random_string(rng) + std::to_string(i), vals[rng() % vals.size()]);
    }
    h = fnv1a(h, p.canonical());
    h = fnv1a(h, std::to_string(content_hash(a, p)));
    h = fnv1a(h, std::to_string(content_hash(b, p)));
  }
  h = fnv1a(h, Params{}.canonical());
  EXPECT_EQ(h, 0x7503b6a733819ee9ull) << std::hex << "digest 0x" << h;
}

}  // namespace
}  // namespace pap::exp
