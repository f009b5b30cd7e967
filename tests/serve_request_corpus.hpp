// Seeded request-line corpora for the papd parser tests: adversarial byte
// soup, JSON-token soup, mutations of one valid request, and well-formed
// requests with random nested params. Each generator is deterministic in
// its seed, so a failing line reproduces. Shared by serve_protocol_test
// (never crash, always a message) and serve_parse_oracle_test (exactly the
// oracle's answer).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

namespace pap::serve::corpus {

/// Uniform random bytes, 0..300 long.
inline std::vector<std::string> random_bytes(std::uint32_t seed, int n) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> len(0, 300);
  std::uniform_int_distribution<int> byte(0, 255);
  std::vector<std::string> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    std::string line;
    const int k = len(rng);
    line.reserve(static_cast<std::size_t>(k));
    for (int j = 0; j < k; ++j) line.push_back(static_cast<char>(byte(rng)));
    out.push_back(std::move(line));
  }
  return out;
}

/// Random concatenations of JSON-ish tokens: these reach much deeper into
/// the parser than uniform bytes (which almost always die at byte 0).
inline std::vector<std::string> token_soup(std::uint32_t seed, int n) {
  const char* tokens[] = {"{", "}", "[", "]", ":", ",",  "\"id\"", "\"op\"",
                          "\"params\"", "\"x\"", "1",  "-1",  "1e9",
                          "1e999", "0.5", "true", "false", "null",
                          "\"\\u00e9\"", "\"\\q\"", " ", "\\"};
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> count(1, 40);
  std::uniform_int_distribution<std::size_t> pick(
      0, sizeof(tokens) / sizeof(tokens[0]) - 1);
  std::vector<std::string> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    std::string line;
    const int k = count(rng);
    for (int j = 0; j < k; ++j) line += tokens[pick(rng)];
    out.push_back(std::move(line));
  }
  return out;
}

/// The valid request every mutation starts from.
inline const std::string& mutation_seed() {
  static const std::string line =
      R"({"id":12,"op":"admission_check","params":{"noc":{"width":4},)"
      R"("apps":[{"rate":0.125,"name":"cam"}],"strict":true}})";
  return line;
}

/// 1-4 random byte flips / deletions / insertions of mutation_seed().
inline std::vector<std::string> mutated(std::uint32_t seed, int n) {
  const std::string& seed_line = mutation_seed();
  std::mt19937 rng(seed);
  std::uniform_int_distribution<std::size_t> pos(0, seed_line.size() - 1);
  std::uniform_int_distribution<int> byte(0, 255);
  std::uniform_int_distribution<int> edits(1, 4);
  std::vector<std::string> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    std::string line = seed_line;
    const int k = edits(rng);
    for (int j = 0; j < k; ++j) {
      switch (byte(rng) % 3) {
        case 0:  // flip
          line[pos(rng) % line.size()] = static_cast<char>(byte(rng));
          break;
        case 1:  // delete
          line.erase(pos(rng) % line.size(), 1);
          break;
        default:  // insert
          line.insert(pos(rng) % line.size(), 1,
                      static_cast<char>(byte(rng)));
          break;
      }
      if (line.empty()) line = "x";
    }
    out.push_back(std::move(line));
  }
  return out;
}

namespace detail {

inline std::string random_key(std::mt19937& rng) {
  // Short keys from a small alphabet collide often (duplicates) and mix
  // '-', '.', '_', digits, escapes and the empty key, which sort around
  // the '.' separator.
  static const char* parts[] = {"a", "b", "a-b", "a.b", "x", "apps", "0", "10",
                                "_", "\\u0041", "\\t", "rate", "Z", "\xc3\xa9", ""};
  std::uniform_int_distribution<std::size_t> pick(
      0, sizeof(parts) / sizeof(parts[0]) - 1);
  std::uniform_int_distribution<int> len(1, 2);
  std::string key;
  for (int i = len(rng); i > 0; --i) key += parts[pick(rng)];
  return key;
}

inline std::string random_number(std::mt19937& rng) {
  static const char* fixed[] = {
      "0", "-0", "7", "-12", "0.5", "-0.0", "1e3", "1E-3", "2.5e+10",
      "9223372036854775807", "9223372036854775808", "-9223372036854775808",
      "-9223372036854775809", "1e308", "1e309", "1e-308", "4e-320",
      "2.2250738585072014e-308", "1e-400", "0e-999",
      "1234567890123456789012345678901234567890",
      "0.1234567890123456789012345678901234567890"};
  std::uniform_int_distribution<int> mode(0, 3);
  switch (mode(rng)) {
    case 0: {
      std::uniform_int_distribution<std::size_t> pick(
          0, sizeof(fixed) / sizeof(fixed[0]) - 1);
      return fixed[pick(rng)];
    }
    case 1: {  // "%.6f", the shape the load generators send
      std::uniform_real_distribution<double> v(-100.0, 100.0);
      char buf[48];
      std::snprintf(buf, sizeof buf, "%.6f", v(rng));
      return buf;
    }
    case 2: {  // shortest round-trip, any magnitude
      std::uniform_real_distribution<double> mant(-10.0, 10.0);
      std::uniform_int_distribution<int> exp(-320, 310);
      char buf[48];
      std::snprintf(buf, sizeof buf, "%.17g",
                    mant(rng) * std::pow(10.0, exp(rng)));
      return buf;
    }
    default: {
      std::uniform_int_distribution<long long> v(-1000000, 1000000);
      return std::to_string(v(rng));
    }
  }
}

inline std::string random_value(std::mt19937& rng, int depth);

inline std::string random_object(std::mt19937& rng, int depth) {
  std::uniform_int_distribution<int> members(0, 5);
  std::string out = "{";
  for (int i = members(rng), first = 1; i > 0; --i, first = 0) {
    if (!first) out += ',';
    const std::string key = random_key(rng);  // draw order: key, value
    out += "\"" + key + "\":" + random_value(rng, depth + 1);
  }
  return out + "}";
}

inline std::string random_value(std::mt19937& rng, int depth) {
  std::uniform_int_distribution<int> kind(0, depth >= 4 ? 4 : 9);
  switch (kind(rng)) {
    case 0:
    case 1: return random_number(rng);
    case 2: return std::uniform_int_distribution<int>(0, 1)(rng) ? "true"
                                                                 : "false";
    case 3: return "\"" + random_key(rng) + "\"";
    case 4: return std::uniform_int_distribution<int>(0, 40)(rng) == 0
                       ? "null"
                       : random_number(rng);
    case 5:
    case 6:
    case 7: return random_object(rng, depth);
    default: {
      std::uniform_int_distribution<int> elems(0, 13);
      std::string out = "[";
      for (int i = elems(rng), first = 1; i > 0; --i, first = 0) {
        if (!first) out += ", ";
        out += random_value(rng, depth + 1);
      }
      return out + "]";
    }
  }
}

}  // namespace detail

/// Well-formed JSON request envelopes with random nested params: random
/// member order, duplicate and awkward keys, arrays past ten elements and
/// numbers at the int64 / double edges. Most are accepted; the rest fail
/// on a semantic rule or a number the grammar cannot represent.
inline std::vector<std::string> random_requests(std::uint32_t seed, int n) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> shape(0, 9);
  std::vector<std::string> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    std::vector<std::string> members = {
        "\"id\":" + std::to_string(i),
        "\"op\":\"" + detail::random_key(rng) + "\"",
        "\"params\":" + (shape(rng) == 0 ? detail::random_value(rng, 1)
                                         : detail::random_object(rng, 0))};
    const int s = shape(rng);
    if (s == 0) members.push_back("\"a\":1");          // sorts before "id"
    if (s == 1) members.push_back("\"zz\":{\"a\":1}");  // after "params"
    if (s == 2) members.erase(members.begin());
    std::shuffle(members.begin(), members.end(), rng);
    std::string line = "{";
    for (std::size_t m = 0; m < members.size(); ++m) {
      line += (m ? ", " : "") + members[m];
    }
    out.push_back(line + "}");
  }
  return out;
}

}  // namespace pap::serve::corpus
