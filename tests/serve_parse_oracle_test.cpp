// Differential test of papd's one-pass request parser (serve::parse_request)
// against the tree-based oracle it replaced (tests/oracle/serve_reference):
// json_parse into a JsonValue tree, then a sorted walk that flattens
// `params`. Both must give exactly the same answer for every line: on
// success the same id, op, params (==) and key() bytes — the identity the
// LRU, coalescing, the disk cache and shard routing are built on — and on
// failure the same error message bytes, byte offsets included.
//
// Inputs: the seeded fuzz corpora of serve_protocol_test plus well-formed
// requests with random nested params (tests/serve_request_corpus.hpp), and
// a fixed table of edge cases (number ranges, escapes, duplicate keys,
// error precedence, the depth and size limits), each under several
// ParseLimits. A digest of every outcome pins the answers to the ones the
// pre-rewrite parser gave.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "oracle/serve_reference.hpp"
#include "serve/protocol.hpp"
#include "serve_request_corpus.hpp"

namespace pap::serve {
namespace {

std::string hex_escape(const std::string& s) {
  std::string out;
  char buf[8];
  for (unsigned char c : s) {
    if (c >= 0x20 && c < 0x7F && c != '\\') {
      out += static_cast<char>(c);
    } else {
      std::snprintf(buf, sizeof buf, "\\x%02x", c);
      out += buf;
    }
  }
  return out;
}

/// The bytes a caller can observe from one parse.
std::string outcome(const Expected<Request>& r) {
  if (!r) return "error " + r.error_message();
  return "ok " + std::to_string(r.value().id) + " " + r.value().key();
}

/// "" when parse_request and the oracle agree exactly on `line`, else a
/// description of the first difference.
std::string difference(const std::string& line, const ParseLimits& limits) {
  const auto got = parse_request(line, limits);
  const auto want = reference::parse_request(line, limits);
  if (got.has_value() != want.has_value() ||
      (!got && got.error_message() != want.error_message())) {
    return outcome(got) + " | oracle: " + outcome(want);
  }
  if (!got) return "";
  const Request& a = got.value();
  const Request& b = want.value();
  if (a.id != b.id || a.op != b.op) return "id/op differ";
  if (!(a.params == b.params)) return "params differ";
  if (a.key() != b.key()) {
    return "key " + hex_escape(a.key()) + " | oracle: " + hex_escape(b.key());
  }
  return "";
}

struct NamedLimits {
  const char* name;
  ParseLimits limits;
};

const NamedLimits kLimits[] = {
    {"default", ParseLimits{}},
    {"64B/depth4", ParseLimits{64, 4}},
    {"256B/depth2", ParseLimits{256, 2}},
    {"depth1", ParseLimits{64 * 1024, 1}},
    {"depth0", ParseLimits{64 * 1024, 0}},
};

std::vector<std::string> full_corpus() {
  std::vector<std::string> lines;
  for (auto part : {corpus::random_bytes(0xC0FFEE, 30000),
                    corpus::token_soup(0xBEEF, 30000),
                    corpus::mutated(0xDECAF, 30000),
                    corpus::random_requests(0x5EED, 30000)}) {
    lines.insert(lines.end(), part.begin(), part.end());
  }
  return lines;
}

// Runs every line under `limits`, reporting the first few differences.
int count_differences(const std::vector<std::string>& lines,
                      const NamedLimits& limits, std::size_t stride = 1) {
  int diffs = 0;
  for (std::size_t i = 0; i < lines.size(); i += stride) {
    const std::string d = difference(lines[i], limits.limits);
    if (d.empty()) continue;
    if (++diffs <= 5) {
      ADD_FAILURE() << limits.name << ": " << hex_escape(lines[i]) << "\n  "
                    << d;
    }
  }
  return diffs;
}

TEST(ParseOracle, CorpusMatchesOracleExactly) {
  const auto lines = full_corpus();
  ASSERT_GE(lines.size(), 100000u);
  std::size_t accepted = 0;
  for (const auto& line : lines) accepted += parse_request(line).has_value();
  // The corpus must reach the success path often, not just fail early.
  EXPECT_GT(accepted, 8000u);
  EXPECT_EQ(count_differences(lines, kLimits[0]), 0);
  // The tighter limits move which error fires first; a quarter of the
  // corpus each keeps the test fast under sanitizers.
  for (std::size_t l = 1; l < std::size(kLimits); ++l) {
    EXPECT_EQ(count_differences(lines, kLimits[l], 4), 0) << kLimits[l].name;
  }
}

std::string request(const std::string& params) {
  return R"({"id":1,"op":"x","params":)" + params + "}";
}

std::string nested_objects(int levels) {
  std::string s;
  for (int i = 0; i < levels; ++i) s += "{\"k\":";
  s += "1";
  for (int i = 0; i < levels; ++i) s += "}";
  return s;
}

std::vector<std::string> edge_table() {
  std::vector<std::string> t;
  const char* numbers[] = {
      "-0", "0", "-0.0", "1e308", "1e309", "-1e309", "2.2250738585072014e-308",
      "2.2250738585072012e-308", "1e-308", "4e-320", "1e-400", "0e-999",
      "4.9406564584124654e-324", "1.7976931348623157e308",
      "1.7976931348623159e308", "9223372036854775807", "9223372036854775808",
      "-9223372036854775808", "-9223372036854775809",
      "1234567890123456789012345678901234567890",
      "0.1234567890123456789012345678901234567890",
      "1234567890123456789012345678901234567890e-300",
      "-0.0000000000000000000000000000000000000001", "1E5", "1e+5", "1.5e-5",
      "01", "-", "1.", ".5", "1e", "1e+", "+1", "0x10", "1.0.0", "NaN",
      "Infinity", "-Infinity"};
  for (const char* n : numbers) {
    t.push_back(request(std::string(R"({"v":)") + n + "}"));
    t.push_back(std::string(R"({"id":)") + n + R"(,"op":"x"})");
    t.push_back(request(std::string(R"({"a":[)") + n + "," + n + "]}"));
  }
  const char* strings[] = {
      R"("\"\\\/\b\f\n\r\t")", R"("\u0000")", R"("a\u0000b")",
      R"("Aé€")", R"("😀")", R"("\uD800")",
      R"("\uDFFF x")", R"("\u12")", R"("\u12G4")", R"("\x")", R"("\)",
      "\"raw\x01control\"", "\"tab\there\"", "\"\x7f del\"",
      "\"\xc3\xa9\xff\xfe\"", R"("unterminated)", R"("")"};
  for (const char* s : strings) {
    t.push_back(request(std::string(R"({"v":)") + s + "}"));
    t.push_back(request(std::string("{") + s + ":1}"));
    t.push_back(std::string(R"({"id":1,"op":)") + s + "}");
  }
  // Duplicate keys at depth 0, 1 and 3, and a duplicate followed by a later
  // syntax error (the duplicate is reported first).
  t.push_back(R"({"id":1,"id":2,"op":"x"})");
  t.push_back(R"({"id":1,"op":"x","params":{},"params":{}})");
  t.push_back(request(R"({"a":1,"a":2})"));
  t.push_back(request(R"({"a":1,"b":2,"a":{"c":null}})"));
  t.push_back(request(R"({"p":{"q":{"a":1,"a":2}}})"));
  t.push_back(request(R"({"p":{"q":{"a":1,"a":2,}}})"));
  t.push_back(request(R"({"a":1,"a":2,"b":})"));
  t.push_back(R"({"zz":{"a":1,"a":2},"id":1,"op":"x"})");
  // Keys and values with no Value representation.
  t.push_back(request(R"({"":1})"));
  t.push_back(request(R"({"a":{"":1}})"));
  t.push_back(request(R"({"a.b":1})"));
  t.push_back(request(R"({"a":{"b.c":1}})"));
  t.push_back(request(R"({"a.b":1})"));
  t.push_back(request(R"({"v":null})"));
  t.push_back(request(R"({"v":{}})"));
  t.push_back(request(R"({"v":[]})"));
  t.push_back(request(R"({"v":[1,null]})"));
  t.push_back(request(R"({"v":[[]]})"));
  t.push_back(request("{}"));
  t.push_back(request("[]"));
  t.push_back(request("null"));
  t.push_back(request("[1]"));
  // Among several semantic errors the first in key order wins, at every
  // level; any syntax error anywhere beats all of them.
  t.push_back(request(R"({"b":null,"a":{}})"));
  t.push_back(request(R"({"b":{"y":null,"x":[]},"a-b":[]})"));
  t.push_back(request(R"({"z":null,"a.b":1,"":2})"));
  t.push_back(request(R"({"z":null,"a":{"":1}})"));
  t.push_back(request(R"({"z":null,"a":[1,{"k.j":1}]})"));
  t.push_back(request(R"({"z":null,"a":1)"));
  t.push_back(request(R"({"z":null,"a":1} x)"));
  // Envelope: unknown members sorting before "id" and after "params".
  t.push_back(R"({"a":1,"id":1,"op":"x"})");
  t.push_back(R"({"zz":1,"id":1,"op":"x"})");
  t.push_back(R"({"a":1,"id":-1,"op":""})");
  t.push_back(R"({"zz":1,"id":-1,"op":"x"})");
  t.push_back(R"({"zz":1,"id":1,"op":"","params":{"k":null}})");
  t.push_back(R"({"zz":1,"id":1,"op":"x","params":{"k":null}})");
  t.push_back(R"({"params":{"k":null},"id":1.5,"op":"x"})");
  t.push_back(R"({"params":{"k":null},"id":1,"op":7})");
  t.push_back(R"({"params":1,"id":1,"op":"x"})");
  t.push_back(R"({"params":[{"a":null}],"id":1,"op":"x"})");
  t.push_back(R"({"op":"x","params":{"a":1}})");
  t.push_back(R"({"id":1,"params":{"a":1}})");
  t.push_back(R"({"id":1,"op":"x","op2":"y"})");
  t.push_back(R"({"id":{"a":[1,2]},"op":"x"})");
  t.push_back(R"({"id":1,"op":["x"]})");
  t.push_back(R"({"id":1,"op":"x","params":{"a":1},"id":2})");
  t.push_back(R"( {"id":1 , "op" : "x" , "params" : { "a" : [ 1 , 2 ] } } )");
  t.push_back("{\"id\":1,\"op\":\"x\"}\n\r\t ");
  t.push_back("{}");
  t.push_back("[1,2]");
  t.push_back("[1,2");
  t.push_back("\"x\"");
  t.push_back("");
  t.push_back("tru");
  t.push_back("nul");
  t.push_back("{\"id\":1,\"op\":\"x\",\"params\":{\"a\":fals}}");
  // Canonical order: '-' (0x2D) sorts before '.', array elements by index.
  t.push_back(request(R"({"a-b":2,"a":{"x":1}})"));
  t.push_back(request(R"({"ab":1,"a":{"b":2},"a-":3,"a_":4,"A":5})"));
  std::string apps = "[";
  for (int i = 0; i < 12; ++i) {
    apps += (i ? "," : "") + std::string(R"({"r":)") + std::to_string(i) +
            R"(,"a":true})";
  }
  t.push_back(request(R"({"z":1,"apps":)" + apps + "]}"));
  // Depth one below, at and one above the limit, for each limit in
  // kLimits: the innermost scalar of `request(nested_objects(m))` sits at
  // depth m + 1; arrays nest the same way.
  for (const int limit : {0, 1, 2, 4, 32}) {
    for (const int depth : {limit - 1, limit, limit + 1}) {
      if (depth < 2) continue;
      t.push_back(request(nested_objects(depth - 1)));
      std::string arrays = std::string(static_cast<std::size_t>(depth - 1), '[') +
                           "1" + std::string(static_cast<std::size_t>(depth - 1), ']');
      t.push_back(request(R"({"k":)" + arrays + "}"));
    }
  }
  return t;
}

TEST(ParseOracle, EdgeTableMatchesOracle) {
  const auto table = edge_table();
  for (const auto& limits : kLimits) {
    EXPECT_EQ(count_differences(table, limits), 0) << limits.name;
  }
}

// A line exactly at max_bytes parses; one byte more is rejected before any
// parsing, with the same message from both.
TEST(ParseOracle, SizeLimitBoundary) {
  for (const std::size_t max_bytes : {std::size_t{64}, std::size_t{64 * 1024}}) {
    const ParseLimits limits{max_bytes, 32};
    std::string line = R"({"id":1,"op":"x","params":{"s":")";
    line += std::string(max_bytes - line.size() - 3, 'y') + "\"}}";
    ASSERT_EQ(line.size(), max_bytes);
    EXPECT_TRUE(parse_request(line, limits).has_value());
    EXPECT_EQ(difference(line, limits), "");
    const std::string over = line + " ";
    const auto r = parse_request(over, limits);
    ASSERT_FALSE(r.has_value());
    EXPECT_EQ(r.error_message(), "input of " + std::to_string(max_bytes + 1) +
                                     " bytes exceeds limit of " +
                                     std::to_string(max_bytes));
    EXPECT_EQ(difference(over, limits), "");
  }
}

TEST(ParseOracle, DepthLimitBoundary) {
  for (const int limit : {2, 4, 32}) {
    const ParseLimits limits{64 * 1024, limit};
    EXPECT_TRUE(parse_request(request(nested_objects(limit - 1)), limits)
                    .has_value()) << limit;
    const auto deep = parse_request(request(nested_objects(limit)), limits);
    ASSERT_FALSE(deep.has_value()) << limit;
    EXPECT_EQ(deep.error_message().rfind("nesting too deep at byte ", 0), 0u)
        << deep.error_message();
  }
}

// Which numbers are rejected is part of the contract: glibc strtod's
// ERANGE set — overflow, and underflow to zero, to a subnormal or to
// DBL_MIN by rounding — not std::from_chars's, which accepts subnormals.
TEST(ParseOracle, NumberRangePinned) {
  auto param = [](const char* n) {
    return parse_request(request(std::string(R"({"v":)") + n + "}"));
  };
  for (const char* rejected :
       {"1e309", "-1e309", "1e-308", "4e-320", "1e-400",
        "2.2250738585072012e-308", "4.9406564584124654e-324",
        "1.7976931348623159e308"}) {
    const auto r = param(rejected);
    ASSERT_FALSE(r.has_value()) << rejected;
    EXPECT_EQ(r.error_message(), "unrepresentable number at byte 31")
        << rejected;
  }
  const auto dbl_min = param("2.2250738585072014e-308");
  ASSERT_TRUE(dbl_min.has_value());
  EXPECT_EQ(dbl_min.value().params.at("v").as_double(), 2.2250738585072014e-308);
  const auto zero = param("0e-999");
  ASSERT_TRUE(zero.has_value());
  EXPECT_EQ(zero.value().params.at("v").kind(), exp::Value::Kind::kDouble);
  const auto neg_zero = param("-0");
  ASSERT_TRUE(neg_zero.has_value());
  EXPECT_EQ(neg_zero.value().params.at("v").kind(), exp::Value::Kind::kInt);
  const auto max = param("9223372036854775807");
  ASSERT_TRUE(max.has_value());
  EXPECT_EQ(max.value().params.at("v").as_int(), INT64_MAX);
  const auto over = param("9223372036854775808");
  ASSERT_TRUE(over.has_value());
  EXPECT_EQ(over.value().params.at("v").kind(), exp::Value::Kind::kDouble);
}

std::uint64_t fnv1a(std::uint64_t h, const std::string& s) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  h ^= 0xff;  // record separator
  return h * 1099511628211ull;
}

// FNV-1a over the outcome of every corpus and edge-table line under every
// limit. The constant was captured by running this test against the
// tree-based parser with its own recursive-descent reader, so it pins the
// syntax errors too (the oracle above shares JsonReader and cannot). The
// corpus draws through libstdc++'s <random> distributions, so the constant
// is specific to that library.
TEST(ParseOracle, OutcomeDigestMatchesTreeParser) {
  auto lines = full_corpus();
  const auto table = edge_table();
  lines.insert(lines.end(), table.begin(), table.end());
  std::uint64_t h = 14695981039346656037ull;
  for (const auto& limits : kLimits) {
    for (const auto& line : lines) {
      h = fnv1a(h, outcome(parse_request(line, limits.limits)));
    }
  }
  EXPECT_EQ(h, 0xf3061eb8cda25445ull) << std::hex << "digest 0x" << h;
}

}  // namespace
}  // namespace pap::serve
