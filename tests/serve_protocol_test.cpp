// Wire-protocol robustness for the papd serving layer (src/serve).
//
// The request parser is the only papd component that faces arbitrary bytes
// from the network, so these tests are adversarial: strict-envelope
// rejection cases, golden reply bytes, and a seeded fuzz loop over random
// byte streams and mutated valid requests. The contract under test is
// simple — parse_request never crashes and every rejection is a structured
// error — but it is the one the acceptor relies on for every connection.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "serve_request_corpus.hpp"

namespace pap::serve {
namespace {

TEST(ParseRequest, AcceptsMinimalEnvelope) {
  const auto req = parse_request(R"({"id": 7, "op": "ping"})");
  ASSERT_TRUE(req.has_value()) << req.error_message();
  EXPECT_EQ(req.value().id, 7);
  EXPECT_EQ(req.value().op, "ping");
  EXPECT_TRUE(req.value().params.empty());
}

TEST(ParseRequest, FlattensNestedParamsToDottedKeys) {
  const auto req = parse_request(
      R"({"id":1,"op":"wcd_bound","params":)"
      R"({"ctrl":{"queue_depth":16},"rates":[0.5,1.5],"strict":true}})");
  ASSERT_TRUE(req.has_value()) << req.error_message();
  const exp::Params& p = req.value().params;
  EXPECT_EQ(p.get_int("ctrl.queue_depth"), 16);
  EXPECT_DOUBLE_EQ(p.get_double("rates.0"), 0.5);
  EXPECT_DOUBLE_EQ(p.get_double("rates.1"), 1.5);
  EXPECT_TRUE(p.get_bool("strict"));
}

TEST(ParseRequest, KeyIsInsensitiveToMemberOrder) {
  // Two spellings of the same request must coalesce onto one cache /
  // batching identity: objects are key-sorted before flattening.
  const auto a = parse_request(
      R"({"id":1,"op":"x","params":{"b":2,"a":1}})");
  const auto b = parse_request(
      R"({"op":"x","params":{"a":1,"b":2},"id":9})");
  ASSERT_TRUE(a.has_value() && b.has_value());
  EXPECT_EQ(a.value().key(), b.value().key());

  // Members sort per nesting level, not as whole dotted paths: '-' (0x2D)
  // sorts before '.', yet the object "a" still comes before the key "a-b".
  const auto c = parse_request(
      R"({"id":1,"op":"x","params":{"a-b":2,"a":{"y":true,"x":1}}})");
  const auto d = parse_request(
      R"({"id":2,"op":"x","params":{"a":{"x":1,"y":true},"a-b":2}})");
  ASSERT_TRUE(c.has_value() && d.has_value());
  EXPECT_EQ(c.value().key(), d.value().key());
  // Captured from the tree-based parser.
  EXPECT_EQ(c.value().key(), "x\na.x\ti:1\na.y\tb:1\na-b\ti:2\n");

  // Array elements keep index order: apps.10 and apps.11 after apps.9.
  std::string apps_fwd, apps_rev;
  for (int i = 0; i < 12; ++i) {
    const std::string n = std::to_string(i);
    apps_fwd += (i ? "," : "") + std::string(R"({"rate":)") + n +
                R"(,"burst":0.5})";
    apps_rev += (i ? "," : "") + std::string(R"({"burst":0.5,"rate":)") + n +
                "}";
  }
  const auto e = parse_request(R"({"id":3,"op":"x","params":{"n":1,"apps":[)" +
                               apps_fwd + "]}}");
  const auto f = parse_request(R"({"id":4,"op":"x","params":{"apps":[)" +
                               apps_rev + R"(],"n":1}})");
  ASSERT_TRUE(e.has_value() && f.has_value());
  EXPECT_EQ(e.value().key(), f.value().key());
  // Captured from the tree-based parser.
  EXPECT_EQ(e.value().key(),
            "x\n"
            "apps.0.burst\td:0x1p-1\napps.0.rate\ti:0\n"
            "apps.1.burst\td:0x1p-1\napps.1.rate\ti:1\n"
            "apps.2.burst\td:0x1p-1\napps.2.rate\ti:2\n"
            "apps.3.burst\td:0x1p-1\napps.3.rate\ti:3\n"
            "apps.4.burst\td:0x1p-1\napps.4.rate\ti:4\n"
            "apps.5.burst\td:0x1p-1\napps.5.rate\ti:5\n"
            "apps.6.burst\td:0x1p-1\napps.6.rate\ti:6\n"
            "apps.7.burst\td:0x1p-1\napps.7.rate\ti:7\n"
            "apps.8.burst\td:0x1p-1\napps.8.rate\ti:8\n"
            "apps.9.burst\td:0x1p-1\napps.9.rate\ti:9\n"
            "apps.10.burst\td:0x1p-1\napps.10.rate\ti:10\n"
            "apps.11.burst\td:0x1p-1\napps.11.rate\ti:11\n"
            "n\ti:1\n");
}

TEST(ParseRequest, RejectsEveryMalformedEnvelope) {
  const char* cases[] = {
      "",                                      // empty line
      "   ",                                   // whitespace only
      "[1,2,3]",                               // not an object
      "42",                                    // scalar
      "\"op\"",                                // bare string
      R"({"op":"ping"})",                      // missing id
      R"({"id":1})",                           // missing op
      R"({"id":-3,"op":"ping"})",              // negative id
      R"({"id":1.5,"op":"ping"})",             // non-integer id
      R"({"id":"1","op":"ping"})",             // string id
      R"({"id":1,"op":""})",                   // empty op
      R"({"id":1,"op":42})",                   // non-string op
      R"({"id":1,"op":"ping","extra":true})",  // unknown member
      R"({"id":1,"op":"ping","params":[1]})",  // params not an object
      R"({"id":1,"op":"ping","params":{"x":null}})",   // null has no Value
      R"({"id":1,"op":"ping","params":{"x":{}}})",     // empty container
      R"({"id":1,"op":"ping"} trailing)",      // trailing garbage
      R"({"id":1,"op":"ping")",                // truncated object
      R"({"id":1,"op":"pi)",                   // truncated string
      R"({"id":1,,"op":"ping"})",              // stray comma
      R"({'id':1,'op':'ping'})",               // single quotes
      R"({"id":0x10,"op":"ping"})",            // hex number
      R"({"id":1,"op":"ping","params":{"x":01}})",  // leading zero
      "{\"id\":1,\"op\":\"p\tq\"}",            // raw control char in string
  };
  for (const char* line : cases) {
    const auto req = parse_request(line);
    EXPECT_FALSE(req.has_value()) << "accepted: " << line;
    EXPECT_FALSE(req.error_message().empty()) << line;
  }
}

TEST(ParseRequest, EnforcesSizeAndDepthLimits) {
  ParseLimits limits;
  limits.max_bytes = 64;
  limits.max_depth = 4;

  std::string big = R"({"id":1,"op":")" + std::string(200, 'x') + "\"}";
  EXPECT_FALSE(parse_request(big, limits).has_value());

  std::string deep = R"({"id":1,"op":"p","params":)";
  for (int i = 0; i < 8; ++i) deep += "{\"k\":";
  deep += "1";
  for (int i = 0; i < 8; ++i) deep += "}";
  deep += "}";
  ParseLimits roomy;
  roomy.max_depth = 4;
  EXPECT_FALSE(parse_request(deep, roomy).has_value());
  // The same shape parses with the default depth budget.
  EXPECT_TRUE(parse_request(deep).has_value());
}

TEST(Replies, GoldenBytes) {
  EXPECT_EQ(ok_reply(7, "{\"x\":1}"),
            R"({"id":7,"ok":true,"result":{"x":1}})");
  EXPECT_EQ(error_reply(9, ErrorCode::kOverloaded, "queue full"),
            R"({"id":9,"ok":false,"error":{"code":"overloaded",)"
            R"("message":"queue full"}})");
  // Messages are quoted, so adversarial text cannot break the envelope.
  const std::string evil = error_reply(
      0, ErrorCode::kParseError, "quote \" backslash \\ newline \n");
  EXPECT_NE(evil.find("\\\""), evil.npos);
  EXPECT_EQ(evil.find('\n'), evil.npos);
  EXPECT_TRUE(json_parse(evil).has_value()) << evil;
}

TEST(Replies, RenderResultMatchesJsonlOrderAndRendering) {
  exp::Result r("wcd_bound");
  r.set("upper", exp::Value{123.456});
  r.set("iterations", exp::Value{std::int64_t{13}});
  r.set("converged", exp::Value{true});
  const std::string payload = render_result(r);
  EXPECT_EQ(payload,
            R"({"label":"wcd_bound","metrics":{"upper":123.456,)"
            R"("iterations":13,"converged":true}})");
  EXPECT_TRUE(json_parse(ok_reply(1, payload)).has_value());
}

TEST(ErrorCodes, NamesAreStable) {
  EXPECT_STREQ(error_code_name(ErrorCode::kParseError), "parse_error");
  EXPECT_STREQ(error_code_name(ErrorCode::kBadRequest), "bad_request");
  EXPECT_STREQ(error_code_name(ErrorCode::kOverloaded), "overloaded");
  EXPECT_STREQ(error_code_name(ErrorCode::kShuttingDown), "shutting_down");
  EXPECT_STREQ(error_code_name(ErrorCode::kInternal), "internal");
}

// Seeded fuzz: random byte soup must never crash the parser, and every
// rejection must carry a message. Deterministic (fixed seed) so a failure
// reproduces; the failing input is printed hex-escaped.
std::string hex_escape(const std::string& s) {
  std::string out;
  char buf[8];
  for (unsigned char c : s) {
    std::snprintf(buf, sizeof buf, "\\x%02x", c);
    out += buf;
  }
  return out;
}

TEST(ParseRequestFuzz, RandomByteStreamsNeverCrash) {
  for (const auto& line : corpus::random_bytes(0xC0FFEE, 20000)) {
    const auto req = parse_request(line);
    if (!req.has_value()) {
      ASSERT_FALSE(req.error_message().empty()) << hex_escape(line);
    }
  }
}

TEST(ParseRequestFuzz, StructuredSoupNeverCrashes) {
  for (const auto& line : corpus::token_soup(0xBEEF, 20000)) {
    const auto req = parse_request(line);
    if (!req.has_value()) {
      ASSERT_FALSE(req.error_message().empty()) << hex_escape(line);
    }
  }
}

TEST(ParseRequestFuzz, MutatedValidRequestsNeverCrash) {
  ASSERT_TRUE(parse_request(corpus::mutation_seed()).has_value());
  for (const auto& line : corpus::mutated(0xDECAF, 20000)) {
    const auto req = parse_request(line);
    if (req.has_value()) {
      // Whatever survived mutation must still yield a usable identity.
      EXPECT_FALSE(req.value().key().empty());
    } else {
      ASSERT_FALSE(req.error_message().empty()) << hex_escape(line);
    }
  }
}

}  // namespace
}  // namespace pap::serve
