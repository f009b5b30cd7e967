// Strict, bounded JSON for the serving layer (src/serve).
//
// The request parser is the one component of papd that faces arbitrary
// bytes from the network, so it is written defensively rather than
// permissively: hard limits on input size and nesting depth, no recovery
// heuristics, and every syntax violation reported as an error message that
// names the byte offset — never a crash, never a partially-applied parse
// (asserted by the fuzz test in tests/serve_protocol_test.cpp).
//
// `JsonReader` is the one implementation of the grammar: whitespace,
// string/escape, number and literal rules, the depth and size limits and
// the error messages. It is a pull reader — the consumer asks for the kind
// of the next value and reads it — so each consumer builds only what it
// needs: `json_parse` builds a `JsonValue` tree, and `parse_request`
// (protocol.hpp) reads a request line straight into flat, canonically
// ordered parameters without a tree.
//
// The value model is deliberately tiny (null/bool/number/string plus
// object/array of those): it exists to carry request envelopes and
// parameter maps, not to be a general JSON library. Numbers whose source
// text is integral (no '.', no exponent) and fits an int64 read as
// integers; everything else reads as double — the distinction keeps the
// flattened exp::Params canonical encoding stable, which the coalescing
// and cache keys depend on.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"

namespace pap::serve {

/// Parsed JSON value (tree). Objects keep their keys sorted (std::map).
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool bool_v = false;
  std::int64_t int_v = 0;
  double dbl_v = 0.0;
  std::string str_v;
  std::vector<JsonValue> array_v;
  std::map<std::string, JsonValue> object_v;

  bool is_number() const { return kind == Kind::kInt || kind == Kind::kDouble; }
  double number() const {
    return kind == Kind::kInt ? static_cast<double>(int_v) : dbl_v;
  }
  /// Member lookup; nullptr when absent or not an object.
  const JsonValue* get(const std::string& key) const;
};

struct JsonLimits {
  std::size_t max_bytes = 64 * 1024;  ///< whole input
  int max_depth = 32;                 ///< object/array nesting
};

/// A JSON number: an int64 when the source text is integral and fits,
/// otherwise a double.
struct JsonNumber {
  bool is_int = false;
  std::int64_t int_v = 0;
  double dbl_v = 0.0;
};

/// Strict pull reader over one JSON text. Every method returns false once
/// the input is invalid; `error()` then holds the first violation with its
/// byte offset. Protocol for a value: `peek` its token, then call the
/// matching `read_*` / `begin_*`. An object is `begin_object`, then per
/// member `read_key`, the member's value and `end_member`; an array is
/// `begin_array`, then per element the value and `end_element`.
class JsonReader {
 public:
  enum class Token { kNull, kBool, kNumber, kString, kArray, kObject };

  /// An input longer than `limits.max_bytes` fails here (see `ok()`).
  JsonReader(std::string_view text, const JsonLimits& limits);

  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }
  /// Records `msg` at the current byte offset (the first error wins).
  bool fail(std::string_view msg);

  /// Starts the next value: enforces the depth limit, skips whitespace and
  /// classifies the first byte.
  bool peek(Token* token);
  bool read_null();
  bool read_bool(bool* out);
  bool read_number(JsonNumber* out);
  /// Appends the decoded string to `*out`.
  bool read_string(std::string* out);
  /// Reads the next value, whatever its kind, as a tree. Duplicate object
  /// keys are an error.
  bool read_value(JsonValue* out);

  /// Consumes '{'; `*has_member` is false for "{}".
  bool begin_object(bool* has_member);
  /// Appends the member key to `*out` and consumes the ':' after it.
  bool read_key(std::string* out);
  /// After a member's value: ',' (`*more`) or the closing '}'.
  bool end_member(bool* more);
  /// Consumes '['; `*has_element` is false for "[]".
  bool begin_array(bool* has_element);
  /// After an element: ',' (`*more`) or the closing ']'.
  bool end_element(bool* more);

  /// After the top-level value: only whitespace may follow.
  bool finish();

 private:
  void skip_ws();
  bool expect(char c);

  const char* p_;
  const char* end_;
  const char* begin_;
  int max_depth_;
  int depth_ = 0;  // open objects and arrays
  std::string error_;
};

/// Parse exactly one JSON value spanning the whole input (trailing
/// whitespace allowed, trailing garbage is an error). All errors carry a
/// byte offset.
Expected<JsonValue> json_parse(const std::string& text,
                               const JsonLimits& limits = {});

/// Escape + quote `s` as a JSON string literal.
std::string json_quote(const std::string& s);

}  // namespace pap::serve
