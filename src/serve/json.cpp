#include "serve/json.hpp"

#include <cerrno>
#include <cfloat>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace pap::serve {

JsonReader::JsonReader(std::string_view text, const JsonLimits& limits)
    : p_(text.data()), end_(text.data() + text.size()), begin_(text.data()),
      max_depth_(limits.max_depth) {
  if (text.size() > limits.max_bytes) {
    error_ = "input of " + std::to_string(text.size()) +
             " bytes exceeds limit of " + std::to_string(limits.max_bytes);
  }
}

bool JsonReader::fail(std::string_view msg) {
  if (error_.empty()) {
    error_ = std::string(msg) + " at byte " + std::to_string(p_ - begin_);
  }
  return false;
}

void JsonReader::skip_ws() {
  while (p_ < end_ &&
         (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' || *p_ == '\r')) {
    ++p_;
  }
}

bool JsonReader::expect(char c) {
  if (p_ < end_ && *p_ == c) {
    ++p_;
    return true;
  }
  return fail(std::string("expected '") + c + "'");
}

bool JsonReader::peek(Token* token) {
  if (depth_ > max_depth_) return fail("nesting too deep");
  skip_ws();
  if (p_ >= end_) return fail("unexpected end of input");
  switch (*p_) {
    case '{': *token = Token::kObject; break;
    case '[': *token = Token::kArray; break;
    case '"': *token = Token::kString; break;
    case 't':
    case 'f': *token = Token::kBool; break;
    case 'n': *token = Token::kNull; break;
    default: *token = Token::kNumber;
  }
  return true;
}

bool JsonReader::read_null() {
  if (end_ - p_ >= 4 && std::memcmp(p_, "null", 4) == 0) {
    p_ += 4;
    return true;
  }
  return fail("bad literal");
}

bool JsonReader::read_bool(bool* out) {
  if (end_ - p_ >= 4 && std::memcmp(p_, "true", 4) == 0) {
    *out = true;
    p_ += 4;
    return true;
  }
  if (end_ - p_ >= 5 && std::memcmp(p_, "false", 5) == 0) {
    *out = false;
    p_ += 5;
    return true;
  }
  return fail("bad literal");
}

bool JsonReader::read_number(JsonNumber* out) {
  const char* start = p_;
  if (p_ < end_ && *p_ == '-') ++p_;
  if (p_ >= end_ || *p_ < '0' || *p_ > '9') return fail("bad number");
  // JSON forbids leading zeros ("01"): a zero first digit must be the
  // whole integer part.
  if (*p_ == '0' && p_ + 1 < end_ && p_[1] >= '0' && p_[1] <= '9') {
    return fail("leading zero in number");
  }
  while (p_ < end_ && *p_ >= '0' && *p_ <= '9') ++p_;
  bool integral = true;
  if (p_ < end_ && *p_ == '.') {
    integral = false;
    ++p_;
    if (p_ >= end_ || *p_ < '0' || *p_ > '9') return fail("bad number");
    while (p_ < end_ && *p_ >= '0' && *p_ <= '9') ++p_;
  }
  if (p_ < end_ && (*p_ == 'e' || *p_ == 'E')) {
    integral = false;
    ++p_;
    if (p_ < end_ && (*p_ == '+' || *p_ == '-')) ++p_;
    if (p_ >= end_ || *p_ < '0' || *p_ > '9') return fail("bad exponent");
    while (p_ < end_ && *p_ >= '0' && *p_ <= '9') ++p_;
  }
  if (integral) {
    std::int64_t v = 0;
    const auto r = std::from_chars(start, p_, v);
    if (r.ec == std::errc() && r.ptr == p_) {
      out->is_int = true;
      out->int_v = v;
      return true;
    }
    // Overflowed int64: read it as a double.
  }
  // from_chars rounds exactly like strtod. It differs only in which
  // results it flags out of range: strtod also rejects (ERANGE) every
  // underflow to a subnormal or to DBL_MIN and every nonzero input that
  // rounds to zero. A result that is normal and above DBL_MIN is
  // unambiguous; everything else goes through strtod, which defines the
  // rejection set.
  double d = 0.0;
  const auto r = std::from_chars(start, p_, d);
  if (r.ec == std::errc() && r.ptr == p_ && std::fabs(d) > DBL_MIN) {
    out->is_int = false;
    out->dbl_v = d;
    return true;
  }
  const std::string text(start, p_);
  char* conv_end = nullptr;
  errno = 0;
  d = std::strtod(text.c_str(), &conv_end);
  if (errno != 0 || conv_end != text.c_str() + text.size()) {
    p_ = start;
    return fail("unrepresentable number");
  }
  out->is_int = false;
  out->dbl_v = d;
  return true;
}

bool JsonReader::read_string(std::string* out) {
  if (!expect('"')) return false;
  while (p_ < end_) {
    const char* run = p_;
    while (p_ < end_ && *p_ != '"' && *p_ != '\\' &&
           static_cast<unsigned char>(*p_) >= 0x20) {
      ++p_;
    }
    out->append(run, static_cast<std::size_t>(p_ - run));
    if (p_ >= end_) break;
    if (*p_ == '"') {
      ++p_;
      return true;
    }
    if (*p_ != '\\') return fail("raw control character in string");
    ++p_;
    if (p_ >= end_) return fail("truncated escape");
    switch (*p_) {
      case '"': *out += '"'; break;
      case '\\': *out += '\\'; break;
      case '/': *out += '/'; break;
      case 'b': *out += '\b'; break;
      case 'f': *out += '\f'; break;
      case 'n': *out += '\n'; break;
      case 'r': *out += '\r'; break;
      case 't': *out += '\t'; break;
      case 'u': {
        if (end_ - p_ < 5) return fail("truncated \\u escape");
        unsigned code = 0;
        for (int i = 1; i <= 4; ++i) {
          const char h = p_[i];
          code <<= 4;
          if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
          else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
          else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
          else return fail("bad \\u escape");
        }
        p_ += 4;
        // Encode as UTF-8. Surrogates are not paired — they encode as
        // three-byte sequences, which is lossy but never crashes; the
        // analysis request grammar is ASCII anyway.
        if (code < 0x80) {
          *out += static_cast<char>(code);
        } else if (code < 0x800) {
          *out += static_cast<char>(0xC0 | (code >> 6));
          *out += static_cast<char>(0x80 | (code & 0x3F));
        } else {
          *out += static_cast<char>(0xE0 | (code >> 12));
          *out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
          *out += static_cast<char>(0x80 | (code & 0x3F));
        }
        break;
      }
      default:
        return fail("bad escape");
    }
    ++p_;
  }
  return fail("unterminated string");
}

bool JsonReader::begin_object(bool* has_member) {
  if (!expect('{')) return false;
  ++depth_;
  skip_ws();
  *has_member = !(p_ < end_ && *p_ == '}');
  if (!*has_member) {
    ++p_;
    --depth_;
  }
  return true;
}

bool JsonReader::read_key(std::string* out) {
  skip_ws();
  if (p_ >= end_ || *p_ != '"') return fail("expected object key");
  if (!read_string(out)) return false;
  skip_ws();
  return expect(':');
}

bool JsonReader::end_member(bool* more) {
  skip_ws();
  *more = p_ < end_ && *p_ == ',';
  if (*more) {
    ++p_;
    return true;
  }
  --depth_;
  return expect('}');
}

bool JsonReader::begin_array(bool* has_element) {
  if (!expect('[')) return false;
  ++depth_;
  skip_ws();
  *has_element = !(p_ < end_ && *p_ == ']');
  if (!*has_element) {
    ++p_;
    --depth_;
  }
  return true;
}

bool JsonReader::end_element(bool* more) {
  skip_ws();
  *more = p_ < end_ && *p_ == ',';
  if (*more) {
    ++p_;
    return true;
  }
  --depth_;
  return expect(']');
}

bool JsonReader::finish() {
  skip_ws();
  return p_ == end_ || fail("trailing garbage after value");
}

bool JsonReader::read_value(JsonValue* out) {
  Token token;
  if (!peek(&token)) return false;
  switch (token) {
    case Token::kNull:
      out->kind = JsonValue::Kind::kNull;
      return read_null();
    case Token::kBool:
      out->kind = JsonValue::Kind::kBool;
      return read_bool(&out->bool_v);
    case Token::kNumber: {
      JsonNumber n;
      if (!read_number(&n)) return false;
      out->kind = n.is_int ? JsonValue::Kind::kInt : JsonValue::Kind::kDouble;
      out->int_v = n.int_v;
      out->dbl_v = n.dbl_v;
      return true;
    }
    case Token::kString:
      out->kind = JsonValue::Kind::kString;
      return read_string(&out->str_v);
    case Token::kArray: {
      out->kind = JsonValue::Kind::kArray;
      bool more = false;
      if (!begin_array(&more)) return false;
      while (more) {
        JsonValue elem;
        if (!read_value(&elem)) return false;
        out->array_v.push_back(std::move(elem));
        if (!end_element(&more)) return false;
      }
      return true;
    }
    case Token::kObject: {
      out->kind = JsonValue::Kind::kObject;
      bool more = false;
      if (!begin_object(&more)) return false;
      while (more) {
        std::string key;
        JsonValue member;
        if (!read_key(&key) || !read_value(&member)) return false;
        if (!out->object_v.emplace(std::move(key), std::move(member)).second) {
          return fail("duplicate object key");
        }
        if (!end_member(&more)) return false;
      }
      return true;
    }
  }
  return fail("unreachable JSON token");
}

const JsonValue* JsonValue::get(const std::string& key) const {
  if (kind != Kind::kObject) return nullptr;
  const auto it = object_v.find(key);
  return it == object_v.end() ? nullptr : &it->second;
}

Expected<JsonValue> json_parse(const std::string& text,
                               const JsonLimits& limits) {
  JsonReader in(text, limits);
  JsonValue v;
  if (!in.ok() || !in.read_value(&v) || !in.finish()) {
    return Expected<JsonValue>::error(in.error());
  }
  return v;
}

std::string json_quote(const std::string& s) {
  std::string out = "\"";
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out + "\"";
}

}  // namespace pap::serve
