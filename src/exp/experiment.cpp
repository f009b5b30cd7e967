#include "exp/experiment.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string_view>

#include "common/check.hpp"

namespace pap::exp {

namespace {

// Lossless double -> text: printf("%a") exactly as glibc spells it, which
// the canonical encoding (cache keys, on-disk results) is pinned to, without
// the printf machinery. Normals are "0x1.<hex>p<exp>", subnormals
// "0x0.<hex>p-1022", zero "0x0p+0"; trailing zero nibbles are dropped (and
// the '.' with them); infinities and NaNs are "inf"/"nan"; a set sign bit
// prefixes '-'. Writes at most 24 bytes and returns the end.
constexpr std::size_t kHexfloatMax = 24;

char* hexfloat(double v, char* out) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  if (bits >> 63) *out++ = '-';
  const int biased = static_cast<int>((bits >> 52) & 0x7FF);
  std::uint64_t frac = bits & ((std::uint64_t{1} << 52) - 1);
  if (biased == 0x7FF) {
    std::memcpy(out, frac != 0 ? "nan" : "inf", 3);
    return out + 3;
  }
  *out++ = '0';
  *out++ = 'x';
  *out++ = biased == 0 ? '0' : '1';
  const int exp = biased != 0 ? biased - 1023 : (frac != 0 ? -1022 : 0);
  if (frac != 0) {
    *out++ = '.';
    int digits = 13;
    while ((frac & 0xF) == 0) {
      frac >>= 4;
      --digits;
    }
    for (int i = digits - 1; i >= 0; --i, frac >>= 4) {
      out[i] = "0123456789abcdef"[frac & 0xF];
    }
    out += digits;
  }
  *out++ = 'p';
  *out++ = exp < 0 ? '-' : '+';
  return std::to_chars(out, out + 4, exp < 0 ? -exp : exp).ptr;
}

// `s` with '\\', tab, newline and CR escaped, for the tab/newline-framed
// canonical and result-cache encodings: its length, and the bytes written
// at `p` (returns the end).
std::size_t escaped_size(const std::string& s) {
  std::size_t n = s.size();
  for (const char c : s) n += c == '\\' || c == '\t' || c == '\n' || c == '\r';
  return n;
}

char* write_escaped(char* p, const std::string& s) {
  for (const char c : s) {
    switch (c) {
      case '\\': *p++ = '\\'; *p++ = '\\'; break;
      case '\t': *p++ = '\\'; *p++ = 't'; break;
      case '\n': *p++ = '\\'; *p++ = 'n'; break;
      case '\r': *p++ = '\\'; *p++ = 'r'; break;
      default: *p++ = c;
    }
  }
  return p;
}

void append_escaped(std::string* out, const std::string& s) {
  const std::size_t old = out->size();
  out->resize(old + escaped_size(s));
  write_escaped(out->data() + old, s);
}

std::string escape(const std::string& s) {
  std::string out;
  append_escaped(&out, s);
  return out;
}

std::string unescape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\' || i + 1 == s.size()) {
      out += s[i];
      continue;
    }
    switch (s[++i]) {
      case 't': out += '\t'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      default: out += s[i];
    }
  }
  return out;
}

char kind_tag(Value::Kind k) {
  switch (k) {
    case Value::Kind::kInt: return 'i';
    case Value::Kind::kDouble: return 'd';
    case Value::Kind::kBool: return 'b';
    case Value::Kind::kString: return 's';
    case Value::Kind::kTime: return 't';
  }
  return '?';
}

// Upper bound on the length of `v.canonical()`.
std::size_t canonical_bound(const Value& v) {
  switch (v.kind()) {
    case Value::Kind::kDouble: return 2 + kHexfloatMax;
    case Value::Kind::kString: return 2 + escaped_size(v.as_string());
    default: return 2 + 20;  // "-9223372036854775808"
  }
}

// Writes the canonical "<kind tag>:<payload>" of a non-string `v` to
// `buf` (room for kScalarMax bytes); returns the end.
constexpr std::size_t kScalarMax = 2 + kHexfloatMax;

char* scalar_canonical(const Value& v, char* buf) {
  *buf++ = kind_tag(v.kind());
  *buf++ = ':';
  switch (v.kind()) {
    case Value::Kind::kDouble: return hexfloat(v.as_double(), buf);
    case Value::Kind::kBool: *buf = v.as_bool() ? '1' : '0'; return buf + 1;
    case Value::Kind::kTime:
      return std::to_chars(buf, buf + kHexfloatMax, v.as_time().picos()).ptr;
    default:
      return std::to_chars(buf, buf + kHexfloatMax, v.as_int()).ptr;
  }
}

std::vector<std::string> split_tabs(const std::string& line) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t tab = line.find('\t', start);
    if (tab == std::string::npos) {
      out.push_back(line.substr(start));
      return out;
    }
    out.push_back(line.substr(start, tab - start));
    start = tab + 1;
  }
}

Expected<Value> parse_value(const std::string& kind, const std::string& payload,
                            const std::string& precision) {
  if (kind.size() != 1) return Expected<Value>::error("bad value kind");
  char* end = nullptr;
  switch (kind[0]) {
    case 'i':
      return Value{static_cast<std::int64_t>(
          std::strtoll(payload.c_str(), &end, 10))};
    case 'b':
      return Value{payload == "1"};
    case 't':
      return Value{Time::ps(std::strtoll(payload.c_str(), &end, 10))};
    case 'd':
      return Value{std::strtod(payload.c_str(), &end),
                   std::atoi(precision.c_str())};
    case 's':
      return Value{unescape(payload)};
    default:
      return Expected<Value>::error("unknown value kind '" + kind + "'");
  }
}

}  // namespace

std::int64_t Value::as_int() const {
  PAP_CHECK_MSG(kind_ == Kind::kInt || kind_ == Kind::kBool,
                "Value is not an integer");
  return int_;
}

double Value::as_double() const {
  switch (kind_) {
    case Kind::kDouble: return dbl_;
    case Kind::kInt: return static_cast<double>(int_);
    case Kind::kTime: return as_time().nanos();
    default:
      PAP_CHECK_MSG(false, "Value is not numeric");
      return 0.0;
  }
}

bool Value::as_bool() const {
  PAP_CHECK_MSG(kind_ == Kind::kBool, "Value is not a bool");
  return int_ != 0;
}

const std::string& Value::as_string() const {
  PAP_CHECK_MSG(kind_ == Kind::kString, "Value is not a string");
  return str_;
}

Time Value::as_time() const {
  PAP_CHECK_MSG(kind_ == Kind::kTime, "Value is not a Time");
  return Time::ps(int_);
}

std::string Value::display() const {
  char buf[64];
  switch (kind_) {
    case Kind::kInt:
      return std::to_string(int_);
    case Kind::kBool:
      return int_ ? "true" : "false";
    case Kind::kString:
      return str_;
    case Kind::kDouble: {
      std::snprintf(buf, sizeof buf, "%.*f", precision_, dbl_);
      return buf;
    }
    case Kind::kTime: {
      std::snprintf(buf, sizeof buf, "%.3f", Time::ps(int_).nanos());
      return buf;
    }
  }
  return {};
}

std::string Value::machine() const {
  char buf[64];
  switch (kind_) {
    case Kind::kDouble:
      std::snprintf(buf, sizeof buf, "%.17g", dbl_);
      return buf;
    case Kind::kBool:
      return int_ ? "1" : "0";
    case Kind::kTime:
      std::snprintf(buf, sizeof buf, "%.3f", Time::ps(int_).nanos());
      return buf;
    default:
      return display();
  }
}

std::string Value::json() const {
  switch (kind_) {
    case Kind::kString: {
      std::string out = "\"";
      for (char c : str_) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default: out += c;
        }
      }
      return out + "\"";
    }
    case Kind::kBool:
      return int_ ? "true" : "false";
    case Kind::kDouble:
      if (!std::isfinite(dbl_)) return "null";
      return machine();
    default:
      return machine();
  }
}

std::string Value::canonical() const {
  if (kind_ == Kind::kString) {
    std::string out = "s:";
    append_escaped(&out, str_);
    return out;
  }
  char buf[kScalarMax];
  return std::string(buf, scalar_canonical(*this, buf));
}

bool Value::operator==(const Value& o) const {
  if (kind_ != o.kind_) return false;
  switch (kind_) {
    case Kind::kDouble:
      // Bitwise comparison: cache round trips are exact, and NaN != NaN
      // would make every NaN-carrying result "different from itself".
      {
        char a[kHexfloatMax], b[kHexfloatMax];
        return std::string_view(a, hexfloat(dbl_, a) - a) ==
               std::string_view(b, hexfloat(o.dbl_, b) - b);
      }
    case Kind::kString:
      return str_ == o.str_;
    default:
      return int_ == o.int_;
  }
}

ParamMap& ParamMap::set(std::string key, Value v) {
  for (auto& [k, val] : entries_) {
    if (k == key) {
      val = std::move(v);
      return *this;
    }
  }
  entries_.emplace_back(std::move(key), std::move(v));
  return *this;
}

const Value* ParamMap::find(const std::string& key) const {
  for (const auto& [k, v] : entries_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Value& ParamMap::at(const std::string& key) const {
  const Value* v = find(key);
  PAP_CHECK_MSG(v != nullptr, key.c_str());
  return *v;
}

std::string ParamMap::label() const {
  std::string out;
  for (const auto& [k, v] : entries_) {
    if (!out.empty()) out += ' ';
    out += k + '=' + v.display();
  }
  return out;
}

std::string ParamMap::canonical() const {
  std::string out;
  append_canonical(&out);
  return out;
}

void ParamMap::append_canonical(std::string* out) const {
  std::size_t size = out->size();
  for (const auto& [k, v] : entries_) {
    size += escaped_size(k) + 2 + canonical_bound(v);
  }
  const std::size_t old = out->size();
  out->resize(size);
  char* p = out->data() + old;
  for (const auto& [k, v] : entries_) {
    p = write_escaped(p, k);
    *p++ = '\t';
    if (v.kind() == Value::Kind::kString) {
      *p++ = 's';
      *p++ = ':';
      p = write_escaped(p, v.as_string());
    } else {
      p = scalar_canonical(v, p);
    }
    *p++ = '\n';
  }
  out->resize(static_cast<std::size_t>(p - out->data()));
}

Result& Result::set(std::string name, Value v) {
  for (auto& [k, val] : metrics_) {
    if (k == name) {
      val = std::move(v);
      return *this;
    }
  }
  metrics_.emplace_back(std::move(name), std::move(v));
  return *this;
}

Result& Result::add(std::string name, Value v) {
  metrics_.emplace_back(std::move(name), std::move(v));
  return *this;
}

const Value* Result::find(const std::string& name) const {
  for (const auto& [k, v] : metrics_) {
    if (k == name) return &v;
  }
  return nullptr;
}

const Value& Result::at(const std::string& name) const {
  const Value* v = find(name);
  PAP_CHECK_MSG(v != nullptr, name.c_str());
  return *v;
}

std::string Result::serialize() const {
  std::ostringstream os;
  os << "pap-exp-result\t1\n";
  os << "label\t" << escape(label_) << "\n";
  for (const auto& [name, v] : metrics_) {
    const std::string canon = v.canonical();  // "<kind>:<payload>"
    os << "m\t" << escape(name) << "\t" << canon[0] << "\t" << canon.substr(2)
       << "\t" << v.precision() << "\n";
  }
  return os.str();
}

Expected<Result> Result::deserialize(const std::string& text) {
  std::istringstream is(text);
  std::string line;
  if (!std::getline(is, line) || line != "pap-exp-result\t1") {
    return Expected<Result>::error("not a pap-exp-result v1 blob");
  }
  Result r;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    const auto f = split_tabs(line);
    if (f[0] == "label" && f.size() == 2) {
      r.set_label(unescape(f[1]));
    } else if (f[0] == "m" && f.size() == 5) {
      auto v = parse_value(f[2], f[3], f[4]);
      if (!v) return Expected<Result>::error(v.error_message());
      r.set(unescape(f[1]), std::move(v).value());
    } else {
      return Expected<Result>::error("malformed result line: " + line);
    }
  }
  return r;
}

std::uint64_t content_hash(const Experiment& exp, const Params& params) {
  // FNV-1a 64-bit.
  std::uint64_t h = 14695981039346656037ull;
  auto mix = [&h](const std::string& s) {
    for (unsigned char c : s) {
      h ^= c;
      h *= 1099511628211ull;
    }
    h ^= 0xff;  // field separator
    h *= 1099511628211ull;
  };
  mix(exp.name);
  mix(std::to_string(exp.version));
  mix(params.canonical());
  return h;
}

}  // namespace pap::exp
