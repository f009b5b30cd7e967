#include "serve/protocol.hpp"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

namespace pap::serve {

const char* error_code_name(ErrorCode code) {
  switch (code) {
    case ErrorCode::kParseError: return "parse_error";
    case ErrorCode::kBadRequest: return "bad_request";
    case ErrorCode::kOverloaded: return "overloaded";
    case ErrorCode::kShuttingDown: return "shutting_down";
    case ErrorCode::kInternal: return "internal";
  }
  return "?";
}

namespace {

// Per-thread scratch of the flat parse, reused across lines so that a
// request allocates little beyond what it returns.
struct Scratch {
  struct Member {
    std::uint32_t key_begin, key_end;      // in `keys`
    std::uint32_t block_begin, block_end;  // the member's slice of `order`
    std::uint64_t prefix;  // first 8 key bytes, big-endian, zero-padded
  };
  std::string path;              // dotted path of the value being read
  std::string keys;              // keys of the members below, back to back
  std::vector<Member> members;   // members of the open objects, outermost first
  std::vector<std::pair<std::string, exp::Value>> entries;  // document order
  std::vector<std::string> errors;  // semantic errors, document order
  // Canonical order: an `entries` index, or kError | an `errors` index.
  std::vector<std::uint32_t> order;
  std::vector<std::uint32_t> sorted;  // reorder buffer for `order`

  static constexpr std::uint32_t kError = 0x80000000u;

  std::string_view key(const Member& m) const {
    return std::string_view(keys).substr(m.key_begin, m.key_end - m.key_begin);
  }

  // Byte-wise key order (std::map's), decided by the prefixes unless they
  // tie.
  bool less(const Member& a, const Member& b) const {
    return a.prefix != b.prefix ? a.prefix < b.prefix : key(a) < key(b);
  }
  bool same_key(const Member& a, const Member& b) const {
    return a.prefix == b.prefix && key(a) == key(b);
  }

  static std::uint64_t prefix_of(std::string_view key) {
    std::uint64_t p = 0;
    for (std::size_t i = 0; i < 8; ++i) {
      p = p << 8 | (i < key.size() ? static_cast<unsigned char>(key[i]) : 0u);
    }
    return p;
  }
};

// Clears the scratch when the parse ends, and gives back the memory after
// an unusually large line so an idle thread keeps only a small buffer.
class ScratchLease {
 public:
  ScratchLease() {
    static thread_local Scratch scratch;
    s_ = &scratch;
  }
  ~ScratchLease() {
    if (s_->entries.capacity() > 256 || s_->members.capacity() > 256 ||
        s_->order.capacity() > 1024 || s_->sorted.capacity() > 1024 ||
        s_->keys.capacity() > 4096 || s_->path.capacity() > 4096) {
      *s_ = Scratch{};
      return;
    }
    s_->path.clear();
    s_->keys.clear();
    s_->members.clear();
    s_->entries.clear();
    s_->errors.clear();
    s_->order.clear();
  }
  ScratchLease(const ScratchLease&) = delete;
  ScratchLease& operator=(const ScratchLease&) = delete;
  Scratch& operator*() { return *s_; }

 private:
  Scratch* s_;
};

// Reads `params` values straight into flat entries. Each object sorts its
// members' slices of `order` by key when it closes, so the slices nest
// exactly like the std::map traversal of a tree would visit them.
class FlatReader {
 public:
  FlatReader(JsonReader& in, Scratch& s) : in_(in), s_(s) {}

  bool value() {
    JsonReader::Token token;
    if (!in_.peek(&token)) return false;
    switch (token) {
      case JsonReader::Token::kObject: {
        bool more = false;
        if (!in_.begin_object(&more)) return false;
        if (!more) {
          error("empty object parameter '" + s_.path + "'");
          return true;
        }
        return members();
      }
      case JsonReader::Token::kArray: {
        bool more = false;
        if (!in_.begin_array(&more)) return false;
        if (!more) {
          error("empty array parameter '" + s_.path + "'");
          return true;
        }
        const std::size_t base = s_.path.size();
        for (std::size_t i = 0; more; ++i) {
          char digits[24];
          s_.path += '.';
          s_.path.append(digits,
                         std::to_chars(digits, digits + sizeof digits, i).ptr);
          if (!value()) return false;
          s_.path.resize(base);
          if (!in_.end_element(&more)) return false;
        }
        return true;
      }
      case JsonReader::Token::kString: {
        std::string str;
        if (!in_.read_string(&str)) return false;
        emit(exp::Value{std::move(str)});
        return true;
      }
      case JsonReader::Token::kNumber: {
        JsonNumber n;
        if (!in_.read_number(&n)) return false;
        emit(n.is_int ? exp::Value{n.int_v} : exp::Value{n.dbl_v});
        return true;
      }
      case JsonReader::Token::kBool: {
        bool b = false;
        if (!in_.read_bool(&b)) return false;
        emit(exp::Value{b});
        return true;
      }
      case JsonReader::Token::kNull:
        if (!in_.read_null()) return false;
        error("null is not a valid parameter value ('" + s_.path + "')");
        return true;
    }
    return in_.fail("unreachable JSON token");
  }

  /// The members of an object whose '{' and first-member check are done.
  bool members() {
    const std::size_t first = s_.members.size();
    const std::size_t keys_base = s_.keys.size();
    const std::size_t path_base = s_.path.size();
    bool more = true;
    while (more) {
      const auto key_begin = static_cast<std::uint32_t>(s_.keys.size());
      if (!in_.read_key(&s_.keys)) return false;
      Scratch::Member m{key_begin, static_cast<std::uint32_t>(s_.keys.size()),
                        static_cast<std::uint32_t>(s_.order.size()), 0, 0};
      const std::string_view key = s_.key(m);
      m.prefix = Scratch::prefix_of(key);
      bool duplicate = false;
      for (std::size_t i = first; i < s_.members.size() && !duplicate; ++i) {
        duplicate = s_.same_key(s_.members[i], m);
      }
      if (key.empty()) {
        error("empty key under '" + s_.path + "'");
      } else if (key.find('.') != std::string_view::npos) {
        error("parameter key '" + std::string(key) + "' must not contain '.'");
      }
      if (path_base != 0) s_.path += '.';
      s_.path += key;
      if (!value()) return false;
      s_.path.resize(path_base);
      // Reported after the value, where a tree parser would find it.
      if (duplicate) return in_.fail("duplicate object key");
      m.block_end = static_cast<std::uint32_t>(s_.order.size());
      s_.members.push_back(m);
      if (!in_.end_member(&more)) return false;
    }
    sort_members(first);
    s_.members.resize(first);
    s_.keys.resize(keys_base);
    return true;
  }

 private:
  void emit(exp::Value v) {
    s_.order.push_back(static_cast<std::uint32_t>(s_.entries.size()));
    s_.entries.emplace_back(s_.path, std::move(v));
  }

  void error(std::string msg) {
    s_.order.push_back(Scratch::kError |
                       static_cast<std::uint32_t>(s_.errors.size()));
    s_.errors.push_back(std::move(msg));
  }

  // Members' slices of `order` are back to back; put them in key order.
  void sort_members(std::size_t first) {
    const auto begin = s_.members.begin() + static_cast<std::ptrdiff_t>(first);
    const auto by_key = [this](const Scratch::Member& a,
                               const Scratch::Member& b) {
      return s_.less(a, b);
    };
    if (std::is_sorted(begin, s_.members.end(), by_key)) return;
    const std::uint32_t slice = begin->block_begin;
    std::sort(begin, s_.members.end(), by_key);
    s_.sorted.clear();
    for (auto m = begin; m != s_.members.end(); ++m) {
      s_.sorted.insert(s_.sorted.end(), s_.order.begin() + m->block_begin,
                       s_.order.begin() + m->block_end);
    }
    std::copy(s_.sorted.begin(), s_.sorted.end(), s_.order.begin() + slice);
  }

  JsonReader& in_;
  Scratch& s_;
};

}  // namespace

Expected<Request> parse_request(const std::string& line,
                                const ParseLimits& limits) {
  using Token = JsonReader::Token;
  JsonReader in(line, JsonLimits{limits.max_bytes, limits.max_depth});
  auto syntax_error = [&in] { return Expected<Request>::error(in.error()); };
  Token token;
  if (!in.ok() || !in.peek(&token)) return syntax_error();
  if (token != Token::kObject) {
    JsonValue skipped;
    if (!in.read_value(&skipped) || !in.finish()) return syntax_error();
    return Expected<Request>::error("request must be a JSON object");
  }

  ScratchLease lease;
  Scratch& s = *lease;
  Request req;
  bool saw_id = false;
  bool saw_params = false;
  // Semantic errors wait until the whole line is known to be well formed;
  // then the one of the first member in key order is reported.
  std::string error_key;
  std::string error;
  bool more = false;
  in.begin_object(&more);
  while (more) {
    // Envelope keys sit at the bottom of the scratch key/member stacks,
    // below the params members the flat reader pushes and pops.
    const auto key_begin = static_cast<std::uint32_t>(s.keys.size());
    if (!in.read_key(&s.keys)) return syntax_error();
    const std::string key = s.keys.substr(key_begin);
    std::string member_error;
    const bool ok = in.peek(&token);
    if (ok && key == "id" && token == Token::kNumber) {
      JsonNumber n;
      if (!in.read_number(&n)) return syntax_error();
      if (!n.is_int || n.int_v < 0) {
        member_error = "'id' must be a non-negative integer";
      }
      req.id = n.int_v;
      saw_id = true;
    } else if (ok && key == "op" && token == Token::kString) {
      if (!in.read_string(&req.op)) return syntax_error();
      if (req.op.empty()) member_error = "'op' must be a non-empty string";
    } else if (ok && key == "params" && token == Token::kObject) {
      bool has_member = false;
      in.begin_object(&has_member);
      FlatReader flat(in, s);
      if (has_member && !flat.members()) return syntax_error();
      for (const std::uint32_t i : s.order) {
        if (i & Scratch::kError) {
          member_error = s.errors[i & ~Scratch::kError];
          break;
        }
      }
      saw_params = true;
    } else {
      JsonValue skipped;
      if (!ok || !in.read_value(&skipped)) return syntax_error();
      member_error = key == "id"       ? "'id' must be a non-negative integer"
                     : key == "op"     ? "'op' must be a non-empty string"
                     : key == "params" ? "params must be a JSON object"
                                       : "unknown request member '" + key + "'";
    }
    for (const Scratch::Member& m : s.members) {
      if (s.key(m) == key) {
        in.fail("duplicate object key");
        return syntax_error();
      }
    }
    s.members.push_back(
        {key_begin, static_cast<std::uint32_t>(s.keys.size()), 0, 0, 0});
    if (!member_error.empty() && (error.empty() || key < error_key)) {
      error_key = key;
      error = std::move(member_error);
    }
    if (!in.end_member(&more)) return syntax_error();
  }
  if (!in.finish()) return syntax_error();
  if (!error.empty()) return Expected<Request>::error(error);
  if (!saw_id) return Expected<Request>::error("missing 'id'");
  if (req.op.empty()) return Expected<Request>::error("missing 'op'");
  if (saw_params) {
    std::vector<std::pair<std::string, exp::Value>> entries;
    entries.reserve(s.order.size());
    for (const std::uint32_t i : s.order) {
      entries.push_back(std::move(s.entries[i]));
    }
    req.params = exp::Params(std::move(entries));
  }
  return req;
}

std::string ok_reply(std::int64_t id, const std::string& result_payload) {
  return "{\"id\":" + std::to_string(id) +
         ",\"ok\":true,\"result\":" + result_payload + "}";
}

std::string error_reply(std::int64_t id, ErrorCode code,
                        const std::string& message) {
  return "{\"id\":" + std::to_string(id) +
         ",\"ok\":false,\"error\":{\"code\":\"" + error_code_name(code) +
         "\",\"message\":" + json_quote(message) + "}}";
}

std::string render_result(const exp::Result& result) {
  std::string out = "{\"label\":" + exp::Value{result.label()}.json() +
                    ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, v] : result.metrics()) {
    if (!first) out += ',';
    first = false;
    out += exp::Value{name}.json() + ':' + v.json();
  }
  out += "}}";
  return out;
}

}  // namespace pap::serve
