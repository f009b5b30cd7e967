#include "oracle/serve_reference.hpp"

#include <utility>

namespace pap::serve::reference {

namespace {

Status flatten_into(const JsonValue& v, const std::string& prefix,
                    exp::Params* out) {
  switch (v.kind) {
    case JsonValue::Kind::kBool:
      out->set(prefix, exp::Value{v.bool_v});
      return Status::ok();
    case JsonValue::Kind::kInt:
      out->set(prefix, exp::Value{v.int_v});
      return Status::ok();
    case JsonValue::Kind::kDouble:
      out->set(prefix, exp::Value{v.dbl_v});
      return Status::ok();
    case JsonValue::Kind::kString:
      out->set(prefix, exp::Value{v.str_v});
      return Status::ok();
    case JsonValue::Kind::kNull:
      return Status::error("null is not a valid parameter value ('" + prefix +
                           "')");
    case JsonValue::Kind::kArray: {
      if (v.array_v.empty()) {
        return Status::error("empty array parameter '" + prefix + "'");
      }
      for (std::size_t i = 0; i < v.array_v.size(); ++i) {
        const std::string key = prefix + "." + std::to_string(i);
        if (auto s = flatten_into(v.array_v[i], key, out); !s) return s;
      }
      return Status::ok();
    }
    case JsonValue::Kind::kObject: {
      if (v.object_v.empty()) {
        return Status::error("empty object parameter '" + prefix + "'");
      }
      for (const auto& [key, member] : v.object_v) {
        if (key.empty()) {
          return Status::error("empty key under '" + prefix + "'");
        }
        if (key.find('.') != std::string::npos) {
          return Status::error("parameter key '" + key +
                               "' must not contain '.'");
        }
        const std::string path = prefix.empty() ? key : prefix + "." + key;
        if (auto s = flatten_into(member, path, out); !s) return s;
      }
      return Status::ok();
    }
  }
  return Status::error("unreachable JSON kind");
}

}  // namespace

Expected<exp::Params> json_flatten(const JsonValue& object) {
  if (object.kind != JsonValue::Kind::kObject) {
    return Expected<exp::Params>::error("params must be a JSON object");
  }
  exp::Params out;
  if (object.object_v.empty()) return out;  // explicit "params":{} is fine
  // std::map iteration gives sorted keys, so insertion order — and with it
  // Params::canonical() — is independent of the request's member order.
  if (auto s = flatten_into(object, "", &out); !s) {
    return Expected<exp::Params>::error(s.message());
  }
  return out;
}

Expected<Request> parse_request(const std::string& line,
                                const ParseLimits& limits) {
  JsonLimits jl;
  jl.max_bytes = limits.max_bytes;
  jl.max_depth = limits.max_depth;
  auto parsed = json_parse(line, jl);
  if (!parsed) return Expected<Request>::error(parsed.error_message());
  const JsonValue& root = parsed.value();
  if (root.kind != JsonValue::Kind::kObject) {
    return Expected<Request>::error("request must be a JSON object");
  }
  Request req;
  bool saw_id = false;
  for (const auto& [key, member] : root.object_v) {
    if (key == "id") {
      if (member.kind != JsonValue::Kind::kInt || member.int_v < 0) {
        return Expected<Request>::error("'id' must be a non-negative integer");
      }
      req.id = member.int_v;
      saw_id = true;
    } else if (key == "op") {
      if (member.kind != JsonValue::Kind::kString || member.str_v.empty()) {
        return Expected<Request>::error("'op' must be a non-empty string");
      }
      req.op = member.str_v;
    } else if (key == "params") {
      auto flat = reference::json_flatten(member);
      if (!flat) return Expected<Request>::error(flat.error_message());
      req.params = std::move(flat).value();
    } else {
      return Expected<Request>::error("unknown request member '" + key + "'");
    }
  }
  if (!saw_id) return Expected<Request>::error("missing 'id'");
  if (req.op.empty()) return Expected<Request>::error("missing 'op'");
  return req;
}

}  // namespace pap::serve::reference
