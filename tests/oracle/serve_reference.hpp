// The tree-based request parse papd used before the one-pass reader
// (test-only oracle library; nothing under src/ links it).
//
// json_parse builds the whole JsonValue tree (std::map per object), then
// json_flatten walks it in key order, building every dotted path from
// per-level prefixes and inserting through ParamMap::set. serve::
// parse_request must return exactly what this returns — id, op, params and
// key() bytes on success, the error message bytes on failure — which
// tests/serve_parse_oracle_test.cpp checks; bench/perf_report times the
// two against each other.
#pragma once

#include <string>

#include "common/status.hpp"
#include "exp/experiment.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"

namespace pap::serve::reference {

/// Flatten a parsed JSON object into an exp::Params map. Nested objects
/// become dotted keys ("service.rate"), arrays indexed keys ("apps.0.burst")
/// in element order. Scalars map to exp::Value of the matching kind; null
/// and empty containers are rejected.
Expected<exp::Params> json_flatten(const JsonValue& object);

/// json_parse, then the envelope checks over the sorted root members, then
/// json_flatten of `params`.
Expected<Request> parse_request(const std::string& line,
                                const ParseLimits& limits = {});

}  // namespace pap::serve::reference
