// Experiment abstraction for the parallel sweep engine (src/exp).
//
// Every bench in this repository regenerates a paper figure/table by running
// the same loop: build a configuration, run a deterministic simulation,
// print a table row. The exp subsystem factors that loop out:
//
//   * `Params`     — one named parameter point of a sweep (ordered key/value).
//   * `Result`     — the named, ordered scalar metrics one run produced.
//   * `Experiment` — a name plus a pure `run(const Params&) -> Result`
//                    functor. Each invocation must be self-contained (own
//                    `sim::Kernel`, own models) so points can execute on
//                    concurrent threads while every individual simulation
//                    stays single-threaded and deterministic.
//
// `SweepBuilder` (sweep.hpp) enumerates parameter grids, `Runner`
// (runner.hpp) executes them on a thread pool, and sinks (sink.hpp) render
// the collected results as console tables, CSV or JSON-lines.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.hpp"
#include "common/time.hpp"

namespace pap::trace {
class Tracer;
}

namespace pap::exp {

/// A tagged scalar: the one cell type flowing through params, results and
/// sinks. Doubles carry a display precision so console tables render
/// exactly like the hand-rolled `TextTable` cells they replaced.
class Value {
 public:
  enum class Kind { kInt, kDouble, kBool, kString, kTime };

  Value() = default;
  Value(int v) : kind_(Kind::kInt), int_(v) {}                   // NOLINT
  Value(std::int64_t v) : kind_(Kind::kInt), int_(v) {}          // NOLINT
  Value(std::uint64_t v)                                         // NOLINT
      : kind_(Kind::kInt), int_(static_cast<std::int64_t>(v)) {}
  Value(double v, int precision = 3)                             // NOLINT
      : kind_(Kind::kDouble), dbl_(v), precision_(precision) {}
  Value(bool v) : kind_(Kind::kBool), int_(v ? 1 : 0) {}         // NOLINT
  Value(std::string v) : kind_(Kind::kString), str_(std::move(v)) {}  // NOLINT
  Value(const char* v) : kind_(Kind::kString), str_(v) {}        // NOLINT
  Value(Time t) : kind_(Kind::kTime), int_(t.picos()) {}         // NOLINT

  Kind kind() const { return kind_; }
  std::int64_t as_int() const;
  double as_double() const;  ///< kInt/kDouble widen; kTime in nanoseconds.
  bool as_bool() const;
  const std::string& as_string() const;
  Time as_time() const;
  int precision() const { return precision_; }

  /// Human rendering, identical to the `TextTable::cell` overloads: ints
  /// verbatim, doubles fixed with `precision`, Time as ns with 3 decimals.
  std::string display() const;
  /// Machine rendering for CSV: full-precision doubles (%.17g), Time as ns.
  std::string machine() const;
  /// JSON literal for the JSON-lines sink.
  std::string json() const;
  /// Stable, lossless representation used for hashing and the result cache
  /// (doubles as hexfloat). Includes a kind tag.
  std::string canonical() const;

  bool operator==(const Value& o) const;

 private:
  Kind kind_ = Kind::kInt;
  std::int64_t int_ = 0;  // kInt, kBool (0/1), kTime (picoseconds)
  double dbl_ = 0.0;
  std::string str_;
  int precision_ = 3;
};

/// An ordered key -> Value map; insertion order is the column order every
/// sink uses, so sweeps render reproducibly.
class ParamMap {
 public:
  ParamMap() = default;
  /// Adopts `entries` as they are. The keys must be unique (unchecked):
  /// this is for builders that already guarantee it, e.g. a parser
  /// emitting a flattened object, where `set`'s per-key scan is waste.
  explicit ParamMap(std::vector<std::pair<std::string, Value>> entries)
      : entries_(std::move(entries)) {}

  ParamMap& set(std::string key, Value v);
  const Value* find(const std::string& key) const;
  /// Checked lookup; missing keys are a programming error in the sweep.
  const Value& at(const std::string& key) const;

  std::int64_t get_int(const std::string& key) const { return at(key).as_int(); }
  double get_double(const std::string& key) const { return at(key).as_double(); }
  bool get_bool(const std::string& key) const { return at(key).as_bool(); }
  Time get_time(const std::string& key) const { return at(key).as_time(); }
  const std::string& get_string(const std::string& key) const {
    return at(key).as_string();
  }

  bool empty() const { return entries_.empty(); }
  std::size_t size() const { return entries_.size(); }
  const std::vector<std::pair<std::string, Value>>& entries() const {
    return entries_;
  }

  /// "hogs=3 memguard=true" — for logs and default labels.
  std::string label() const;
  /// Stable representation for content hashing: one
  /// "<key>\t<Value::canonical()>\n" line per entry, keys escaped.
  std::string canonical() const;
  /// Appends canonical() to `*out`, reserving the room up front.
  void append_canonical(std::string* out) const;

  bool operator==(const ParamMap& o) const { return entries_ == o.entries_; }

 private:
  std::vector<std::pair<std::string, Value>> entries_;
};

using Params = ParamMap;

/// The metrics one experiment run produced, in presentation order.
class Result {
 public:
  Result() = default;
  explicit Result(std::string label) : label_(std::move(label)) {}

  /// Insert-or-overwrite by name (position preserved on overwrite).
  Result& set(std::string name, Value v);
  /// Append unconditionally — for tables with repeated column names (e.g.
  /// Table II's two "err%" columns). `find`/`at` return the first match.
  Result& add(std::string name, Value v);
  const Value* find(const std::string& name) const;
  const Value& at(const std::string& name) const;

  const std::string& label() const { return label_; }
  void set_label(std::string l) { label_ = std::move(l); }
  const std::vector<std::pair<std::string, Value>>& metrics() const {
    return metrics_;
  }

  /// Lossless text serialization for the result cache (tab-separated lines,
  /// hexfloat doubles; bit-exact round trip).
  std::string serialize() const;
  static Expected<Result> deserialize(const std::string& text);

  bool operator==(const Result& o) const {
    return label_ == o.label_ && metrics_ == o.metrics_;
  }

 private:
  std::string label_;
  std::vector<std::pair<std::string, Value>> metrics_;
};

/// A named experiment: the unit the Runner sweeps. `run` must be callable
/// from multiple threads concurrently (each call builds its own simulators)
/// and deterministic in its Params. Bump `version` whenever the semantics
/// of `run` change so stale cached results are invalidated.
///
/// Tracing-aware experiments provide `run_traced` instead of (or as well
/// as) `run`: the Runner passes a per-point trace::Tracer when the sweep
/// runs with a trace directory configured, and nullptr otherwise — the
/// functor attaches it to its kernel (`kernel.set_tracer(tracer)`) and
/// must produce identical Results either way. When both functors are set,
/// `run_traced` wins.
struct Experiment {
  std::string name;
  std::function<Result(const Params&)> run;
  int version = 1;
  /// Optional tracing-aware functor (declared after `version` so the
  /// established `{name, run, version}` aggregate init keeps working).
  std::function<Result(const Params&, trace::Tracer*)> run_traced;
};

/// FNV-1a over the experiment identity and a parameter point — the content
/// hash that keys the result cache.
std::uint64_t content_hash(const Experiment& exp, const Params& params);

}  // namespace pap::exp
