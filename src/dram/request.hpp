// Memory request type shared by the DRAM controller simulator, the traffic
// generators and the SoC platform model.
#pragma once

#include <cstdint>
#include <functional>

#include "common/time.hpp"

namespace pap::dram {

enum class Op : std::uint8_t { kRead, kWrite };

struct Request {
  std::uint64_t id = 0;
  Op op = Op::kRead;
  /// Posted request: nobody waits for its data, so the controller serves it
  /// (queueing, timing, counters, latency histograms, tracing) but
  /// schedules no completion event and never calls the completion handler
  /// for it. The SoC posts its writes (Sec. IV-A: writes are not on the
  /// critical path and can be deferred); left false, every request,
  /// writes included, reports its completion.
  bool posted = false;
  std::uint32_t bank = 0;
  std::uint32_t row = 0;
  std::uint32_t master = 0;  ///< issuing agent, for per-master statistics
  Time arrival;              ///< time the request reached the controller
};
// `posted` sits in the padding after `op`: the queues move requests by
// value on every pick, so keep them at four words.
static_assert(sizeof(Request) == 32, "dram::Request grew past 32 bytes");

/// Invoked when a non-posted request's data transfer completes.
using CompletionFn = std::function<void(const Request&, Time completion)>;

}  // namespace pap::dram
