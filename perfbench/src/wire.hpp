// Load generation against papd over its unix socket.
//
// One thread drives every connection of a phase through a nonblocking
// ppoll loop, so the generator stays within one core however many requests
// are pipelined. Two phase shapes:
//
//   closed  C connections x pipeline depth P; the next request goes out only
//           when a reply frees a slot. Gives saturation throughput.
//   open    requests due on a fixed schedule (rate R, alternating
//           connections), sent whether or not earlier replies arrived.
//           Latency runs from when a request was *due*, so a stall of the
//           host or the daemon is charged to every request it delays; how
//           late the generator itself sent is recorded separately.
//
// Requests are made on demand by a LineFn (id -> request line); replies
// are matched by their `{"id":N,` prefix and handed to a ReplyFn.
#pragma once

#include <functional>
#include <string>
#include <string_view>

#include "common.hpp"

namespace bench {

using LineFn = std::function<void(long id, std::string* out)>;
/// Called once per reply; returns false for a failed operation (error
/// reply, overloaded reply, mismatching bytes).
using ReplyFn = std::function<bool(long id, std::string_view reply)>;

struct PhaseResult {
  long sent = 0;
  long ok = 0;
  long failed = 0;
  long completed_in_window = 0;  ///< replies received before the deadline
  double window_s = 0.0;         ///< the timed window
  Samples latency_us;            ///< per reply
  Samples late_us;               ///< open loop: send time - due time
};

PhaseResult run_closed(const std::string& socket, int connections,
                       int depth, double seconds, long first_id,
                       const LineFn& make, const ReplyFn& on_reply);

PhaseResult run_open(const std::string& socket, int connections,
                     double rate_per_s, double seconds, long first_id,
                     const LineFn& make, const ReplyFn& on_reply);

/// Id of a reply line (`{"id":N,...`), -1 if malformed.
long reply_id(std::string_view reply);

/// Reply payload after the `{"id":N,` prefix: equal across ids for equal
/// answers.
std::string_view reply_body(std::string_view reply);

inline bool reply_ok(std::string_view reply) {
  return reply.find("\"ok\":true") != std::string_view::npos;
}

}  // namespace bench
