// AnalysisService: the concurrent admission-analysis core of papd.
//
// A bounded-queue worker pool executing the endpoint handlers
// (serve/handlers.hpp), with three serving-layer mechanisms on top:
//
//   * batching    — identical analysis requests (same op + canonical
//                   params) that arrive while one is queued or running are
//                   coalesced onto the in-flight computation: one handler
//                   run fans its answer out to every waiter.
//   * caching     — completed answers enter a sharded LRU keyed by the
//                   same content identity the offline exp::ResultCache
//                   uses; repeat requests are answered inline on the
//                   submitting thread without touching the queue. With a
//                   cache_dir configured, a persistent disk tier
//                   (serve::DiskCache) sits under the LRU: answers are
//                   persisted on completion, and an LRU-missed job probes
//                   the disk on its worker before computing (never on the
//                   submitting thread — that is a reactor event loop); a
//                   disk hit refills the LRU, so warm results survive
//                   restarts and are shared across a shard fleet.
//   * backpressure— the pending-job queue is bounded. When it is full a
//                   new (non-coalescible) request is answered immediately
//                   with an `overloaded` error instead of buffering — the
//                   429 analogue; memory stays flat no matter the offered
//                   load (asserted by bench/serving_throughput).
//
// Determinism: handlers are pure, so whether an answer was computed,
// coalesced or cached never changes its bytes — replies deliberately carry
// no cache/batch markers. Graceful shutdown (`shutdown`) stops intake
// (new submissions get `shutting_down`), drains every queued and running
// job so no accepted request is ever dropped, and joins the workers;
// a deadline variant detaches stuck workers instead of hanging forever.
//
// Thread-safety: `submit` may be called from any number of threads
// (connection handlers); replies fire on a worker thread for computed and
// disk-served answers and on the submitting thread for LRU hits and error
// replies. Nothing on the submit path blocks on I/O.
// The reply callback must therefore be thread-safe itself; it is invoked
// exactly once per submit, never while service locks are held.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "serve/handlers.hpp"
#include "serve/protocol.hpp"
#include "trace/counters.hpp"

namespace pap::serve {

struct ServiceConfig {
  int workers = 4;                    ///< handler threads (>= 1)
  std::size_t queue_capacity = 1024;  ///< pending unique jobs before 429s
  std::size_t cache_entries = 4096;   ///< LRU capacity; 0 disables caching
  /// Directory for the persistent disk tier under the LRU (serve::DiskCache):
  /// survives restarts and is shared read-mostly across papd processes.
  /// Empty disables it.
  std::string cache_dir;
  bool coalesce = true;               ///< batch identical in-flight requests
  ParseLimits parse;                  ///< request line limits
  HandlerLimits handlers;             ///< per-endpoint work bounds
  /// Test-only seam: runs on the worker thread right before a job's
  /// handler. Lets tests hold a worker at a known point to make the
  /// coalescing / backpressure / drain windows deterministic. Leave unset
  /// in production.
  std::function<void(const std::string& op)> before_dispatch;
};

class AnalysisService {
 public:
  using ReplyFn = std::function<void(std::string reply)>;

  explicit AnalysisService(ServiceConfig config = {});
  /// Destruction shuts down and drains (no deadline).
  ~AnalysisService();

  AnalysisService(const AnalysisService&) = delete;
  AnalysisService& operator=(const AnalysisService&) = delete;

  /// Handle one request line. `reply` fires exactly once with the full
  /// reply line (no trailing newline). Parse errors, LRU cache hits,
  /// overload and shutdown replies fire synchronously on this thread;
  /// computed and disk-served answers fire later on a worker thread.
  void submit(const std::string& line, ReplyFn reply);

  /// Synchronous convenience for tests and in-process callers: submit and
  /// wait for the reply.
  std::string handle(const std::string& line);

  /// Stop intake and wait for queued + running jobs to finish, then join
  /// the workers. Idempotent.
  void shutdown();

  /// Deadline variant: true when fully drained in time; false when the
  /// deadline passed first (workers are detached — service state is
  /// shared-pointer-held, so late completions stay safe, but their replies
  /// may never be delivered).
  bool shutdown(std::chrono::milliseconds deadline);

  /// Service-level counters ("serve" component namespace:
  /// service/parse_errors, service/bad_op, service/queue_depth). The
  /// registry is thread-safe; sampling it mid-flight is allowed.
  const trace::CounterRegistry& counters() const;

  /// One per-endpoint counter of the `stats` payload ("requests", "ok",
  /// "errors", "cache_hits", "disk_hits", "coalesced", "overloaded") for
  /// `op`; 0 for an unknown op or name. Safe to call mid-flight.
  std::uint64_t endpoint_count(const std::string& op,
                               const std::string& name) const;

  /// One-line JSON stats snapshot (the `stats` endpoint's payload):
  /// per-endpoint request/ok/error/cache/coalesce counts and latency
  /// percentiles in microseconds.
  std::string stats_json() const;

  const ServiceConfig& config() const { return config_; }

 private:
  struct State;
  void worker_loop(std::shared_ptr<State> state);
  void submit_request(Request req, ReplyFn reply,
                      std::chrono::steady_clock::time_point t0);

  ServiceConfig config_;
  std::shared_ptr<State> state_;
  std::vector<std::thread> workers_;
};

}  // namespace pap::serve
