// Stateful admission sessions: the serving-side face of the incremental
// admission engine (docs/admission.md).
//
// The stateless endpoints re-prove a whole flow set per request; an
// admission *session* keeps one admit::IncrementalAdmission resident
// between requests, so each admit/release pays only the engine's dirty-set
// work — the serving shape for the paper's resource-manager loop, where
// clients arrive and leave one at a time against standing platform state.
//
// Session ops are deliberately OUTSIDE the service's cache/coalescing
// machinery: two byte-identical `admission_admit` requests are *different*
// decisions (the second is a duplicate rejection), so their replies must
// never be coalesced, cached in the LRU, or persisted to the disk tier.
// The service routes them straight to the worker pool (serve/service.cpp).
//
// Concurrency: the registry serializes ops per session (one mutex per
// session), so concurrent admits are atomic but their order is whatever
// the worker pool runs first. Clients that need a deterministic decision
// sequence — pap_loadgen --churn, the CI determinism job — pipeline
// depth-1 against one session, making the order client-driven.
//
// Determinism: session ids are assigned 1, 2, 3, … in open order, every
// reply is a pure function of the session history, and `admission_stats`
// reports only decision counters (no wall-clock), so a replayed request
// sequence produces byte-identical replies across runs and across
// single-worker vs multi-worker daemons.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "admit/incremental.hpp"
#include "serve/handlers.hpp"

namespace pap::serve {

/// Registry of open admission sessions; owned by the AnalysisService state
/// and shared by its workers.
class SessionRegistry {
 public:
  explicit SessionRegistry(HandlerLimits limits) : limits_(limits) {}

  /// True iff `op` is a stateful session endpoint (never cached/coalesced).
  static bool is_session_op(const std::string& op);
  /// All session ops, in documentation order.
  static const std::vector<std::string>& session_ops();

  /// Dispatch a session request. Thread-safe; ops on the same session
  /// serialize on its mutex.
  HandlerOutcome dispatch(const std::string& op, const exp::Params& params);

  std::size_t open_sessions() const;

 private:
  struct Session {
    std::mutex mu;
    admit::IncrementalAdmission engine;
    std::uint64_t decisions = 0;  // admit + release calls

    explicit Session(core::PlatformModel model) : engine(std::move(model)) {}
  };

  HandlerOutcome open(const exp::Params& params);
  HandlerOutcome admit(const exp::Params& params);
  HandlerOutcome release(const exp::Params& params);
  HandlerOutcome stats(const exp::Params& params);
  HandlerOutcome close(const exp::Params& params);

  /// nullptr + error outcome when the id is unknown.
  std::shared_ptr<Session> find(std::int64_t id) const;

  HandlerLimits limits_;
  mutable std::mutex mu_;
  std::map<std::int64_t, std::shared_ptr<Session>> sessions_;
  std::int64_t next_id_ = 1;
};

}  // namespace pap::serve
