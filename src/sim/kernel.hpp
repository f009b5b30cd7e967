// Discrete-event simulation kernel.
//
// Every hardware model in the repository (FR-FCFS DRAM controller, NoC
// routers, CPU schedulers, Memguard regulators, the SoC platform) runs on
// this single-threaded, deterministic event wheel. Determinism matters: the
// repository exists to study *predictability*, so two runs with identical
// configuration must produce bit-identical traces.
//
// Events scheduled for the same timestamp fire in (priority, insertion-order)
// order, which makes tie-breaking explicit instead of accidental.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/time.hpp"
#include "sim/inline_fn.hpp"

namespace pap::trace {
class Tracer;
}

namespace pap::sim {

/// An event's action: a move-only callable stored inline in the event
/// slot, so scheduling never allocates. 72 bytes hold the largest capture on
/// the simulator's per-access path — a Soc posted-write event carrying the
/// request's DRAM coordinates, the core's completion callback (Soc::DoneFn)
/// and the issue instant.
/// A larger capture fails to compile; capture a pointer or an index
/// instead (see inline_fn.hpp).
using EventFn = InlineFn<void(), 72>;

/// Opaque handle for cancelling a scheduled event. Carries the pool slot of
/// the event (for O(1) lookup) plus its unique sequence number (so a handle
/// that outlives its event — the slot having been recycled — is detected and
/// rejected instead of cancelling a stranger).
class EventId {
 public:
  EventId() = default;
  bool valid() const { return seq_ != 0; }

 private:
  friend class Kernel;
  EventId(std::uint64_t s, std::uint32_t slot) : seq_(s), slot_(slot) {}
  std::uint64_t seq_ = 0;
  std::uint32_t slot_ = 0;
};

class Kernel {
 public:
  Kernel() = default;
  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  Time now() const { return now_; }

  /// Schedule `fn` to run at absolute time `at` (must be >= now()).
  /// Lower `priority` runs first among same-timestamp events.
  /// `fn` is any void() callable (or an EventFn); it is constructed
  /// directly in the event's slot.
  template <typename F>
  EventId schedule_at(Time at, F&& fn, int priority = 0) {
    const EventId id = enqueue(at, priority);
    fn_at(id.slot_) = std::forward<F>(fn);
    return id;
  }

  /// Schedule `fn` to run `delay` after the current time.
  template <typename F>
  EventId schedule_in(Time delay, F&& fn, int priority = 0) {
    return schedule_at(now_ + delay, std::forward<F>(fn), priority);
  }

  /// Cancel a pending event: the entry is removed in place from whichever
  /// tier holds it (no tombstones linger in the queue). O(log n) in the
  /// far tier, a scan of at most kNearCap entries in the near tier.
  /// Returns false (and changes nothing) when the event already ran or was
  /// already cancelled — stale handles are safe.
  bool cancel(EventId id);

  /// Run until the event queue drains or `until` is reached (events at
  /// exactly `until` still run). Returns the number of events executed.
  std::uint64_t run(Time until = Time::max());

  /// Run exactly one event if any is pending; returns false when drained.
  bool step();

  bool empty() const { return near_n_ == 0 && heap_.empty(); }
  std::uint64_t events_executed() const { return executed_; }

  /// Drop all pending events and reset the clock (for test reuse).
  /// The attached tracer (if any) stays attached. Calling it from inside a
  /// handler is a PAP_CHECK failure: it would destroy the running callable.
  void reset();

  /// Attach an observability tracer (not owned; nullptr detaches). The
  /// tracer's clock is bound to this kernel, so instrumented components
  /// reach it as `kernel.tracer()` and emit at simulated-time resolution.
  /// Tracing must never perturb simulation behaviour: components only read
  /// state when emitting, and a null tracer costs one pointer test.
  void set_tracer(trace::Tracer* tracer);
  trace::Tracer* tracer() const { return tracer_; }

 private:
  // Event storage: a slot pool plus a two-tier queue that carries each
  // event's ordering key.
  //
  //  * A queue entry is the event's key and slot, so ordering compares and
  //    moves 24-byte entries and never reads the pool. The key is `at` plus
  //    `rank`, which packs (priority, seq) into one integer: ordering by
  //    (at, rank) is ordering by (at, priority, seq).
  //  * Near tier: the soonest events, at most kNearCap of them, in a
  //    fixed array sorted latest-first. The next event is the last entry,
  //    so a pop is a decrement. A simulator event usually lands close to
  //    the front (on average fewer than two pending events fire before
  //    it), so an insert scanning from the back costs a couple of compares
  //    and a short move.
  //  * Far tier: an indexed 4-ary min-heap of everything later. Each of
  //    its slots records its heap position, so cancel() removes the entry
  //    in place (swap with the last leaf + one sift).
  //  * Invariant: every near entry fires before every heap entry. An
  //    insert that fires before the heap minimum (or any insert while the
  //    heap is empty) goes to the near tier; when that tier is full, the
  //    latest of its entries and the new one moves to the heap, where it
  //    becomes the minimum. Once the near tier drains, the next event is
  //    the heap's root, and a heap of at most kNearCap entries moves into
  //    the near tier whole. Every step keeps the exact (at, priority, seq)
  //    order. A workload that schedules far ahead (trace replay schedules
  //    every record up front) keeps a large heap and pays O(log n) per
  //    event there, as before, while the events its handlers schedule a
  //    short delay ahead still land in the near tier.
  //  * Slots are recycled through a free list; the monotone `seq` stamped
  //    into each slot distinguishes a live event from a stale handle whose
  //    slot has been reused, in either tier.
  //  * An event's fn is an inline callable (EventFn) kept in a paged pool
  //    indexed by slot: page slot / kPageSlots, entry slot % kPageSlots.
  //    The capture lives in the pool itself, so once the pool has grown to
  //    the run's peak event count, scheduling and firing touch no heap
  //    memory at all. Growth appends a page and never moves an existing
  //    one, so a callable keeps its address for as long as it is stored.
  //  * Dispatch calls the callable where it lives, with no relocation out
  //    of the pool. Its slot's seq is cleared before the call (a handler
  //    cancelling its own EventId gets false) and the slot is released
  //    only after the call returns: the handler may schedule any number of
  //    events, growing the pool, yet none can land in the running slot and
  //    overwrite the callable (or its capture) while it executes.
  struct Entry {
    Time at;
    std::uint64_t rank = 0;  // rank_of(priority, seq)
    std::uint32_t slot = 0;
  };
  // rank = (priority + 2^23) << 40 | seq: priorities in [-2^23, 2^23) and
  // up to 2^40 events per kernel (checked in enqueue()).
  static constexpr int kSeqBits = 40;
  static constexpr int kPriorityLimit = 1 << 23;
  static std::uint64_t rank_of(int priority, std::uint64_t seq) {
    return static_cast<std::uint64_t>(priority + kPriorityLimit) << kSeqBits |
           seq;
  }
  struct Slot {
    std::uint64_t seq = 0;       // of the pending event; 0 = free slot
    std::uint32_t heap_pos = 0;  // index into heap_, or kInNear
  };

  static constexpr std::uint32_t kInNear = 0xffffffffu;
  static constexpr std::uint32_t kNearCap = 32;

  /// True when `a` fires strictly before `b` ((at, priority, seq)
  /// lexicographic).
  static bool before(const Entry& a, const Entry& b) {
    return a.at < b.at || (a.at == b.at && a.rank < b.rank);
  }
  /// Store `e` at heap position `pos` and record the position in its slot.
  void place(std::uint32_t pos, const Entry& e) {
    heap_[pos] = e;
    slots_[e.slot].heap_pos = pos;
  }
  /// Claim a slot for an event at (at, priority) and insert it into the
  /// queue; the caller then stores the event's fn in fn_at(slot).
  EventId enqueue(Time at, int priority);
  void insert_near(const Entry& e);
  void push_heap(const Entry& e);
  void sift_up(std::uint32_t pos);
  void sift_down(std::uint32_t pos);
  /// Remove the heap entry at `pos` (its slot keeps a stale position).
  void erase_heap(std::uint32_t pos);
  /// The next event to fire, or nullptr when none is pending.
  const Entry* next() {
    if (near_n_ > 0) return &near_[near_n_ - 1];
    if (heap_.empty()) return nullptr;
    if (heap_.size() > kNearCap) return &heap_[0];
    refill();
    return &near_[near_n_ - 1];
  }
  /// Move every heap entry (at most kNearCap) into the drained near tier.
  void refill();
  /// Return a slot to the free list (clears seq and releases fn).
  void release_slot(std::uint32_t slot);
  /// Pop the event next() returned (it must be non-null), advance the
  /// clock to it, run it in place, then release its slot.
  void dispatch_next();

  static constexpr std::uint32_t kPageBits = 6;
  static constexpr std::uint32_t kPageSlots = 1u << kPageBits;
  EventFn& fn_at(std::uint32_t slot) {
    return pages_[slot >> kPageBits][slot & (kPageSlots - 1)];
  }

  Entry near_[kNearCap];  // latest-first; near_[near_n_ - 1] fires next
  std::uint32_t near_n_ = 0;
  std::vector<Entry> heap_;  // 4-ary min-heap by (at, rank)
  std::vector<Slot> slots_;
  // EventFn pages of kPageSlots each, indexed by slot; pages never move.
  std::vector<std::unique_ptr<EventFn[]>> pages_;
  std::vector<std::uint32_t> free_;  // recycled slot indices
  int running_ = 0;  // handlers executing (nested run()/step() included)

  Time now_ = Time::zero();
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  trace::Tracer* tracer_ = nullptr;
};

/// A restartable one-shot timer: the building block for protocol
/// retransmission timeouts and watchdogs. `arm(delay)` (re)schedules the
/// callback — any pending firing is cancelled first, so re-arming on every
/// heartbeat implements an idle watchdog in one line. The callback runs at
/// most once per arm(); destroying the Timeout cancels it.
class Timeout {
 public:
  Timeout(Kernel& kernel, EventFn fn, int priority = 0)
      : kernel_(kernel), fn_(std::move(fn)), priority_(priority) {}
  ~Timeout() { cancel(); }
  Timeout(const Timeout&) = delete;
  Timeout& operator=(const Timeout&) = delete;

  /// Schedule (or push back) the firing to `delay` from now.
  void arm(Time delay);
  /// Drop any pending firing; a no-op when none is scheduled.
  void cancel();
  bool pending() const { return pending_; }

 private:
  Kernel& kernel_;
  EventFn fn_;
  int priority_;
  EventId id_;
  bool pending_ = false;
};

/// A recurring event helper: calls `fn` every `period` starting at `start`.
/// Owns its rescheduling; destroy or call stop() to end the series.
class PeriodicEvent {
 public:
  PeriodicEvent(Kernel& kernel, Time start, Time period, EventFn fn,
                int priority = 0);
  ~PeriodicEvent() { stop(); }
  PeriodicEvent(const PeriodicEvent&) = delete;
  PeriodicEvent& operator=(const PeriodicEvent&) = delete;

  void stop();
  bool running() const { return running_; }

 private:
  void fire();
  Kernel& kernel_;
  Time period_;
  EventFn fn_;
  int priority_;
  EventId pending_;
  bool running_ = true;
};

}  // namespace pap::sim
