// Unit tests for the discrete-event simulation kernel.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "sim/kernel.hpp"

namespace pap::sim {
namespace {

TEST(Kernel, RunsEventsInTimeOrder) {
  Kernel k;
  std::vector<int> order;
  k.schedule_at(Time::ns(30), [&] { order.push_back(3); });
  k.schedule_at(Time::ns(10), [&] { order.push_back(1); });
  k.schedule_at(Time::ns(20), [&] { order.push_back(2); });
  k.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(k.now(), Time::ns(30));
  EXPECT_EQ(k.events_executed(), 3u);
}

TEST(Kernel, SameTimestampUsesPriorityThenInsertionOrder) {
  Kernel k;
  std::vector<int> order;
  k.schedule_at(Time::ns(5), [&] { order.push_back(1); }, /*priority=*/0);
  k.schedule_at(Time::ns(5), [&] { order.push_back(2); }, /*priority=*/-1);
  k.schedule_at(Time::ns(5), [&] { order.push_back(3); }, /*priority=*/0);
  k.run();
  EXPECT_EQ(order, (std::vector<int>{2, 1, 3}));
}

TEST(Kernel, ScheduleInIsRelative) {
  Kernel k;
  Time seen;
  k.schedule_at(Time::ns(10), [&] {
    k.schedule_in(Time::ns(5), [&] { seen = k.now(); });
  });
  k.run();
  EXPECT_EQ(seen, Time::ns(15));
}

TEST(Kernel, RunUntilStopsAtHorizonInclusive) {
  Kernel k;
  int ran = 0;
  k.schedule_at(Time::ns(10), [&] { ++ran; });
  k.schedule_at(Time::ns(20), [&] { ++ran; });
  k.schedule_at(Time::ns(21), [&] { ++ran; });
  const auto n = k.run(Time::ns(20));
  EXPECT_EQ(n, 2u);
  EXPECT_EQ(ran, 2);
  EXPECT_FALSE(k.empty());
  k.run();
  EXPECT_EQ(ran, 3);
}

TEST(Kernel, CancelPreventsExecution) {
  Kernel k;
  bool fired = false;
  const auto id = k.schedule_at(Time::ns(10), [&] { fired = true; });
  EXPECT_TRUE(k.cancel(id));
  EXPECT_FALSE(k.cancel(id));  // double-cancel rejected
  k.run();
  EXPECT_FALSE(fired);
  EXPECT_TRUE(k.empty());
}

TEST(Kernel, CancelOfFiredEventIsSafeNoOp) {
  Kernel k;
  const auto id = k.schedule_at(Time::ns(1), [] {});
  bool late_fired = false;
  k.schedule_at(Time::ns(2), [&] { late_fired = true; });
  k.run(Time::ns(1));
  // The event already ran: cancelling its stale handle must do nothing.
  EXPECT_FALSE(k.cancel(id));
  EXPECT_FALSE(k.empty());  // the ns(2) event is still live
  k.run();
  EXPECT_TRUE(late_fired);
  EXPECT_TRUE(k.empty());
}

TEST(Kernel, EmptyReflectsCancellations) {
  Kernel k;
  const auto a = k.schedule_at(Time::ns(1), [] {});
  const auto b = k.schedule_at(Time::ns(2), [] {});
  EXPECT_FALSE(k.empty());
  EXPECT_TRUE(k.cancel(a));
  EXPECT_TRUE(k.cancel(b));
  EXPECT_TRUE(k.empty());
  k.run();
  EXPECT_EQ(k.events_executed(), 0u);
}

TEST(Kernel, EventsScheduledDuringRunExecute) {
  Kernel k;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) k.schedule_in(Time::ns(1), recurse);
  };
  k.schedule_at(Time::ns(0), recurse);
  k.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(k.now(), Time::ns(4));
}

TEST(Kernel, StepExecutesOneEvent) {
  Kernel k;
  int ran = 0;
  k.schedule_at(Time::ns(1), [&] { ++ran; });
  k.schedule_at(Time::ns(2), [&] { ++ran; });
  EXPECT_TRUE(k.step());
  EXPECT_EQ(ran, 1);
  EXPECT_TRUE(k.step());
  EXPECT_FALSE(k.step());
}

TEST(Kernel, ResetClearsState) {
  Kernel k;
  k.schedule_at(Time::ns(5), [] {});
  k.run();
  k.schedule_at(Time::ns(50), [] {});
  k.reset();
  EXPECT_TRUE(k.empty());
  EXPECT_EQ(k.now(), Time::zero());
  // Scheduling before the old now() must be legal again after reset.
  bool fired = false;
  k.schedule_at(Time::ns(1), [&] { fired = true; });
  k.run();
  EXPECT_TRUE(fired);
}

TEST(Kernel, DeterministicAcrossRuns) {
  auto run_once = [] {
    Kernel k;
    std::vector<std::int64_t> trace;
    for (int i = 0; i < 50; ++i) {
      k.schedule_at(Time::ns(100 - i), [&trace, &k] {
        trace.push_back(k.now().picos());
      });
    }
    k.run();
    return trace;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(PeriodicEvent, FiresAtPeriod) {
  Kernel k;
  std::vector<std::int64_t> fires;
  PeriodicEvent p(k, Time::ns(10), Time::ns(5),
                  [&] { fires.push_back(k.now().picos()); });
  k.run(Time::ns(26));
  EXPECT_EQ(fires, (std::vector<std::int64_t>{10'000, 15'000, 20'000, 25'000}));
  p.stop();
}

TEST(PeriodicEvent, StopEndsSeries) {
  Kernel k;
  int count = 0;
  PeriodicEvent p(k, Time::ns(0), Time::ns(10), [&] { ++count; });
  k.run(Time::ns(25));
  p.stop();
  k.run();
  EXPECT_EQ(count, 3);  // at 0, 10, 20
  EXPECT_FALSE(p.running());
}

TEST(PeriodicEvent, StaleHandleStaysDeadAcrossPeriodicChurn) {
  // A PeriodicEvent reschedules itself on every firing, churning through
  // event sequence numbers. A handle to an event that already fired must
  // keep reporting false from cancel() no matter how much churn follows —
  // stale handles never alias a live (rescheduled) event.
  Kernel k;
  bool fired = false;
  const auto id = k.schedule_at(Time::ns(1), [&] { fired = true; });
  int fires = 0;
  PeriodicEvent p(k, Time::ns(0), Time::ns(2), [&] { ++fires; });
  k.run(Time::ns(9));
  EXPECT_TRUE(fired);
  EXPECT_EQ(fires, 5);  // at 0, 2, 4, 6, 8
  EXPECT_FALSE(k.cancel(id));  // fired long ago
  EXPECT_FALSE(k.empty());     // the periodic's next firing is still live
  p.stop();
  EXPECT_TRUE(k.empty());      // stop cancelled the pending firing
  EXPECT_FALSE(k.cancel(id));  // still a safe no-op after the stop
  p.stop();                    // idempotent
  EXPECT_FALSE(p.running());
}

TEST(Kernel, CancelThenDrainManyEventsStaysFast) {
  // Regression: cancelled events used to sit in a vector the kernel
  // linearly scanned for every surfacing event, turning a cancel-heavy
  // drain quadratic. 100k cancelled tombstones must drain essentially
  // instantly (the ctest timeout would catch an O(n^2) relapse — at 100k
  // events the old scan cost ~10^10 comparisons).
  Kernel k;
  constexpr int kN = 100'000;
  std::vector<EventId> ids;
  ids.reserve(kN);
  int fired = 0;
  for (int i = 0; i < kN; ++i) {
    ids.push_back(k.schedule_at(Time::ns(i + 1), [&] { ++fired; }));
  }
  // Cancel all but every 1000th event, worst case for tombstone lookups.
  int live = 0;
  for (int i = 0; i < kN; ++i) {
    if (i % 1000 == 0) {
      ++live;
      continue;
    }
    EXPECT_TRUE(k.cancel(ids[static_cast<std::size_t>(i)]));
  }
  EXPECT_FALSE(k.empty());
  k.run();
  EXPECT_EQ(fired, live);
  EXPECT_TRUE(k.empty());
  // Tombstones for drained events are forgotten: stale cancels stay no-ops.
  EXPECT_FALSE(k.cancel(ids[1]));
  EXPECT_EQ(k.events_executed(), static_cast<std::uint64_t>(live));
}

TEST(PeriodicEvent, StopFromInsideCallback) {
  Kernel k;
  int count = 0;
  PeriodicEvent* handle = nullptr;
  PeriodicEvent p(k, Time::ns(0), Time::ns(1), [&] {
    if (++count == 3) handle->stop();
  });
  handle = &p;
  k.run();
  EXPECT_EQ(count, 3);
}

TEST(Kernel, CancelThenRescheduleReusesStorageSafely) {
  // The pooled-slot kernel recycles an event's slot as soon as it is
  // cancelled; a handle to the dead event must stay dead even when a new
  // event occupies the same slot.
  Kernel k;
  int first = 0;
  int second = 0;
  auto id1 = k.schedule_at(Time::ns(10), [&first] { ++first; });
  EXPECT_TRUE(k.cancel(id1));
  auto id2 = k.schedule_at(Time::ns(5), [&second] { ++second; });
  // Cancelling the stale handle again must not kill the new event.
  EXPECT_FALSE(k.cancel(id1));
  k.run();
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, 1);
  EXPECT_FALSE(k.cancel(id2));  // already ran
}

TEST(Kernel, CancelDuringSameTimestampDrain) {
  // Events at one timestamp run as a batch; an earlier event in the batch
  // may cancel a later one, which must be honoured (the cancelled event is
  // removed from the heap in place, not tombstoned past the pop).
  Kernel k;
  int fired = 0;
  EventId victim = k.schedule_at(Time::ns(7), [&fired] { fired += 100; },
                                 /*priority=*/5);
  k.schedule_at(Time::ns(7), [&] { EXPECT_TRUE(k.cancel(victim)); ++fired; },
                /*priority=*/0);
  k.schedule_at(Time::ns(7), [&fired] { ++fired; }, /*priority=*/1);
  EXPECT_EQ(k.run(), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(k.now(), Time::ns(7));
}

TEST(Kernel, ScheduleAtNowDuringDrainJoinsTheBatch) {
  // A handler scheduling at the current timestamp extends the running batch
  // in (priority, insertion) order.
  Kernel k;
  std::vector<int> order;
  k.schedule_at(Time::ns(3), [&] {
    order.push_back(0);
    k.schedule_at(Time::ns(3), [&order] { order.push_back(2); });
    k.schedule_in(Time::zero(), [&order] { order.push_back(3); });
  });
  k.schedule_at(Time::ns(3), [&order] { order.push_back(1); });
  k.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(k.now(), Time::ns(3));
}

/// Lockstep model check of the kernel's two-tier queue: every schedule and
/// cancel is mirrored into a naive list of (at, priority, seq), and each
/// firing event must be the list's minimum at that moment and fire at its
/// own timestamp. Handlers may schedule and cancel through the model, so
/// the check covers events created while the queue drains.
class KernelModel {
 public:
  struct RefEvent {
    Time at;
    int priority;
    std::uint64_t seq;
  };

  Kernel& kernel() { return k_; }
  std::size_t pending() const { return ref_.size(); }
  std::uint64_t fired() const { return fired_; }
  std::uint64_t scheduled() const { return seq_; }
  /// Firings that were not the reference's minimum (0 when exact), and a
  /// description of the first.
  int mismatches() const { return mismatches_; }
  const std::string& first_mismatch() const { return first_mismatch_; }

  /// Called inside each handler after the order check, with the event's
  /// sequence number (1 for the first event scheduled).
  std::function<void(std::uint64_t)> on_fire;

  void schedule(Time at, int priority) {
    const std::uint64_t seq = ++seq_;
    ids_.push_back(k_.schedule_at(at, [this, seq] { fire(seq); }, priority));
    id_seqs_.push_back(seq);
    ref_.push_back(RefEvent{at, priority, seq});
  }

  /// Cancel handle `pick` of all handles ever issued: live ones from either
  /// tier, and stale ones (fired or cancelled) whose slot may since hold
  /// another event in either tier.
  void cancel(std::size_t pick) {
    const bool cancelled = k_.cancel(ids_[pick]);
    const auto it = std::find_if(ref_.begin(), ref_.end(), [&](const auto& e) {
      return e.seq == id_seqs_[pick];
    });
    EXPECT_EQ(cancelled, it != ref_.end()) << "handle of event " << pick + 1;
    if (it != ref_.end()) ref_.erase(it);
  }
  void cancel_random(Rng& rng) {
    if (ids_.empty()) return;
    cancel(static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::int64_t>(ids_.size()) - 1)));
  }

  /// The reference's next event (ref_ must be non-empty).
  const RefEvent& soonest() const {
    return *std::min_element(ref_.begin(), ref_.end(), earlier);
  }

 private:
  static bool earlier(const RefEvent& a, const RefEvent& b) {
    if (a.at != b.at) return a.at < b.at;
    if (a.priority != b.priority) return a.priority < b.priority;
    return a.seq < b.seq;
  }

  void fire(std::uint64_t seq) {
    ++fired_;
    const auto it = std::min_element(ref_.begin(), ref_.end(), earlier);
    if (it == ref_.end() || it->seq != seq || it->at != k_.now()) {
      if (mismatches_++ == 0) {
        first_mismatch_ = "event " + std::to_string(seq) + " fired at " +
                          std::to_string(k_.now().picos()) + " ps; want " +
                          (it == ref_.end() ? std::string("none")
                                            : std::to_string(it->seq));
      }
    }
    const auto self = std::find_if(ref_.begin(), ref_.end(),
                                   [&](const auto& e) { return e.seq == seq; });
    if (self != ref_.end()) ref_.erase(self);
    if (on_fire) on_fire(seq);
  }

  Kernel k_;
  std::vector<RefEvent> ref_;
  std::vector<EventId> ids_;
  std::vector<std::uint64_t> id_seqs_;
  std::uint64_t seq_ = 0;
  std::uint64_t fired_ = 0;
  int mismatches_ = 0;
  std::string first_mismatch_;
};

TEST(Kernel, RandomizedAgainstSortedVectorReference) {
  Rng rng(0xDECADE01u);
  // Part 1: a few thousand random schedule / cancel operations up front,
  // then one run() drains them all.
  for (int round = 0; round < 20; ++round) {
    KernelModel m;
    for (int i = 0; i < 400; ++i) {
      if (m.scheduled() > 0 && rng.chance(0.3)) {
        m.cancel_random(rng);
      } else {
        m.schedule(Time::ns(rng.uniform(0, 200)),
                   static_cast<int>(rng.uniform(-2, 2)));
      }
    }
    m.kernel().run();
    EXPECT_EQ(m.pending(), 0u);
    EXPECT_TRUE(m.kernel().empty());
    ASSERT_EQ(m.mismatches(), 0) << "round " << round << ": "
                                 << m.first_mismatch();
  }

  // Part 2: step() and run(until) interleaved with outside schedules and
  // cancels, while handlers schedule (at now, a short delay ahead or far
  // ahead) and cancel. The handlers alternate between growing the queue
  // past 80 pending events and shrinking it below 5, so the pending count
  // crosses the near tier's capacity (32) in both directions many times,
  // and events are cancelled from, and slots recycled across, both tiers.
  int crossings = 0;
  for (int round = 0; round < 20; ++round) {
    KernelModel m;
    Kernel& k = m.kernel();
    bool grow = true;
    const auto random_at = [&] {
      const double p = rng.next_double();
      if (p < 0.15) return k.now();
      if (p < 0.85) return k.now() + Time::ns(rng.uniform(1, 30));
      return k.now() + Time::ns(rng.uniform(200, 3000));
    };
    const auto random_priority = [&] {
      return static_cast<int>(rng.uniform(-2, 2));
    };
    bool draining = false;
    m.on_fire = [&](std::uint64_t) {
      if (draining) return;
      if (m.pending() > 80) grow = false;
      if (m.pending() < 5) grow = true;
      const auto n = grow ? rng.uniform(1, 3) : rng.uniform(0, 1);
      for (std::int64_t i = 0; i < n; ++i) m.schedule(random_at(),
                                                      random_priority());
      if (rng.chance(0.2)) m.cancel_random(rng);
    };
    bool above = false;
    for (int op = 0; op < 300; ++op) {
      switch (rng.uniform(0, 3)) {
        case 0: {
          const std::uint64_t before = m.fired();
          EXPECT_EQ(k.step(), m.pending() > 0 || before != m.fired());
          EXPECT_LE(m.fired() - before, 1u);
          break;
        }
        case 1: {
          const Time until = k.now() + Time::ns(rng.uniform(0, 40));
          k.run(until);
          // Everything due by `until` ran; what is left is later.
          if (m.pending() > 0) {
            EXPECT_GT(m.soonest().at, until);
          }
          break;
        }
        case 2:
          m.schedule(random_at(), random_priority());
          break;
        default:
          m.cancel_random(rng);
          break;
      }
      if (above != (m.pending() > 32)) {
        above = !above;
        ++crossings;
      }
      EXPECT_EQ(k.empty(), m.pending() == 0);
    }
    draining = true;
    k.run();
    EXPECT_EQ(m.pending(), 0u);
    EXPECT_TRUE(k.empty());
    ASSERT_EQ(m.mismatches(), 0) << "round " << round << ": "
                                 << m.first_mismatch();
  }
  EXPECT_GE(crossings, 40);
}

TEST(Kernel, TraceReplayShapeKeepsExactOrder) {
  // A trace replay schedules every record up front (10k monotone events,
  // which fill the near tier and put the rest in the heap); each record's
  // handler then schedules near-future work (at now or a few ns ahead)
  // that lands among the pending records. The order must match the
  // sorted reference exactly.
  constexpr int kRecords = 10'000;
  Rng rng(0x7ACE5u);
  KernelModel m;
  for (int i = 0; i < kRecords; ++i) m.schedule(Time::ns(10 * i), 0);
  m.on_fire = [&](std::uint64_t seq) {
    if (seq > kRecords) return;  // follow-ups schedule nothing
    const auto n = rng.uniform(1, 2);
    for (std::int64_t i = 0; i < n; ++i) {
      const Time at = m.kernel().now() + Time::ns(rng.uniform(0, 25));
      m.schedule(at, static_cast<int>(rng.uniform(-1, 1)));
    }
  };
  m.kernel().run();
  EXPECT_EQ(m.fired(), m.scheduled());
  EXPECT_GT(m.scheduled(), static_cast<std::uint64_t>(kRecords) * 3 / 2);
  EXPECT_TRUE(m.kernel().empty());
  EXPECT_EQ(m.mismatches(), 0) << m.first_mismatch();
}

TEST(Kernel, StaleHandleRejectedAfterSlotMovesTier) {
  // Slots are recycled last-freed-first, so a cancelled event's slot is
  // the next one taken. Thirty-two events fill the near tier; a later one
  // then goes to the heap. Each stale handle below names a slot that now
  // holds a live event in the other tier, and must cancel nothing.
  Kernel k;
  std::vector<int> order;
  std::vector<EventId> near;
  for (int i = 0; i < 32; ++i) {
    near.push_back(k.schedule_at(Time::ns(10 + i),
                                 [&order, i] { order.push_back(i); }));
  }
  const EventId far = k.schedule_at(Time::ns(1000), [] { FAIL(); });
  EXPECT_TRUE(k.cancel(far));  // from the heap
  // Before everything: enters the near tier in the far event's slot (the
  // near tier's latest entry moves to the heap).
  const EventId first = k.schedule_at(Time::ns(1),
                                      [&order] { order.push_back(-1); });
  EXPECT_FALSE(k.cancel(far));
  EXPECT_TRUE(k.cancel(near[5]));  // from the near tier
  // After everything: goes to the heap in near[5]'s slot.
  k.schedule_at(Time::ns(5000), [&order] { order.push_back(100); });
  EXPECT_FALSE(k.cancel(near[5]));
  EXPECT_FALSE(k.cancel(far));
  k.run();
  std::vector<int> want{-1};
  for (int i = 0; i < 32; ++i) {
    if (i != 5) want.push_back(i);
  }
  want.push_back(100);
  EXPECT_EQ(order, want);
  EXPECT_FALSE(k.cancel(first));
}

// ---- EventFn: the inline, move-only event callable -------------------------

/// Counts live copies of itself: every constructed instance (including
/// moved-to ones) must be destroyed exactly once.
struct LiveCounter {
  explicit LiveCounter(int* live, int* calls) : live_(live), calls_(calls) {
    ++*live_;
  }
  LiveCounter(LiveCounter&& o) noexcept : live_(o.live_), calls_(o.calls_) {
    ++*live_;
  }
  LiveCounter(const LiveCounter&) = delete;
  ~LiveCounter() { --*live_; }
  void operator()() const { ++*calls_; }
  int* live_;
  int* calls_;
};

TEST(EventFn, MoveOnlyCaptureFires) {
  Kernel k;
  int seen = 0;
  auto payload = std::make_unique<int>(42);
  k.schedule_at(Time::ns(1), [p = std::move(payload), &seen] { seen = *p; });
  EXPECT_EQ(payload, nullptr);
  k.run();
  EXPECT_EQ(seen, 42);
}

TEST(EventFn, CaptureDestroyedExactlyOnceWhenFiredCancelledOrReset) {
  int live = 0;
  int calls = 0;
  {
    Kernel k;
    k.schedule_at(Time::ns(1), LiveCounter(&live, &calls));  // fires
    const EventId dead =
        k.schedule_at(Time::ns(2), LiveCounter(&live, &calls));  // cancelled
    k.schedule_at(Time::ns(50), LiveCounter(&live, &calls));  // dropped
    EXPECT_EQ(live, 3);
    EXPECT_TRUE(k.cancel(dead));
    EXPECT_EQ(live, 2);
    k.run(Time::ns(10));
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(live, 1);
    k.reset();
    EXPECT_EQ(live, 0);
    // Pending at destruction: the kernel destroys it.
    k.schedule_at(Time::ns(5), LiveCounter(&live, &calls));
    EXPECT_EQ(live, 1);
  }
  EXPECT_EQ(live, 0);
  EXPECT_EQ(calls, 1);
}

TEST(EventFn, PoolGrowthKeepsPendingCaptures) {
  // Growing the slot pool appends pages under many pending callables; the
  // counts must still balance and each event must fire once with its own
  // state.
  int live = 0;
  int calls = 0;
  {
    Kernel k;
    for (int i = 0; i < 1000; ++i) {
      k.schedule_at(Time::ns(i), LiveCounter(&live, &calls));
    }
    EXPECT_EQ(live, 1000);
    k.run();
    EXPECT_EQ(live, 0);
  }
  EXPECT_EQ(calls, 1000);
}

TEST(EventFn, HandlerSchedulingKeepsItsRunningCapture) {
  // The firing event runs in place and its slot is released only when the
  // handler returns, so the handler's own schedule_at calls take other
  // slots and its capture stays intact.
  Kernel k;
  std::vector<int> order;
  auto tag = std::make_unique<int>(7);
  k.schedule_at(Time::ns(1), [&k, &order, t = std::move(tag)] {
    for (int i = 0; i < 3; ++i) {
      k.schedule_in(Time::ns(1), [&order, i] { order.push_back(i); });
    }
    order.push_back(*t);  // the capture survived the slot's reuse
  });
  k.run();
  EXPECT_EQ(order, (std::vector<int>{7, 0, 1, 2}));
}

TEST(EventFn, HandlerGrowingThePoolKeepsItsCapture) {
  // The handler runs in place in its pool slot and schedules more than a
  // page of events, so the pool grows while it executes; pages never move,
  // so the running capture (heap payload and inline words alike) must read
  // the same after the growth as before it.
  Kernel k;
  std::vector<int> order;
  auto payload = std::make_unique<int>(41);
  int after = 0;
  k.schedule_at(Time::ns(1), [&k, &order, &after, p = std::move(payload),
                              a = 0x1111, b = 0x2222, c = 0x3333] {
    for (int i = 0; i < 200; ++i) {
      k.schedule_in(Time::ns(1 + i), [&order, i] { order.push_back(i); });
    }
    after = *p + 1 + (a == 0x1111) + (b == 0x2222) + (c == 0x3333) - 3;
  });
  k.run();
  EXPECT_EQ(after, 42);
  ASSERT_EQ(order.size(), 200u);
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], static_cast<int>(i));
  }
}

TEST(EventFn, CaptureLivesUntilItsHandlerReturns) {
  // A fired capture is destroyed exactly once, right after its handler
  // returns; while the handler runs it is still alive in its slot.
  int live = 0;
  int calls = 0;
  int live_during = -1;
  {
    Kernel k;
    k.schedule_at(Time::ns(1), [&, c = LiveCounter(&live, &calls)] {
      c();
      live_during = live;
      k.schedule_in(Time::ns(1), LiveCounter(&live, &calls));
    });
    EXPECT_EQ(live, 1);
    k.run(Time::ns(1));
    EXPECT_EQ(live_during, 1);  // the running capture, not yet destroyed
    EXPECT_EQ(live, 1);         // only the event it scheduled is left
    k.run();
    EXPECT_EQ(live, 0);
  }
  EXPECT_EQ(calls, 2);
}

TEST(Kernel, HandlerCancellingItselfGetsFalse) {
  Kernel k;
  EventId self;
  int result = -1;
  self = k.schedule_at(Time::ns(4), [&] { result = k.cancel(self) ? 1 : 0; });
  k.run();
  EXPECT_EQ(result, 0);
  EXPECT_EQ(k.events_executed(), 1u);
}

TEST(Kernel, ScheduleAtNowFiresInPriorityThenSequenceOrder) {
  // Events a handler schedules at now() join the running timestamp and
  // merge with the ones already pending there by (priority, seq).
  Kernel k;
  std::vector<int> order;
  k.schedule_at(Time::ns(2), [&] {
    order.push_back(0);
    k.schedule_at(Time::ns(2), [&order] { order.push_back(5); }, 2);
    k.schedule_at(Time::ns(2), [&order] { order.push_back(1); }, -1);
    k.schedule_at(Time::ns(2), [&order] { order.push_back(3); }, 1);
    k.schedule_at(Time::ns(2), [&order] { order.push_back(2); }, -1);
  });
  k.schedule_at(Time::ns(2), [&order] { order.push_back(4); }, 1);
  k.schedule_at(Time::ns(3), [&order] { order.push_back(6); }, -5);
  k.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 4, 3, 5, 6}));
}

TEST(KernelDeathTest, ResetFromInsideAHandlerAborts) {
  EXPECT_DEATH(
      {
        Kernel k;
        k.schedule_at(Time::ns(1), [&k] { k.reset(); });
        k.run();
      },
      "called from inside a handler");
}

TEST(EventFn, EmptyAndNullCallables) {
  EventFn empty;
  EXPECT_FALSE(empty);
  EXPECT_TRUE(empty == nullptr);
  EventFn from_null = nullptr;
  EXPECT_FALSE(from_null);
  std::function<void()> none;
  EventFn from_empty_function = none;
  EXPECT_FALSE(from_empty_function);
  void (*no_fn)() = nullptr;
  EventFn from_null_pointer = no_fn;
  EXPECT_FALSE(from_null_pointer);
  EXPECT_THROW(empty(), std::bad_function_call);

  int n = 0;
  EventFn a = [&n] { ++n; };
  EventFn b = std::move(a);
  EXPECT_FALSE(a);  // NOLINT: moved-from is empty by contract
  b();
  EXPECT_EQ(n, 1);
  b = nullptr;
  EXPECT_FALSE(b);
}

TEST(Timeout, RefiresStoredCallableOnEveryArm) {
  Kernel k;
  int fired = 0;
  auto step = std::make_unique<int>(2);
  Timeout t(k, [&fired, s = std::move(step)] { fired += *s; });
  t.arm(Time::ns(10));
  k.run();
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(t.pending());
  t.arm(Time::ns(5));
  t.arm(Time::ns(7));  // re-arming replaces the pending firing
  k.run();
  EXPECT_EQ(fired, 4);
  EXPECT_EQ(k.now(), Time::ns(17));
}

TEST(PeriodicEvent, RefiresStoredMoveOnlyCallable) {
  Kernel k;
  std::vector<Time> at;
  auto sink = std::make_unique<std::vector<Time>*>(&at);
  PeriodicEvent p(k, Time::ns(3), Time::ns(4),
                  [&k, s = std::move(sink)] { (*s)->push_back(k.now()); });
  k.run(Time::ns(15));
  EXPECT_EQ(at, (std::vector<Time>{Time::ns(3), Time::ns(7), Time::ns(11),
                                   Time::ns(15)}));
}

}  // namespace
}  // namespace pap::sim
