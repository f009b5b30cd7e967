#include "sim/kernel.hpp"

#include "trace/tracer.hpp"

namespace pap::sim {

void Kernel::set_tracer(trace::Tracer* tracer) {
  tracer_ = tracer;
  if (tracer_) tracer_->set_clock([this] { return now_; });
}

void Kernel::sift_up(std::uint32_t pos) {
  const HeapEntry e = heap_[pos];
  while (pos > 0) {
    const std::uint32_t parent = (pos - 1) / 4;
    if (!before(e, heap_[parent])) break;
    place(pos, heap_[parent]);
    pos = parent;
  }
  place(pos, e);
}

void Kernel::sift_down(std::uint32_t pos) {
  const HeapEntry e = heap_[pos];
  const auto n = static_cast<std::uint32_t>(heap_.size());
  for (;;) {
    const std::uint32_t first = 4 * pos + 1;
    if (first >= n) break;
    std::uint32_t best = first;
    const std::uint32_t end = (first + 4 < n) ? first + 4 : n;
    for (std::uint32_t c = first + 1; c < end; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    if (!before(heap_[best], e)) break;
    place(pos, heap_[best]);
    pos = best;
  }
  place(pos, e);
}

std::uint32_t Kernel::pop_root() {
  const std::uint32_t slot = heap_[0].slot;
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    place(0, last);
    sift_down(0);
  }
  slots_[slot].heap_pos = kNoPos;
  return slot;
}

void Kernel::release_slot(std::uint32_t slot) {
  slots_[slot] = Slot{0, kNoPos};
  fn_at(slot) = nullptr;
  free_.push_back(slot);
}

void Kernel::dispatch(std::uint32_t slot) {
  ++executed_;
  // The event is no longer pending (a self-cancel must fail), but the slot
  // stays claimed until the call returns: pages never move, so the callable
  // stays in place however many events the handler schedules.
  slots_[slot].seq = 0;
  ++running_;
  fn_at(slot)();
  --running_;
  release_slot(slot);
}

EventId Kernel::enqueue(Time at, int priority) {
  PAP_CHECK_MSG(at >= now_, "cannot schedule an event in the past");
  PAP_CHECK_MSG(priority >= -kPriorityLimit && priority < kPriorityLimit,
                "event priority out of range");
  const std::uint64_t seq = next_seq_++;
  PAP_CHECK_MSG(seq < (std::uint64_t{1} << kSeqBits), "event count overflow");
  std::uint32_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
    if ((slot & (kPageSlots - 1)) == 0) {
      pages_.push_back(std::make_unique<EventFn[]>(kPageSlots));
    }
  }
  slots_[slot].seq = seq;
  heap_.push_back(HeapEntry{at, rank_of(priority, seq), slot});
  sift_up(static_cast<std::uint32_t>(heap_.size()) - 1);
  return EventId{seq, slot};
}

bool Kernel::cancel(EventId id) {
  if (!id.valid()) return false;
  // Only genuinely pending events can be cancelled: a stale handle (already
  // fired or already cancelled, possibly with the slot since recycled) fails
  // the seq comparison and is rejected without touching any state.
  if (id.slot_ >= slots_.size()) return false;
  if (slots_[id.slot_].seq != id.seq_) return false;
  // In-place heap removal: swap the last leaf into the vacated position and
  // restore the heap property in whichever direction it was violated.
  const std::uint32_t pos = slots_[id.slot_].heap_pos;
  const auto last_pos = static_cast<std::uint32_t>(heap_.size()) - 1;
  const HeapEntry moved = heap_[last_pos];
  heap_.pop_back();
  if (pos != last_pos) {
    place(pos, moved);
    sift_down(pos);
    sift_up(pos);
  }
  release_slot(id.slot_);
  return true;
}

bool Kernel::step() {
  if (heap_.empty()) return false;
  const Time at = heap_[0].at;
  PAP_CHECK(at >= now_);
  const std::uint32_t slot = pop_root();
  now_ = at;
  dispatch(slot);
  return true;
}

std::uint64_t Kernel::run(Time until) {
  std::uint64_t ran = 0;
  while (!heap_.empty()) {
    const Time t = heap_[0].at;
    // Peek: do not advance past `until`.
    if (t > until) break;
    PAP_CHECK(t >= now_);
    now_ = t;
    // Drain the whole timestamp as one batch: same-t events run in
    // (priority, insertion) order without re-checking `until` per event, and
    // events the handlers schedule *at* t join the batch (schedule_at
    // forbids the past, so nothing can sneak in before t).
    while (!heap_.empty() && heap_[0].at == t) {
      dispatch(pop_root());
      ++ran;
    }
  }
  return ran;
}

void Kernel::reset() {
  PAP_CHECK_MSG(running_ == 0, "Kernel::reset() called from inside a handler");
  heap_.clear();
  slots_.clear();
  pages_.clear();
  free_.clear();
  now_ = Time::zero();
  executed_ = 0;
}

void Timeout::arm(Time delay) {
  cancel();
  pending_ = true;
  id_ = kernel_.schedule_in(delay,
                            [this] {
                              pending_ = false;
                              fn_();
                            },
                            priority_);
}

void Timeout::cancel() {
  if (!pending_) return;
  kernel_.cancel(id_);
  pending_ = false;
  id_ = EventId{};
}

PeriodicEvent::PeriodicEvent(Kernel& kernel, Time start, Time period,
                             EventFn fn, int priority)
    : kernel_(kernel), period_(period), fn_(std::move(fn)), priority_(priority) {
  PAP_CHECK_MSG(period.picos() > 0, "period must be positive");
  pending_ = kernel_.schedule_at(start, [this] { fire(); }, priority_);
}

void PeriodicEvent::fire() {
  pending_ = EventId{};
  if (!running_) return;
  fn_();
  if (running_) {
    pending_ = kernel_.schedule_in(period_, [this] { fire(); }, priority_);
  }
}

void PeriodicEvent::stop() {
  running_ = false;
  if (pending_.valid()) {
    kernel_.cancel(pending_);
    pending_ = EventId{};
  }
}

}  // namespace pap::sim
