#include "sim/kernel.hpp"

#include <algorithm>

#include "trace/tracer.hpp"

namespace pap::sim {

void Kernel::set_tracer(trace::Tracer* tracer) {
  tracer_ = tracer;
  if (tracer_) tracer_->set_clock([this] { return now_; });
}

void Kernel::sift_up(std::uint32_t pos) {
  const Entry e = heap_[pos];
  while (pos > 0) {
    const std::uint32_t parent = (pos - 1) / 4;
    if (!before(e, heap_[parent])) break;
    place(pos, heap_[parent]);
    pos = parent;
  }
  place(pos, e);
}

void Kernel::sift_down(std::uint32_t pos) {
  const Entry e = heap_[pos];
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

void Kernel::push_heap(const Entry& e) {
  heap_.push_back(e);
  sift_up(static_cast<std::uint32_t>(heap_.size()) - 1);
}

void Kernel::erase_heap(std::uint32_t pos) {
  // Move the last leaf into the vacated position and restore the heap
  // property in whichever direction it was violated.
  const Entry moved = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) return;
  place(pos, moved);
  sift_down(pos);
  if (pos > 0) sift_up(pos);
}

void Kernel::insert_near(const Entry& e) {
  if (near_n_ == kNearCap) {
    // Full: the latest of the near entries and `e` moves to the heap. It
    // fires before every heap entry, so it becomes the heap minimum.
    if (before(near_[0], e)) {
      push_heap(e);
      return;
    }
    push_heap(near_[0]);
    std::copy(near_ + 1, near_ + kNearCap, near_);
    --near_n_;
  }
  // Sorted latest-first: shift the entries that fire before `e` up by one.
  std::uint32_t i = near_n_++;
  while (i > 0 && before(near_[i - 1], e)) {
    near_[i] = near_[i - 1];
    --i;
  }
  near_[i] = e;
  slots_[e.slot].heap_pos = kInNear;
}

void Kernel::refill() {
  const auto n = static_cast<std::uint32_t>(heap_.size());
  std::copy(heap_.begin(), heap_.end(), near_);
  std::sort(near_, near_ + n,
            [](const Entry& a, const Entry& b) { return before(b, a); });
  for (std::uint32_t i = 0; i < n; ++i) {
    slots_[near_[i].slot].heap_pos = kInNear;
  }
  near_n_ = n;
  heap_.clear();
}

void Kernel::release_slot(std::uint32_t slot) {
  slots_[slot] = Slot{0, 0};
  fn_at(slot) = nullptr;
  free_.push_back(slot);
}

void Kernel::dispatch_next() {
  Entry e;
  if (near_n_ > 0) {
    e = near_[--near_n_];
  } else {
    e = heap_[0];
    erase_heap(0);
  }
  PAP_CHECK(e.at >= now_);
  now_ = e.at;
  ++executed_;
  // The event is no longer pending (a self-cancel must fail), but the slot
  // stays claimed until the call returns: pages never move, so the callable
  // stays in place however many events the handler schedules.
  slots_[e.slot].seq = 0;
  ++running_;
  fn_at(e.slot)();
  --running_;
  release_slot(e.slot);
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
  const Entry e{at, rank_of(priority, seq), slot};
  if (heap_.empty() || before(e, heap_[0])) {
    insert_near(e);
  } else {
    push_heap(e);
  }
  return EventId{seq, slot};
}

bool Kernel::cancel(EventId id) {
  if (!id.valid()) return false;
  // Only genuinely pending events can be cancelled: a stale handle (already
  // fired or already cancelled, possibly with the slot since recycled) fails
  // the seq comparison and is rejected without touching any state.
  if (id.slot_ >= slots_.size()) return false;
  const Slot& s = slots_[id.slot_];
  if (s.seq != id.seq_) return false;
  if (s.heap_pos == kInNear) {
    Entry* const pos = std::find_if(
        near_, near_ + near_n_,
        [slot = id.slot_](const Entry& e) { return e.slot == slot; });
    std::copy(pos + 1, near_ + near_n_, pos);
    --near_n_;
  } else {
    erase_heap(s.heap_pos);
  }
  release_slot(id.slot_);
  return true;
}

bool Kernel::step() {
  if (next() == nullptr) return false;
  dispatch_next();
  return true;
}

std::uint64_t Kernel::run(Time until) {
  std::uint64_t ran = 0;
  // Events a handler schedules at the current time join the run in
  // (priority, seq) order: schedule_at forbids the past, so nothing can
  // sneak in before them.
  for (const Entry* e = next(); e != nullptr && e->at <= until; e = next()) {
    dispatch_next();
    ++ran;
  }
  return ran;
}

void Kernel::reset() {
  PAP_CHECK_MSG(running_ == 0, "Kernel::reset() called from inside a handler");
  near_n_ = 0;
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
