#include "sim/simulation.h"

#include <algorithm>
#include <cmath>

namespace tstorm::sim {

// ------------------------------------------------------------- slot map

std::uint32_t Simulation::acquire_slot() {
  if (free_head_ != kNoSlot) {
    const std::uint32_t index = free_head_;
    free_head_ = slots_[index].next_free;
    return index;
  }
  assert(slots_.size() < kNoSlot);
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void Simulation::release_slot(std::uint32_t index) {
  Slot& s = slots_[index];
  s.armed = false;
  ++s.gen;  // invalidates the issued EventId and any heap record for it
  if (s.gen == 0) s.gen = 1;  // keep ids nonzero across generation wrap
  s.next_free = free_head_;
  free_head_ = index;
}

// ------------------------------------------------------------ 4-ary heap
//
// Hole-based sifting: the displaced item is held aside while ancestors or
// descendants shift into the hole, then written once — one 24-byte store
// per level instead of a three-store swap.

void Simulation::heap_push(HeapItem item) {
  heap_.push_back(item);  // reserves capacity; value rewritten below
  std::size_t i = heap_.size() - 1;
  while (i > 0) {
    const std::size_t parent = (i - 1) >> 2;
    if (!earlier(item, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = item;
}

void Simulation::sift_down(std::size_t i, HeapItem item) {
  const std::size_t n = heap_.size();
  while (true) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) break;
    const std::size_t last = std::min(first + 4, n);
    std::size_t best = first;
    for (std::size_t c = first + 1; c < last; ++c) {
      if (earlier(heap_[c], heap_[best])) best = c;
    }
    if (!earlier(heap_[best], item)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = item;
}

void Simulation::heap_pop_top() {
  const HeapItem item = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0, item);
}

void Simulation::purge_stale() {
  // In place, so the purge allocates nothing. Every (tkey, seq) is unique,
  // so the rebuilt heap pops in exactly the order the old one would have.
  std::erase_if(heap_,
                [this](const HeapItem& item) { return !is_live(item); });
  const std::size_t n = heap_.size();
  if (n < 2) return;
  for (std::size_t i = (n - 2) / 4 + 1; i-- > 0;) sift_down(i, heap_[i]);
}

bool Simulation::settle_top() {
  while (!heap_.empty()) {
    if (is_live(heap_.front())) return true;
    heap_pop_top();  // stale record of a cancelled event
  }
  return false;
}

InlineFn Simulation::take_top(Time& t_out) {
  const HeapItem top = heap_.front();
  heap_pop_top();
  InlineFn fn = std::move(slots_[top.slot].fn);
  // Retire the slot before invoking, so the callback can freely schedule
  // (reusing this slot) or cancel without observing a half-dead event.
  release_slot(top.slot);
  --live_;
  t_out = key_time(top.tkey);
  return fn;
}

// ------------------------------------------------------------ scheduling

bool Simulation::cancel(EventId id) {
  const auto index = static_cast<std::uint32_t>(id & 0xffffffffu);
  const auto gen = static_cast<std::uint32_t>(id >> 32);
  if (id == kInvalidEvent || index >= slots_.size()) return false;
  Slot& s = slots_[index];
  // Executed and cancelled events both bumped the generation, so double
  // cancels and cancels of consumed ids fail here — they can no longer
  // corrupt the live count (or anything else).
  if (!s.armed || s.gen != gen) return false;
  s.fn.reset();
  release_slot(index);
  --live_;
  if (heap_.size() > 2 * live_ + kStaleMargin) purge_stale();
  return true;
}

void Simulation::reserve(std::size_t events) {
  slots_.reserve(events);
  heap_.reserve(events);
}

// ------------------------------------------------------------- execution

bool Simulation::step() {
  if (stopped_ || !settle_top()) return false;
  Time t = 0;
  InlineFn fn = take_top(t);
  now_ = t;
  ++executed_;
  fn();
  return true;
}

std::size_t Simulation::run() {
  std::size_t n = 0;
  while (step()) ++n;
  return n;
}

std::size_t Simulation::run_until(Time t) {
  std::size_t n = 0;
  // A horizon below every (non-negative) event time runs nothing. The
  // `+ 0.0` normalizes -0.0 to +0.0 so the key encoding stays monotone.
  if (!(t < 0)) {
    const std::uint64_t horizon = time_key(t + 0.0);
    while (!stopped_ && settle_top() && heap_.front().tkey <= horizon) {
      Time event_t = 0;
      InlineFn fn = take_top(event_t);
      now_ = event_t;
      ++executed_;
      ++n;
      fn();
    }
  }
  now_ = std::max(now_, t);
  return n;
}

// ----------------------------------------------------------- PeriodicTask

PeriodicTask::PeriodicTask(Simulation& sim, Time period, InlineFn fn)
    : sim_(sim), period_(period), fn_(std::move(fn)) {
  assert(period_ >= kMinPeriod);
  // Release-build safety net: a non-positive period would tick forever at
  // one timestamp; clamp so time always advances.
  if (!(period_ >= kMinPeriod)) period_ = kMinPeriod;
}

void PeriodicTask::set_period(Time period) {
  assert(period >= kMinPeriod);
  if (!(period >= kMinPeriod)) return;  // reject: keep the current period
  period_ = period;
}

void PeriodicTask::start(Time first_delay) {
  stop();
  pending_ = sim_.schedule_after(first_delay, [this] { tick(); });
}

void PeriodicTask::stop() {
  if (pending_ != kInvalidEvent) {
    sim_.cancel(pending_);
    pending_ = kInvalidEvent;
  }
}

void PeriodicTask::tick() {
  // Re-arm first so fn_ may call stop()/set_period() and observe a
  // consistent state.
  pending_ = sim_.schedule_after(period_, [this] { tick(); });
  fn_();
}

}  // namespace tstorm::sim
