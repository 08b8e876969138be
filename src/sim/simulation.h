// Discrete-event simulation engine: a single-threaded event loop over
// simulated time. All T-Storm substrates (network, executors, daemons)
// schedule work here; determinism is guaranteed by (time, sequence) ordering.
//
// The hot path is allocation-free: callbacks are constructed in place into
// sim::InlineFn slots inside a recycled slot map, and the ready queue is a
// 4-ary binary heap of 24-byte (time-key, seq, slot, gen) records (4-ary:
// half the depth and contiguous children, so a pop touches far less memory
// than a binary heap). Cancellation reclaims the slot immediately and
// leaves its heap record to be skipped when popped (the record carries the
// slot generation it was issued for, so a recycled slot never mis-fires a
// stale record); once stale records outnumber live events by a fixed
// margin, cancel() purges them and re-heapifies. See docs/MODEL.md,
// "Engine internals & performance".
#pragma once

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/inline_fn.h"

namespace tstorm::sim {

/// Simulated time in seconds.
using Time = double;

/// Handle to a scheduled event; usable with Simulation::cancel(). Encodes
/// (slot generation << 32 | slot index); treat it as opaque.
using EventId = std::uint64_t;

/// Sentinel for "no event". Generations start at 1, so no issued id is 0.
inline constexpr EventId kInvalidEvent = 0;

/// A deterministic discrete-event simulator.
///
/// Events scheduled at equal times execute in scheduling order, which makes
/// every run bit-for-bit reproducible given the same inputs and RNG seed.
/// The class is not thread-safe; the whole simulation is single-threaded by
/// design (simulated concurrency, real determinism).
class Simulation {
 public:
  Simulation() = default;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Current simulated time in seconds.
  [[nodiscard]] Time now() const { return now_; }

  /// Schedules `fn` at absolute time `t`. Times in the past are clamped to
  /// now() (the event still runs, immediately after pending ones). The
  /// callback is constructed directly into its event slot: closures within
  /// InlineFn::kInlineBytes never touch the heap.
  template <typename F,
            typename = std::enable_if_t<
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  EventId schedule_at(Time t, F&& fn) {
    const std::uint32_t index = acquire_slot();
    Slot& s = slots_[index];
    if constexpr (std::is_same_v<std::decay_t<F>, InlineFn>) {
      s.fn = std::forward<F>(fn);
    } else {
      s.fn.emplace(std::forward<F>(fn));
    }
    s.armed = true;
    heap_push(HeapItem{time_key(t > now_ ? t : now_), next_seq_++, index,
                       s.gen});
    ++live_;
    return make_id(s.gen, index);
  }

  /// Schedules `fn` after a relative delay `dt >= 0`.
  template <typename F,
            typename = std::enable_if_t<
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  EventId schedule_after(Time dt, F&& fn) {
    assert(dt >= 0);
    return schedule_at(now_ + dt, std::forward<F>(fn));
  }

  /// Cancels a pending event: the callback is destroyed and its slot
  /// recycled immediately. Amortized O(1): the heap record stays behind
  /// until it surfaces, or until stale records outnumber live events by
  /// kStaleMargin and one linear purge drops them all. Returns true if the
  /// event existed and had not yet run. Cancelling an already-executed,
  /// already-cancelled, or invalid id is a no-op returning false.
  bool cancel(EventId id);

  /// Executes the next pending event. Returns false if none remain or the
  /// simulation was stopped.
  bool step();

  /// Runs until no events remain or stop() is called. Returns the number of
  /// events executed by this call.
  std::size_t run();

  /// Runs all events with timestamp <= `t`, then sets the clock to `t`.
  /// Returns the number of events executed by this call.
  std::size_t run_until(Time t);

  /// Requests that run()/run_until() return after the current event.
  void stop() { stopped_ = true; }

  /// Clears the stop flag so the simulation can be resumed.
  void clear_stop() { stopped_ = false; }

  [[nodiscard]] bool stopped() const { return stopped_; }

  /// Number of events executed so far over the simulation's lifetime.
  [[nodiscard]] std::uint64_t events_executed() const { return executed_; }

  /// Number of scheduled events not yet executed or cancelled.
  [[nodiscard]] std::size_t pending() const { return live_; }

  /// Heap records held, live and stale. cancel() keeps it at most
  /// 2 * pending() + kStaleMargin; steps and schedules move it by one.
  [[nodiscard]] std::size_t heap_records() const { return heap_.size(); }

  /// Pre-sizes the slot map and heap for an expected concurrent event
  /// population, so even the warm-up phase never reallocates.
  void reserve(std::size_t events);

 private:
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;
  /// cancel() purges stale heap records once the heap holds more than
  /// 2 * live events + this many. The constant keeps small heaps from
  /// purging on every cancel; the factor makes a purge's linear cost
  /// amortize to O(1) per cancel.
  static constexpr std::size_t kStaleMargin = 256;

  /// One schedulable event. While armed, `fn` holds the callback and `gen`
  /// is the generation its EventId was issued with; when free, the slot
  /// sits on the freelist (via `next_free`) with `gen` already bumped, so
  /// stale ids and stale heap records both fail their generation check.
  struct Slot {
    InlineFn fn;
    std::uint32_t gen = 1;
    std::uint32_t next_free = kNoSlot;
    bool armed = false;
  };

  /// Heap record: 24-byte POD ordered by (tkey, seq). `seq` increments per
  /// schedule call, which preserves the engine's documented ordering
  /// semantics exactly (equal times run in scheduling order).
  struct HeapItem {
    std::uint64_t tkey;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
  };

  /// Times are clamped non-negative before encoding, and the IEEE-754 bit
  /// pattern of non-negative doubles is order-preserving as an unsigned
  /// integer — so heap comparisons are pure integer compares.
  static std::uint64_t time_key(Time t) {
    return std::bit_cast<std::uint64_t>(t);
  }
  static Time key_time(std::uint64_t key) {
    return std::bit_cast<Time>(key);
  }

  static bool earlier(const HeapItem& a, const HeapItem& b) {
    if (a.tkey != b.tkey) return a.tkey < b.tkey;
    return a.seq < b.seq;
  }

  static EventId make_id(std::uint32_t gen, std::uint32_t slot) {
    return (static_cast<EventId>(gen) << 32) | slot;
  }

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t index);

  /// True while the record's event is still pending (not executed or
  /// cancelled since the record was issued).
  [[nodiscard]] bool is_live(const HeapItem& item) const {
    const Slot& s = slots_[item.slot];
    return s.armed && s.gen == item.gen;
  }

  void heap_push(HeapItem item);
  /// Moves `item` down from the hole at `i` to its place (the subtrees
  /// below `i` must already be heaps).
  void sift_down(std::size_t i, HeapItem item);
  void heap_pop_top();
  /// Drops every stale record and restores the heap order bottom-up.
  void purge_stale();
  /// Drops cancelled records off the heap top; returns false when empty.
  bool settle_top();
  /// Pops the top (live) record, retires its slot, and moves the callback
  /// out for execution.
  InlineFn take_top(Time& t_out);

  Time now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::size_t live_ = 0;
  bool stopped_ = false;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoSlot;
  std::vector<HeapItem> heap_;
};

/// Repeatedly runs a callback at a fixed period. Models the daemon loops in
/// Storm/T-Storm (supervisor sync, load monitor sampling, schedule
/// generation/fetch). The period can be changed on the fly ("adjustment of
/// scheduling parameters on the fly", paper section IV-A).
class PeriodicTask {
 public:
  /// Smallest accepted period: non-positive periods would arm an infinite
  /// same-timestamp tick loop, so they are rejected (assert in debug
  /// builds; clamped/ignored in release — see set_period()).
  static constexpr Time kMinPeriod = 1e-9;

  /// Does not start automatically; call start().
  PeriodicTask(Simulation& sim, Time period, InlineFn fn);
  ~PeriodicTask() { stop(); }

  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;

  /// Schedules the first tick `first_delay` from now, then every period().
  void start(Time first_delay = 0);

  /// Cancels any pending tick.
  void stop();

  [[nodiscard]] bool running() const { return pending_ != kInvalidEvent; }

  [[nodiscard]] Time period() const { return period_; }

  /// Takes effect from the next tick onward. Non-positive or NaN periods
  /// are invalid: they assert in debug builds and are ignored (the current
  /// period is kept) in release builds.
  void set_period(Time period);

 private:
  void tick();

  Simulation& sim_;
  Time period_;
  InlineFn fn_;
  EventId pending_ = kInvalidEvent;
};

}  // namespace tstorm::sim
