// Control-plane event trace: a bounded, queryable record of everything the
// scheduling machinery does — topology submissions, schedule publications
// and applications, worker lifecycle transitions, spout halts, overload
// triggers, node failures. The runtime emits events unconditionally (the
// sink decides retention), so tests can assert on control-plane behaviour
// and operators can reconstruct "what happened around t=380 s?".
#pragma once

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <string>
#include <vector>

#include "sched/types.h"
#include "sim/simulation.h"

namespace tstorm::trace {

enum class EventKind : std::uint8_t {
  kTopologySubmitted,
  kSchedulePublished,  // generator -> db
  kScheduleApplied,    // custom scheduler -> nimbus
  kWorkerStarted,
  kWorkerDraining,
  kWorkerStopped,
  kSpoutsHalted,
  kOverloadTriggered,
  kNodeFailed,
  kNodeRecovered,
  kTopologyKilled,
  /// Nimbus's failure detector view (may disagree with ground truth when
  /// heartbeats are lost in flight — false positives).
  kNodeDeclaredDead,
  kNodeDeclaredAlive,
  /// A chaos-harness fault injection (detail describes the fault).
  kChaosFault,
  /// Flow control: a topology's backpressure throttle flag flipped on/off
  /// (node = the executor's node that triggered the transition, where
  /// known).
  kBackpressureOn,
  kBackpressureOff,
  /// Flow control: a data tuple was shed at a hard-full executor queue
  /// (node = the congested executor's node, detail names task + policy).
  kTupleShed,
  /// A schedule-generation pass ran and was rejected (detail carries the
  /// machine-readable outcome + reason; the full DecisionRecord lives in
  /// obs::ProvenanceLog). Emitted only when CoreConfig::trace_decisions
  /// is on, so default trace streams are unchanged.
  kScheduleRejected,
  /// State: a checkpoint round completed (every stateful task's snapshot
  /// landed durably; detail carries round id, bytes, duration) or aborted
  /// (superseded while incomplete — lost barriers or dropped writes).
  kCheckpointComplete,
  kCheckpointAborted,
  /// State: a (re)started stateful executor rehydrated from the durable
  /// store (detail carries checkpoint id + entry count).
  kStateRestored,
};

const char* to_string(EventKind kind);

struct Event {
  sim::Time time = 0;
  EventKind kind = EventKind::kTopologySubmitted;
  /// Semantics depend on kind; -1 where not applicable.
  sched::TopologyId topology = -1;
  sched::NodeId node = -1;
  sched::SlotIndex slot = -1;
  sched::AssignmentVersion version = 0;
  /// Free-form detail ("gamma=1.7", "7 nodes", algorithm name...).
  std::string detail;
};

/// Formats one event as a single log line.
std::string format_event(const Event& e);

/// Ring-buffer sink with query helpers. Not thread-safe (single-threaded
/// simulation).
class TraceLog {
 public:
  explicit TraceLog(std::size_t capacity = 65536) : capacity_(capacity) {}

  void record(Event event);

  [[nodiscard]] std::size_t size() const { return events_.size(); }
  [[nodiscard]] std::uint64_t total_recorded() const { return total_; }
  [[nodiscard]] const std::deque<Event>& events() const { return events_; }

  /// Events of one kind, oldest first.
  [[nodiscard]] std::vector<Event> of_kind(EventKind kind) const;

  /// Events in [from, to), oldest first.
  [[nodiscard]] std::vector<Event> between(sim::Time from,
                                           sim::Time to) const;

  /// Count of events of a kind.
  [[nodiscard]] std::size_t count(EventKind kind) const;

  /// Writes formatted lines for events in [from, to).
  void dump(std::ostream& os, sim::Time from = 0,
            sim::Time to = 1e18) const;

  void clear() {
    events_.clear();
    total_ = 0;
  }

 private:
  std::size_t capacity_;
  std::deque<Event> events_;
  std::uint64_t total_ = 0;
};

}  // namespace tstorm::trace
