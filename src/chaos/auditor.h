// InvariantAuditor: cross-checks a cluster's internal accounting against
// the conservation laws a correct runtime must obey under arbitrary fault
// schedules. The chaos soak runs it against every seed; a single violation
// fails the run with a human-readable explanation.
//
// Instant invariants (hold at any time, faults in progress or not):
//   * Tuple conservation: every registered root is in exactly one state —
//       total_registered == on_time_completions + failures + in_flight
//     (late completions re-resolve an already-counted failure, so they are
//     excluded from the left-hand completion term).
//   * No dangling executor registrations: every executor in the cluster's
//     router belongs to a live (running/draining) worker that is still
//     owned by a supervisor.
//   * Drop attribution: the network's per-link dropped counters sum to the
//     cluster's kNetworkLoss drop cause.
//   * Tracker shape: in_flight <= tracked entries (failed entries linger
//     for the late-ack grace window, live ones are a subset).
//   * Schedule provenance: every schedule-applied trace event (initial
//     placements, manual rebalances, auto-rebalances around dead nodes,
//     generator publishes) carries an assignment version the provenance
//     log knows — no placement may ever reach the coordination store
//     without a DecisionRecord explaining it.
//
// Quiesced invariants (hold once spouts are silenced and the late-ack
// grace window has elapsed):
//   * The tracker drained: no entries, nothing in flight.
//   * Pending-event accounting: only the periodic daemon baseline remains
//     (supervisor sync/heartbeat loops, detector sweep, executor polls) —
//     a per-tuple event leak shows up here as an unbounded count.
//
// Liveness (holds once the control plane has settled, see
// check_liveness): every published task runs, once, where it was placed.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "sim/simulation.h"

namespace tstorm::runtime {
class Cluster;
}

namespace tstorm::chaos {

/// Keyed-state aggregate: "component|key" -> summed integer value across
/// the live tasks of every stateful bolt. Comparable across clusters, so
/// a chaos run can be checked against a fault-free reference run.
using KeyedState = std::map<std::string, long long>;

struct AuditReport {
  std::vector<std::string> violations;

  [[nodiscard]] bool ok() const { return violations.empty(); }
  /// All violations joined as lines (empty string when ok).
  [[nodiscard]] std::string to_string() const;
};

class InvariantAuditor {
 public:
  explicit InvariantAuditor(runtime::Cluster& cluster) : cluster_(cluster) {}

  /// Instant invariants — safe to call at any simulation time.
  [[nodiscard]] AuditReport check_now() const;

  /// Instant + quiesced invariants. Call only after the workload has been
  /// stopped and at least (1 + late_ack_grace_factor) * tuple_timeout of
  /// simulated time has passed since the last emission.
  [[nodiscard]] AuditReport check_quiesced() const;

  /// Sums the live keyed state of every stateful bolt task (the instance
  /// the router currently resolves to) into a comparable aggregate. Only
  /// integer-valued entries participate; collect before kill_topology,
  /// while the executors still exist.
  [[nodiscard]] KeyedState collect_keyed_state() const;

  /// State-consistency check: after quiesce, every keyed count must equal
  /// the fault-free reference run's — a mismatch means an update was lost
  /// or double-applied across crash/replay/restore.
  void check_state_consistency(AuditReport& report,
                               const KeyedState& expected) const;

  /// Earliest time check_liveness() applies: one supervisor sync period
  /// plus the worker start delay after the last control-plane change in
  /// the trace (a topology submitted, placed or killed; a node failed,
  /// recovered or declared dead/alive; a worker started, draining or
  /// stopped; a chaos fault).
  [[nodiscard]] sim::Time liveness_from() const;

  /// Liveness: every task of every published assignment whose slot is on
  /// a node that is up and that Nimbus believes alive has exactly one
  /// instance in a running (not draining) worker, at that slot. Called
  /// before liveness_from(), it reports that instead of checking. Kept out
  /// of check_now() and check_quiesced(), which hold at any time.
  [[nodiscard]] AuditReport check_liveness() const;

 private:
  void check_conservation(AuditReport& report) const;
  void check_executor_registrations(AuditReport& report) const;
  void check_drop_attribution(AuditReport& report) const;
  void check_tracker_shape(AuditReport& report) const;
  void check_schedule_provenance(AuditReport& report) const;
  void check_tracker_drained(AuditReport& report) const;
  void check_pending_bounded(AuditReport& report) const;

  runtime::Cluster& cluster_;
};

}  // namespace tstorm::chaos
