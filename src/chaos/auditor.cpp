#include "chaos/auditor.h"

#include <algorithm>
#include <limits>
#include <unordered_set>

#include "runtime/cluster.h"
#include "runtime/executor.h"

namespace tstorm::chaos {

std::string AuditReport::to_string() const {
  std::string out;
  for (const std::string& v : violations) {
    out += v;
    out += '\n';
  }
  return out;
}

namespace {

void violate(AuditReport& report, std::string message) {
  report.violations.push_back(std::move(message));
}

/// Trace events after which supervisors may still start or stop workers.
bool changes_control_plane(trace::EventKind kind) {
  switch (kind) {
    case trace::EventKind::kTopologySubmitted:
    case trace::EventKind::kScheduleApplied:
    case trace::EventKind::kWorkerStarted:
    case trace::EventKind::kWorkerDraining:
    case trace::EventKind::kWorkerStopped:
    case trace::EventKind::kNodeFailed:
    case trace::EventKind::kNodeRecovered:
    case trace::EventKind::kTopologyKilled:
    case trace::EventKind::kNodeDeclaredDead:
    case trace::EventKind::kNodeDeclaredAlive:
    case trace::EventKind::kChaosFault:
      return true;
    default:
      return false;
  }
}

}  // namespace

void InvariantAuditor::check_conservation(AuditReport& report) const {
  const metrics::CompletionRecorder& rec = cluster_.completion();
  const runtime::TupleTracker& tracker = cluster_.tracker();
  // Late completions re-resolve roots already counted as failures.
  const std::uint64_t on_time = rec.total_completed() - rec.total_late();
  const std::uint64_t resolved = on_time + rec.total_failed();
  const std::uint64_t expected =
      tracker.total_registered() - tracker.in_flight();
  if (resolved != expected) {
    violate(report,
            "tuple conservation broken: on_time(" + std::to_string(on_time) +
                ") + failed(" + std::to_string(rec.total_failed()) +
                ") = " + std::to_string(resolved) + " but registered(" +
                std::to_string(tracker.total_registered()) + ") - in_flight(" +
                std::to_string(tracker.in_flight()) + ") = " +
                std::to_string(expected));
  }
  if (rec.total_late() > rec.total_failed()) {
    violate(report, "more late completions (" +
                        std::to_string(rec.total_late()) +
                        ") than failures (" +
                        std::to_string(rec.total_failed()) + ")");
  }
}

void InvariantAuditor::check_executor_registrations(
    AuditReport& report) const {
  // Collect every worker a supervisor still owns (current or draining).
  std::unordered_set<const runtime::Worker*> owned;
  for (int n = 0; n < cluster_.num_nodes(); ++n) {
    runtime::Supervisor& sup = cluster_.supervisor(n);
    for (int port = 0; port < cluster_.slots_on_node(n); ++port) {
      if (const runtime::Worker* w = sup.worker_at(port)) owned.insert(w);
    }
    for (const auto& w : sup.draining()) owned.insert(w.get());
  }
  for (runtime::Executor* e : cluster_.registered_executors()) {
    const runtime::Worker& w = e->worker();
    if (owned.find(&w) == owned.end()) {
      violate(report, "dangling executor registration: task " +
                          std::to_string(e->task()) +
                          " registered but its worker (slot " +
                          std::to_string(w.slot()) +
                          ") is not owned by any supervisor");
      continue;
    }
    if (w.state() != runtime::WorkerState::kRunning &&
        w.state() != runtime::WorkerState::kDraining) {
      violate(report, "executor for task " + std::to_string(e->task()) +
                          " registered but its worker is " +
                          runtime::to_string(w.state()));
    }
    if (!e->running()) {
      violate(report, "executor for task " + std::to_string(e->task()) +
                          " registered but not running");
    }
  }
}

void InvariantAuditor::check_drop_attribution(AuditReport& report) const {
  // Cluster::send is the only caller of Network::send, and it files every
  // fault-model loss under kNetworkLoss — the two counters must agree.
  std::uint64_t net_dropped = 0;
  for (net::LinkType type :
       {net::LinkType::kIntraProcess, net::LinkType::kInterProcess,
        net::LinkType::kInterNode}) {
    net_dropped += cluster_.network().stats(type).dropped;
  }
  const std::uint64_t attributed =
      cluster_.dropped_by(runtime::DropCause::kNetworkLoss);
  if (net_dropped != attributed) {
    violate(report, "drop attribution mismatch: network dropped " +
                        std::to_string(net_dropped) +
                        " data messages but kNetworkLoss counts " +
                        std::to_string(attributed));
  }
  // Same double-entry check for load shedding: every tuple the flow
  // controller counted as shed must appear under kLoadShed, and vice
  // versa — a shed without attribution would silently break tuple
  // conservation downstream.
  const std::uint64_t shed_counted = cluster_.flow().shed_total();
  const std::uint64_t shed_attributed =
      cluster_.dropped_by(runtime::DropCause::kLoadShed);
  if (shed_counted != shed_attributed) {
    violate(report, "shed attribution mismatch: flow controller shed " +
                        std::to_string(shed_counted) +
                        " tuples but kLoadShed counts " +
                        std::to_string(shed_attributed));
  }
  // And for exactly-once dedup: every replayed duplicate the state layer
  // suppressed must be filed under kStateDedup — otherwise a suppressed
  // tuple would look like a silent loss to the balance sheet.
  const std::uint64_t dedup_counted = cluster_.state_dedup_suppressed();
  const std::uint64_t dedup_attributed =
      cluster_.dropped_by(runtime::DropCause::kStateDedup);
  if (dedup_counted != dedup_attributed) {
    violate(report, "dedup attribution mismatch: state layer suppressed " +
                        std::to_string(dedup_counted) +
                        " duplicates but kStateDedup counts " +
                        std::to_string(dedup_attributed));
  }
}

void InvariantAuditor::check_tracker_shape(AuditReport& report) const {
  const runtime::TupleTracker& tracker = cluster_.tracker();
  if (tracker.in_flight() > tracker.tracked_entries()) {
    violate(report, "tracker in_flight (" +
                        std::to_string(tracker.in_flight()) +
                        ") exceeds tracked entries (" +
                        std::to_string(tracker.tracked_entries()) + ")");
  }
}

void InvariantAuditor::check_schedule_provenance(AuditReport& report) const {
  // Every applied schedule must be explainable: the version stamped on a
  // kScheduleApplied trace event has to exist in the provenance log's
  // published-version set (which survives ring eviction). This catches a
  // scheduling path that publishes placements without recording why —
  // exactly the class of silent decision the provenance layer exists to
  // eliminate, and the auto-rebalance path chaos runs exercise hardest.
  for (const trace::Event& e :
       cluster_.trace_log().of_kind(trace::EventKind::kScheduleApplied)) {
    if (!cluster_.provenance().has_version(e.version)) {
      violate(report,
              "schedule applied without provenance: version " +
                  std::to_string(e.version) + " (topology " +
                  std::to_string(e.topology) + ", t=" +
                  std::to_string(e.time) + ") has no DecisionRecord");
    }
  }
}

void InvariantAuditor::check_tracker_drained(AuditReport& report) const {
  const runtime::TupleTracker& tracker = cluster_.tracker();
  if (tracker.in_flight() != 0) {
    violate(report, "tracker leak: " + std::to_string(tracker.in_flight()) +
                        " roots still in flight after quiesce");
  }
  if (tracker.tracked_entries() != 0) {
    violate(report, "tracker leak: " +
                        std::to_string(tracker.tracked_entries()) +
                        " entries still tracked after quiesce");
  }
}

void InvariantAuditor::check_pending_bounded(AuditReport& report) const {
  // Quiesced baseline: per active node a sync + heartbeat tick, the
  // detector sweep, per live executor a poll/tick event, plus generous
  // slack for one-shot straggler events (drain timers, spike restores).
  const std::size_t executors = cluster_.registered_executors().size();
  const std::size_t bound = 3 * static_cast<std::size_t>(
                                    std::max(1, cluster_.num_nodes())) +
                            3 * executors + 64;
  if (cluster_.sim().pending() > bound) {
    violate(report, "pending-event leak: " +
                        std::to_string(cluster_.sim().pending()) +
                        " events pending after quiesce (baseline bound " +
                        std::to_string(bound) + ")");
  }
}

KeyedState InvariantAuditor::collect_keyed_state() const {
  KeyedState out;
  std::unordered_set<sched::TaskId> seen;
  for (runtime::Executor* e : cluster_.registered_executors()) {
    const state::StateStore* store = e->state_store();
    if (store == nullptr) continue;
    if (!seen.insert(e->task()).second) continue;
    // Only the instance the router currently resolves to counts; a
    // superseded instance draining out still holds a stale copy.
    if (cluster_.resolve(e->task(),
                         std::numeric_limits<sched::AssignmentVersion>::max()) !=
        e) {
      continue;
    }
    const std::string& comp = cluster_.task_info(e->task()).component->name;
    store->for_each([&](const topo::Value& key, const topo::Value& value) {
      if (value.kind() != topo::Value::Kind::kInt) return;
      std::string flat = comp;
      flat += '|';
      switch (key.kind()) {
        case topo::Value::Kind::kInt:
          flat += std::to_string(key.as_int());
          break;
        case topo::Value::Kind::kDouble:
          flat += std::to_string(key.as_double());
          break;
        case topo::Value::Kind::kString:
          flat += key.as_string();
          break;
      }
      out[flat] += value.as_int();
    });
  }
  return out;
}

void InvariantAuditor::check_state_consistency(
    AuditReport& report, const KeyedState& expected) const {
  const KeyedState actual = collect_keyed_state();
  for (const auto& [key, want] : expected) {
    const auto it = actual.find(key);
    const long long got = it == actual.end() ? 0 : it->second;
    if (got != want) {
      violate(report, "state divergence: key '" + key + "' counts " +
                          std::to_string(got) + " but fault-free reference " +
                          "counts " + std::to_string(want) +
                          (got < want ? " (lost update)"
                                      : " (double-applied update)"));
    }
  }
  for (const auto& [key, got] : actual) {
    if (expected.find(key) == expected.end() && got != 0) {
      violate(report, "state divergence: key '" + key + "' counts " +
                          std::to_string(got) +
                          " but is absent from the fault-free reference");
    }
  }
}

sim::Time InvariantAuditor::liveness_from() const {
  const auto& events = cluster_.trace_log().events();
  // A change evicted from the ring is no later than the oldest event kept.
  sim::Time last = events.empty() ? 0 : events.front().time;
  for (auto it = events.rbegin(); it != events.rend(); ++it) {
    if (changes_control_plane(it->kind)) {
      last = it->time;
      break;
    }
  }
  const runtime::ClusterConfig& cfg = cluster_.config();
  return last + cfg.supervisor_sync_period + cfg.worker_start_delay;
}

AuditReport InvariantAuditor::check_liveness() const {
  AuditReport report;
  const sim::Time from = liveness_from();
  if (cluster_.sim().now() < from) {
    violate(report, "liveness checked at t=" +
                        std::to_string(cluster_.sim().now()) +
                        " before the control plane settled (t=" +
                        std::to_string(from) + ")");
    return report;
  }
  for (const auto& [topo, record] : cluster_.coordination().all()) {
    for (const auto& [task, slot] : record.placement) {
      const sched::NodeId node = cluster_.slot_node(slot);
      if (!cluster_.node_available(node) ||
          !cluster_.nimbus().node_believed_alive(node)) {
        continue;
      }
      int running = 0;
      bool placed = false;
      for (const runtime::Executor* e : cluster_.instances_of(task)) {
        if (e->worker().state() != runtime::WorkerState::kRunning) continue;
        ++running;
        placed = placed || e->worker().slot() == slot;
      }
      if (running != 1 || !placed) {
        violate(report, "liveness: task " + std::to_string(task) +
                            " of topology " + std::to_string(topo) +
                            " is placed on slot " + std::to_string(slot) +
                            " (node " + std::to_string(node) + ") but has " +
                            std::to_string(running) +
                            " running instance(s)" +
                            (running > 0 && !placed ? ", none at that slot"
                                                    : ""));
      }
    }
  }
  return report;
}

AuditReport InvariantAuditor::check_now() const {
  AuditReport report;
  check_conservation(report);
  check_executor_registrations(report);
  check_drop_attribution(report);
  check_tracker_shape(report);
  check_schedule_provenance(report);
  return report;
}

AuditReport InvariantAuditor::check_quiesced() const {
  AuditReport report = check_now();
  check_tracker_drained(report);
  check_pending_bounded(report);
  return report;
}

}  // namespace tstorm::chaos
