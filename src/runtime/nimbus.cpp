#include "runtime/nimbus.h"

#include <cmath>
#include <stdexcept>
#include <unordered_map>

#include "runtime/cluster.h"

namespace tstorm::runtime {

Nimbus::Nimbus(Cluster& cluster) : cluster_(cluster) {}

void Nimbus::record_decision(obs::DecisionTrigger trigger,
                             obs::DecisionOutcome outcome,
                             const std::string& algorithm, int executors,
                             sched::AssignmentVersion version,
                             std::string reason) {
  obs::DecisionRecord rec;
  rec.time = cluster_.sim().now();
  rec.trigger = trigger;
  rec.outcome = outcome;
  rec.algorithm = algorithm;
  rec.executors = executors;
  rec.version = version;
  rec.reason = std::move(reason);
  cluster_.provenance().record(std::move(rec));
}

sched::AssignmentVersion Nimbus::next_version() {
  auto v = static_cast<sched::AssignmentVersion>(
      std::llround(cluster_.sim().now() * 1000.0));
  if (v <= last_version_) v = last_version_ + 1;
  last_version_ = v;
  return v;
}

void Nimbus::schedule_initial(sched::TopologyId topo,
                              sched::ISchedulingAlgorithm& algorithm) {
  auto input = cluster_.scheduler_input({topo});
  auto result = algorithm.schedule(input);
  const auto tasks = cluster_.tasks_of(topo);
  for (sched::TaskId t : tasks) {
    if (!result.assignment.contains(t)) {
      record_decision(obs::DecisionTrigger::kInitial,
                      obs::DecisionOutcome::kIncompleteAssignment,
                      algorithm.name(), static_cast<int>(tasks.size()), 0,
                      "initial scheduler left tasks of topology " +
                          std::to_string(topo) + " unplaced");
      throw std::runtime_error("initial scheduler '" + algorithm.name() +
                               "' left tasks of topology unplaced");
    }
  }
  AssignmentRecord record;
  record.version = next_version();
  record.placement = std::move(result.assignment);
  record_decision(obs::DecisionTrigger::kInitial,
                  obs::DecisionOutcome::kPublished, algorithm.name(),
                  static_cast<int>(tasks.size()), record.version,
                  "initial placement of topology " + std::to_string(topo));
  cluster_.trace_log().record({cluster_.sim().now(),
                               trace::EventKind::kScheduleApplied, topo, -1,
                               -1, record.version,
                               "initial: " + algorithm.name()});
  cluster_.coordination().publish(topo, std::move(record));
}

bool Nimbus::apply_placement(sched::TopologyId topo,
                             const sched::Placement& placement,
                             sched::AssignmentVersion version,
                             obs::DecisionTrigger trigger) {
  return apply_placements({{topo, placement}}, version, trigger);
}

bool Nimbus::rebalance(sched::TopologyId topo,
                       sched::ISchedulingAlgorithm& algorithm,
                       int num_workers_override,
                       obs::DecisionTrigger trigger) {
  const auto tasks = cluster_.tasks_of(topo);
  if (tasks.empty()) {
    record_decision(trigger, obs::DecisionOutcome::kEmptyInput,
                    algorithm.name(), 0, 0,
                    "rebalance of unknown topology " + std::to_string(topo));
    return false;
  }
  auto input = cluster_.scheduler_input({topo});
  if (num_workers_override > 0) {
    for (auto& t : input.topologies) {
      if (t.id == topo) t.requested_workers = num_workers_override;
    }
  }
  // The topology's own current slots are free to reuse: drop them from the
  // occupied set (scheduler_input only lists other topologies' slots, so
  // nothing to do) and schedule.
  auto result = algorithm.schedule(input);
  for (sched::TaskId t : tasks) {
    if (!result.assignment.contains(t)) {
      record_decision(trigger, obs::DecisionOutcome::kIncompleteAssignment,
                      algorithm.name(), static_cast<int>(tasks.size()), 0,
                      "rebalance left tasks of topology " +
                          std::to_string(topo) + " unplaced");
      return false;
    }
  }
  return apply_placement(topo, result.assignment, next_version(), trigger);
}

bool Nimbus::apply_placements(
    const std::map<sched::TopologyId, sched::Placement>& placements,
    sched::AssignmentVersion version, obs::DecisionTrigger trigger) {
  int executors = 0;
  for (const auto& [topo, placement] : placements) {
    executors += static_cast<int>(placement.size());
  }
  const auto reject = [&](const std::string& why) {
    record_decision(trigger, obs::DecisionOutcome::kApplyRejected, {},
                    executors, 0,
                    "placement of version " + std::to_string(version) +
                        " rejected: " + why);
    return false;
  };
  const int total_slots = cluster_.total_slots();
  // Validate coverage, ranges, and slot exclusivity across the new set.
  std::unordered_map<sched::SlotIndex, sched::TopologyId> slot_owner;
  for (const auto& [topo, placement] : placements) {
    const std::string of = " of topology " + std::to_string(topo);
    const auto tasks = cluster_.tasks_of(topo);
    if (tasks.empty()) {
      return reject("unknown topology " + std::to_string(topo));
    }
    for (sched::TaskId t : tasks) {
      auto it = placement.find(t);
      if (it == placement.end()) {
        return reject("does not cover task " + std::to_string(t) + of);
      }
      if (it->second < 0 || it->second >= total_slots) {
        return reject("slot out of range for task " + std::to_string(t) + of);
      }
      auto [oit, inserted] = slot_owner.emplace(it->second, topo);
      if (!inserted && oit->second != topo) {
        return reject("slot " + std::to_string(it->second) +
                      " shared by two topologies");
      }
    }
    const auto* current = cluster_.coordination().get(topo);
    if (current != nullptr && version <= current->version) {
      return reject("stale version, current " +
                    std::to_string(current->version) + of);
    }
  }
  // A slot hosts one topology: reject collisions with the current
  // assignments of topologies outside the set.
  for (const auto& [other, record] : cluster_.coordination().all()) {
    if (placements.contains(other)) continue;
    for (const auto& [task, slot] : record.placement) {
      if (slot_owner.contains(slot)) {
        return reject("slot " + std::to_string(slot) +
                      " already owned by topology " + std::to_string(other));
      }
    }
  }
  // The schedule generator records its own (richer) DecisionRecord when it
  // publishes `version`; only externally computed versions get one here.
  if (!cluster_.provenance().has_version(version)) {
    std::string topologies;
    for (const auto& [topo, placement] : placements) {
      topologies += (topologies.empty() ? "" : ", ") + std::to_string(topo);
    }
    record_decision(trigger, obs::DecisionOutcome::kPublished, {}, executors,
                    version, "placement applied for topology " + topologies);
  }
  for (const auto& [topo, placement] : placements) {
    AssignmentRecord record;
    record.version = version;
    const auto tasks = cluster_.tasks_of(topo);
    for (sched::TaskId t : tasks) record.placement.emplace(t, placement.at(t));
    cluster_.trace_log().record({cluster_.sim().now(),
                                 trace::EventKind::kScheduleApplied, topo,
                                 -1, -1, version, {}});
    cluster_.coordination().publish(topo, std::move(record));
  }
  return true;
}

const AssignmentRecord* Nimbus::assignment(sched::TopologyId topo) const {
  return cluster_.coordination().get(topo);
}

// ------------------------------------------------------- Failure detection

void Nimbus::start_failure_detector() {
  const auto nodes = static_cast<std::size_t>(cluster_.num_nodes());
  if (believed_alive_.size() != nodes) believed_alive_.assign(nodes, 1);
  if (monitor_task_ == nullptr) {
    monitor_task_ = std::make_unique<sim::PeriodicTask>(
        cluster_.sim(), cluster_.config().monitor_period,
        [this] { check_heartbeats(); });
  }
  if (!monitor_task_->running()) {
    monitor_task_->start(cluster_.config().monitor_period);
  }
}

bool Nimbus::node_believed_alive(sched::NodeId node) const {
  const auto i = static_cast<std::size_t>(node);
  // All-alive until the detector has been started: with no heartbeat
  // monitoring, Nimbus has no evidence against any node.
  if (i >= believed_alive_.size()) return true;
  return believed_alive_[i] != 0;
}

std::vector<sched::NodeId> Nimbus::nodes_believed_dead() const {
  std::vector<sched::NodeId> out;
  for (std::size_t i = 0; i < believed_alive_.size(); ++i) {
    if (believed_alive_[i] == 0) out.push_back(static_cast<sched::NodeId>(i));
  }
  return out;
}

void Nimbus::set_recovery_algorithm(sched::ISchedulingAlgorithm* algorithm) {
  recovery_ = algorithm;
}

void Nimbus::check_heartbeats() {
  const ClusterConfig& cfg = cluster_.config();
  const auto nodes = static_cast<std::size_t>(cluster_.num_nodes());
  if (believed_alive_.size() != nodes) believed_alive_.assign(nodes, 1);
  const sim::Time now = cluster_.sim().now();

  for (std::size_t i = 0; i < nodes; ++i) {
    const auto node = static_cast<sched::NodeId>(i);
    // A node that never heartbeated is treated as "last beat at t=0": it
    // gets one full timeout of startup grace, then counts as dead.
    const sim::Time last =
        cluster_.coordination().last_heartbeat(node).value_or(0.0);
    const bool fresh = now - last <= cfg.node_timeout;
    if (believed_alive_[i] != 0 && !fresh) {
      believed_alive_[i] = 0;
      cluster_.trace_log().record(
          {now, trace::EventKind::kNodeDeclaredDead, -1, node, -1, 0,
           "last heartbeat t=" + std::to_string(last)});
    } else if (believed_alive_[i] == 0 && fresh) {
      believed_alive_[i] = 1;
      cluster_.trace_log().record(
          {now, trace::EventKind::kNodeDeclaredAlive, -1, node, -1, 0, {}});
    }
  }
  reschedule_stranded_topologies();
}

void Nimbus::reschedule_stranded_topologies() {
  // Topologies whose current placement touches a believed-dead node. The
  // rebalance below publishes into the coordination map, so collect ids
  // first instead of mutating while iterating.
  std::vector<sched::TopologyId> stranded;
  for (const auto& [topo, record] : cluster_.coordination().all()) {
    for (const auto& [task, slot] : record.placement) {
      if (!node_believed_alive(cluster_.slot_node(slot))) {
        stranded.push_back(topo);
        break;
      }
    }
  }
  for (sched::TopologyId topo : stranded) {
    sched::ISchedulingAlgorithm& algo =
        recovery_ != nullptr ? *recovery_ : default_recovery_;
    // May fail when the surviving slots cannot host the topology; the next
    // sweep retries, so capacity returning (node declared alive) heals it.
    rebalance(topo, algo, 0, obs::DecisionTrigger::kRecovery);
  }
}

}  // namespace tstorm::runtime
