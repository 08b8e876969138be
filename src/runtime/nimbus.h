// Nimbus: the master daemon. Owns topology submission (initial assignment
// via a pluggable algorithm), accepts assignments pushed by T-Storm's
// custom scheduler, publishes everything to the coordination store for
// supervisors to pick up, and — when failure detection is enabled — runs
// the heartbeat monitor that declares nodes dead/alive and reschedules
// around dead machines (Storm's nimbus.task.timeout.secs reassignment).
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/provenance.h"
#include "runtime/coordination.h"
#include "sched/round_robin.h"
#include "sched/scheduler.h"
#include "sim/simulation.h"

namespace tstorm::runtime {

class Cluster;

class Nimbus {
 public:
  explicit Nimbus(Cluster& cluster);

  /// Computes and publishes the initial placement for a newly submitted
  /// topology using `algorithm` (Storm: round-robin; T-Storm: the modified
  /// default, section IV-C). Throws std::runtime_error if the algorithm
  /// leaves executors unplaced.
  void schedule_initial(sched::TopologyId topo,
                        sched::ISchedulingAlgorithm& algorithm);

  /// Applies one topology's externally computed placement: the
  /// single-topology case of apply_placements.
  bool apply_placement(sched::TopologyId topo,
                       const sched::Placement& placement,
                       sched::AssignmentVersion version,
                       obs::DecisionTrigger trigger =
                           obs::DecisionTrigger::kManual);

  /// Applies a consistent multi-topology schedule atomically (the T-Storm
  /// custom scheduler path: the generator reassigns all topologies in one
  /// run). Each placement must cover its topology's tasks with in-range
  /// slots; placements are validated against each other and against
  /// assigned topologies not present in the map, and a version not newer
  /// than a topology's current one is stale. All-or-nothing: returns false
  /// and changes nothing on any violation. Every call records a
  /// DecisionRecord (`trigger` says why it ran) — unless the version was
  /// already recorded by the schedule generator.
  bool apply_placements(
      const std::map<sched::TopologyId, sched::Placement>& placements,
      sched::AssignmentVersion version,
      obs::DecisionTrigger trigger = obs::DecisionTrigger::kManual);

  /// Storm's `rebalance` command: re-runs the initial scheduling algorithm
  /// for one topology, optionally overriding the requested worker count Nu
  /// (pass 0 to keep the topology's own value). The new assignment rolls
  /// out through the normal supervisor path.
  bool rebalance(sched::TopologyId topo,
                 sched::ISchedulingAlgorithm& algorithm,
                 int num_workers_override = 0,
                 obs::DecisionTrigger trigger =
                     obs::DecisionTrigger::kManual);

  /// Current assignment, nullptr if never scheduled.
  [[nodiscard]] const AssignmentRecord* assignment(
      sched::TopologyId topo) const;

  /// Monotone assignment version stamped from simulated time
  /// (milliseconds), the "timestamp of an assignment [used] as its ID".
  sched::AssignmentVersion next_version();

  /// --- Failure detection (the self-healing loop). ---

  /// Starts the periodic heartbeat monitor. Called by Cluster's
  /// constructor when config.failure_detection is set; idempotent.
  void start_failure_detector();

  [[nodiscard]] bool failure_detector_running() const {
    return monitor_task_ != nullptr && monitor_task_->running();
  }

  /// Nimbus's liveness view of a node. Always true while the detector is
  /// off (Nimbus has no evidence against any node). The view is belief,
  /// not ground truth: lost heartbeats can make a healthy node "dead"
  /// until its beats resume.
  [[nodiscard]] bool node_believed_alive(sched::NodeId node) const;

  /// Nodes currently believed dead (sorted). Empty while the detector is
  /// off.
  [[nodiscard]] std::vector<sched::NodeId> nodes_believed_dead() const;

  /// Algorithm used to recompute placements for topologies stranded on a
  /// dead node. Defaults to round-robin over the surviving slots. The
  /// pointee must outlive the cluster; pass nullptr to restore the default.
  void set_recovery_algorithm(sched::ISchedulingAlgorithm* algorithm);

  /// One detector sweep: reads heartbeats, flips node beliefs (tracing
  /// kNodeDeclaredDead / kNodeDeclaredAlive), and reschedules every
  /// topology whose placement touches a believed-dead node. Runs
  /// periodically once start_failure_detector() is called; exposed so
  /// tests can force a sweep.
  void check_heartbeats();

 private:
  void reschedule_stranded_topologies();
  /// Shorthand for Nimbus-side provenance (no metrics-db context).
  void record_decision(obs::DecisionTrigger trigger,
                       obs::DecisionOutcome outcome,
                       const std::string& algorithm, int executors,
                       sched::AssignmentVersion version, std::string reason);

  Cluster& cluster_;
  sched::AssignmentVersion last_version_ = 0;

  /// believed_alive_[n] — detector belief, all-true at startup.
  std::vector<char> believed_alive_;
  std::unique_ptr<sim::PeriodicTask> monitor_task_;
  sched::RoundRobinScheduler default_recovery_;
  sched::ISchedulingAlgorithm* recovery_ = nullptr;
};

}  // namespace tstorm::runtime
