#include "runtime/supervisor.h"

#include <algorithm>
#include <set>

#include "runtime/cluster.h"

namespace tstorm::runtime {

Supervisor::Supervisor(Cluster& cluster, sched::NodeId node)
    : cluster_(cluster), node_(node) {
  sync_task_ = std::make_unique<sim::PeriodicTask>(
      cluster_.sim(), cluster_.config().supervisor_sync_period,
      [this] { sync(); });
  heartbeat_task_ = std::make_unique<sim::PeriodicTask>(
      cluster_.sim(), cluster_.config().heartbeat_period,
      [this] { publish_heartbeat(); });
}

void Supervisor::start(sim::Time phase) {
  sync_task_->start(phase);
  // First heartbeat right at the sync phase: the node announces itself as
  // soon as its daemon is up, then beats every heartbeat period.
  heartbeat_task_->start(
      std::min<sim::Time>(phase, cluster_.config().heartbeat_period));
}

void Supervisor::publish_heartbeat() {
  if (!active_) return;
  // Heartbeats ride the control plane: a partition from the master or
  // control-message loss silently eats them, which is exactly how a healthy
  // node gets falsely declared dead.
  if (cluster_.network().control_lost(node_)) return;
  cluster_.coordination().heartbeat(node_, cluster_.sim().now());
}

Worker* Supervisor::worker_at(int port) {
  auto it = workers_.find(port);
  return it == workers_.end() ? nullptr : it->second.get();
}

bool Supervisor::kill_worker(int port) {
  auto it = workers_.find(port);
  if (it == workers_.end() || it->second->state() == WorkerState::kDead) {
    return false;
  }
  it->second->stop();
  return true;
}

void Supervisor::retire(std::unique_ptr<Worker> worker) {
  if (cluster_.config().smooth_reassignment &&
      worker->state() == WorkerState::kRunning) {
    worker->drain_then_stop(cluster_.config().shutdown_delay);
    draining_.push_back(std::move(worker));
  } else {
    worker->stop();
  }
}

void Supervisor::set_active(bool active) {
  if (active == active_) return;
  active_ = active;
  if (!active_) {
    // The machine died: every worker process dies with it.
    for (auto& [port, worker] : workers_) worker->stop();
    workers_.clear();
    // A node back before node_timeout sees the same assignments it last
    // synced; without this reset sync() would take its early exit forever
    // and never restart the workers that died with the machine.
    sync_fingerprint_ = 0;
    for (auto& worker : draining_) worker->stop();
    draining_.clear();
    sync_task_->stop();
    heartbeat_task_->stop();
  } else {
    sync_task_->start(cluster_.config().supervisor_sync_period);
    heartbeat_task_->start(cluster_.config().heartbeat_period);
  }
}

void Supervisor::sync() {
  if (!active_) return;
  const ClusterConfig& cfg = cluster_.config();

  // Steady-state early exit: hash the published assignments (versions and
  // placements). If nothing changed and no worker needs reaping or
  // restarting, the rebuild below would be a no-op — skip it so a quiesced
  // control plane performs no per-period work (or allocations).
  std::uint64_t fp = 0xcbf29ce484222325ULL;
  const auto mix = [&fp](std::uint64_t v) {
    fp ^= v;
    fp *= 0x100000001b3ULL;
  };
  for (const auto& [topo, record] : cluster_.coordination().all()) {
    mix(static_cast<std::uint64_t>(topo));
    mix(record.version);
    for (const auto& [task, slot] : record.placement) {
      mix(static_cast<std::uint64_t>(task));
      mix(static_cast<std::uint64_t>(slot));
    }
  }
  bool quiet = draining_.empty();
  for (const auto& [port, w] : workers_) {
    if (w->state() == WorkerState::kDead) quiet = false;
  }
  if (quiet && fp == sync_fingerprint_) return;
  sync_fingerprint_ = fp;

  // Reap drained workers.
  std::erase_if(draining_, [](const std::unique_ptr<Worker>& w) {
    return w->state() == WorkerState::kDead;
  });

  // Desired worker per port, from the published assignments.
  struct Desired {
    sched::TopologyId topo = -1;
    sched::AssignmentVersion version = 0;
    std::vector<sched::TaskId> tasks;
  };
  std::map<int, Desired> desired;
  for (const auto& [topo, record] : cluster_.coordination().all()) {
    for (const auto& [task, slot] : record.placement) {
      if (cluster_.slot_node(slot) != node_) continue;
      const int port = cluster_.slot_port(slot);
      Desired& d = desired[port];
      if (d.tasks.empty()) {
        d.topo = topo;
        d.version = record.version;
      }
      if (d.topo == topo) d.tasks.push_back(task);
    }
  }
  for (auto& [port, d] : desired) std::sort(d.tasks.begin(), d.tasks.end());

  std::set<sched::TopologyId> reassigned;

  for (int port = 0; port < cluster_.slots_on_node(node_); ++port) {
    auto wit = workers_.find(port);
    Worker* cur = wit != workers_.end() ? wit->second.get() : nullptr;
    if (cur != nullptr && cur->state() == WorkerState::kDead) {
      // Crashed (or externally killed): treat as missing so it is
      // restarted below — Storm's supervisor restart path.
      workers_.erase(wit);
      wit = workers_.end();
      cur = nullptr;
    }

    auto dit = desired.find(port);
    if (dit == desired.end()) {
      if (cur != nullptr) {
        reassigned.insert(cur->topology());
        retire(std::move(wit->second));
        workers_.erase(wit);
      }
      continue;
    }
    const Desired& d = dit->second;

    if (cur != nullptr && cur->topology() == d.topo &&
        cur->tasks() == d.tasks) {
      // Same worker under a newer assignment: adopt the new version (the
      // "re-register with the dispatcher" step).
      if (cur->version() != d.version) cur->update_version(d.version);
      continue;
    }

    if (cur != nullptr) {
      reassigned.insert(d.topo);
      reassigned.insert(cur->topology());
      retire(std::move(wit->second));
      workers_.erase(wit);
    }

    auto w = std::make_unique<Worker>(
        cluster_, d.topo, cluster_.slot_index(node_, port), d.version,
        d.tasks);
    w->start(cfg.worker_start_delay,
             cfg.smooth_reassignment ? cfg.spout_halt_delay : 0.0);
    workers_[port] = std::move(w);
  }

  // T-Storm smoothing: halt the affected topologies' live spouts until the
  // replacement workers (and their bolts) are up.
  if (cfg.smooth_reassignment) {
    const sim::Time until = cluster_.sim().now() + cfg.worker_start_delay +
                            cfg.spout_halt_delay;
    for (sched::TopologyId topo : reassigned) {
      cluster_.pause_spouts(topo, until);
    }
  }
}

}  // namespace tstorm::runtime
