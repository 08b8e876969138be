#include "sched/round_robin.h"

#include <algorithm>
#include <map>
#include <unordered_set>

#include "sched/index.h"

namespace tstorm::sched {
namespace {

/// Free slots interleaved across nodes: (port 0, node 0), (port 0, node 1),
/// ..., (port 1, node 0), ... — Storm's slot ordering.
std::vector<SlotSpec> interleaved_free_slots(const SchedulerInput& in) {
  const std::unordered_set<SlotIndex> occupied(in.occupied_slots.begin(),
                                               in.occupied_slots.end());
  std::vector<SlotSpec> slots;
  for (const auto& s : in.slots) {
    if (!occupied.contains(s.slot)) slots.push_back(s);
  }
  std::sort(slots.begin(), slots.end(),
            [](const SlotSpec& a, const SlotSpec& b) {
              if (a.port != b.port) return a.port < b.port;
              return a.node < b.node;
            });
  return slots;
}

/// Executors grouped by topology, preserving input (task) order. With
/// queue pressure enabled, each group is dealt heaviest-effective-load
/// first so backlogged executors land on distinct workers before the deal
/// wraps around (weight 0 keeps the historical input order exactly).
std::map<TopologyId, std::vector<const ExecutorSpec*>> by_topology(
    const SchedulerInput& in) {
  std::map<TopologyId, std::vector<const ExecutorSpec*>> groups;
  for (const auto& e : in.executors) groups[e.topology].push_back(&e);
  const double qw = in.queue_pressure_weight;
  if (qw > 0) {
    for (auto& [topo, execs] : groups) {
      std::stable_sort(execs.begin(), execs.end(),
                       [qw](const ExecutorSpec* a, const ExecutorSpec* b) {
                         return a->effective_load(qw) > b->effective_load(qw);
                       });
    }
  }
  return groups;
}

}  // namespace

ScheduleResult RoundRobinScheduler::schedule(const SchedulerInput& in) {
  ScheduleResult result;
  auto slots = interleaved_free_slots(in);
  std::size_t next_slot = 0;

  for (auto& [topo, execs] : by_topology(in)) {
    const int nu = std::max(1, requested_workers(in, topo));
    // Claim min(Nu, free) slots for this topology's workers.
    std::vector<SlotIndex> workers;
    while (static_cast<int>(workers.size()) < nu && next_slot < slots.size()) {
      workers.push_back(slots[next_slot++].slot);
    }
    if (workers.empty()) continue;  // cluster out of slots
    // Deal executors round-robin into the workers.
    for (std::size_t i = 0; i < execs.size(); ++i) {
      result.assignment[execs[i]->task] = workers[i % workers.size()];
    }
  }
  audit_capacity(in, result);  // capacity-blind: flag overcommit post hoc
  return result;
}

ScheduleResult TStormInitialScheduler::schedule(const SchedulerInput& in) {
  ScheduleResult result;
  SchedulerIndex ix(in, in.queue_pressure_weight);
  const int nodes = static_cast<int>(ix.node_id.size());

  for (auto& [topo, execs] : by_topology(in)) {
    // One worker on each of the first min(Nu, Nw) nodes with a free slot.
    const int t = ix.topo[ix.exec_of.at(execs.front()->task)];
    const int nu = std::max(1, requested_workers(in, topo));
    std::vector<SlotIndex> workers;
    for (int n = 0; n < nodes && std::ssize(workers) < nu; ++n) {
      const int s = ix.eligible_slot(n, t);
      if (s < 0) continue;
      ix.blocked[s] = 1;  // not reusable by the next topology
      workers.push_back(ix.slot_id[s]);
    }
    if (workers.empty()) continue;
    for (std::size_t i = 0; i < execs.size(); ++i) {
      result.assignment[execs[i]->task] = workers[i % workers.size()];
    }
  }
  audit_capacity(in, result);  // capacity-blind: flag overcommit post hoc
  return result;
}

}  // namespace tstorm::sched
