#include "sched/traffic_aware.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "sched/index.h"

namespace tstorm::sched {

ScheduleResult TrafficAwareScheduler::schedule(const SchedulerInput& in) {
  if (in.executors.empty()) return {};
  // Effective capacity footprint: CPU load plus optional queue pressure
  // (weight 0 == the paper's Algorithm 1, CPU only). The option overrides
  // the input-level weight when set explicitly.
  const double qw = options_.queue_pressure_weight != 0.0
                        ? options_.queue_pressure_weight
                        : in.queue_pressure_weight;
  SchedulerIndex index(in, qw);
  return place(index, in);
}

ScheduleResult TrafficAwareScheduler::place(SchedulerIndex& ix,
                                            const SchedulerInput& in) const {
  ScheduleResult result;
  const int ne = ix.executors();

  // --- Line 2: sort executors by descending total (incoming + outgoing)
  // traffic. ---
  std::vector<double> total_traffic(ne, 0.0);
  for (int e = 0; e < ne; ++e) {
    for (const auto& [peer, rate] : ix.adj(e)) total_traffic[e] += rate;
  }
  std::vector<int> order(ne);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const double ta = total_traffic[a];
    const double tb = total_traffic[b];
    if (ta != tb) return ta > tb;
    // Deterministic tie-break.
    return in.executors[a].task < in.executors[b].task;
  });

  const int count_limit = ix.count_limit(in);
  const int num_slots = static_cast<int>(ix.slot_id.size());
  // Traffic from the executor being placed to placed executors, per node.
  std::vector<double> traffic_on_node(ix.node_id.size(), 0.0);

  // --- Line 3-7: greedy assignment. ---
  for (int e : order) {
    double assigned_traffic = 0;
    for (const auto& [peer, rate] : ix.adj(e)) {
      const int node = ix.exec_node[peer];
      if (node < 0) continue;
      traffic_on_node[node] += rate;
      assigned_traffic += rate;
    }
    const ResourceVector& demand = ix.demand[e];
    const int topo = ix.topo[e];

    // Three passes: full constraints, then count relaxed, then capacity
    // relaxed. Constraint (1) always holds.
    int best = -1;
    for (int pass = 0; pass < (options_.allow_relaxation ? 3 : 1); ++pass) {
      const bool enforce_count = pass == 0;
      const bool enforce_capacity = pass <= 1;
      double best_cost = std::numeric_limits<double>::infinity();
      double best_load = std::numeric_limits<double>::infinity();
      int best_count = -1;

      for (int s = 0; s < num_slots; ++s) {
        if (ix.blocked[s] != 0) continue;
        const int k = ix.slot_node[s];

        // Constraint (1): if the topology already has a slot on this node,
        // only that slot is eligible; and a slot owned by another topology
        // is never eligible.
        const int lock = ix.lock(k, topo);
        if (lock >= 0 && lock != s) continue;
        if (ix.slot_owner[s] != -1 && ix.slot_owner[s] != topo) continue;

        if (enforce_capacity &&
            !resource_fits(ix.used[k], demand, ix.capacity[k])) {
          continue;
        }
        if (enforce_count && ix.count[k] + 1 > count_limit) continue;

        // Line 5: incremental inter-node traffic of placing e on node k.
        const double cost = assigned_traffic - traffic_on_node[k];

        // Tie-breaks: prefer fuller nodes (consolidation — this is what
        // lets a large gamma pack a light topology onto few nodes, Fig.
        // 5(c)), then lower CPU load in the capacity-relaxed pass, then
        // lower slot index (determinism). Like the paper's Algorithm 1,
        // ties are resolved greedily, which is not optimal for
        // partitioning disjoint chains (see ChainPartitioningIsGreedy
        // test).
        bool better = false;
        if (cost < best_cost - 1e-12) {
          better = true;
        } else if (cost < best_cost + 1e-12) {
          if (!enforce_capacity) {
            better = ix.used[k][kCpuMhz] < best_load;
          } else {
            better = ix.count[k] > best_count ||
                     (ix.count[k] == best_count &&
                      ix.slot_id[s] < ix.slot_id[best]);
          }
        }
        if (better) {
          best = s;
          best_cost = cost;
          best_load = ix.used[k][kCpuMhz];
          best_count = ix.count[k];
        }
      }

      if (best >= 0) {
        if (pass >= 1) result.count_relaxed = true;
        if (pass >= 2) result.capacity_relaxed = true;
        break;
      }
    }

    for (const auto& [peer, rate] : ix.adj(e)) {
      const int node = ix.exec_node[peer];
      if (node >= 0) traffic_on_node[node] = 0;
    }

    // No slot at all (every slot owned by other topologies): leave the
    // executor unassigned; callers treat a partial placement as failure.
    // Otherwise line 6: commit x_{i j*} = 1.
    if (best >= 0) ix.place(e, best);
  }

  for (int e : order) {
    const int slot = ix.exec_slot[e];
    if (slot < 0) continue;
    result.assignment[in.executors[e].task] = ix.slot_id[slot];
  }
  return result;
}

}  // namespace tstorm::sched
