#include "sched/rstorm.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "sched/index.h"

namespace tstorm::sched {
namespace {

/// Breadth-first executor order, topology by topology in ascending id,
/// spouts first — R-Storm walks the topology DAG so each task is placed
/// right after its upstream neighbours, letting the network-distance term
/// pull it next to them. Deterministic: roots and adjacency are visited in
/// ascending task id; tasks unreachable from any root are appended in
/// ascending id.
std::vector<int> bfs_order(const SchedulerIndex& ix,
                           const SchedulerInput& in) {
  const int ne = ix.executors();
  const auto by_task = [&](int a, int b) {
    return in.executors[a].task < in.executors[b].task;
  };
  std::vector<std::vector<int>> out(ne);
  std::vector<int> in_degree(ne, 0);
  for (const auto& [src, dst] : in.topology_edges) {
    const auto a = ix.exec_of.find(src);
    const auto b = ix.exec_of.find(dst);
    if (a == ix.exec_of.end() || b == ix.exec_of.end()) continue;
    if (ix.topo[a->second] != ix.topo[b->second]) continue;
    out[a->second].push_back(b->second);
    in_degree[b->second] += 1;
  }
  for (auto& v : out) std::sort(v.begin(), v.end(), by_task);
  std::vector<std::vector<int>> members(ix.topologies);
  for (int e = 0; e < ne; ++e) members[ix.topo[e]].push_back(e);

  std::vector<int> order;
  order.reserve(ne);
  std::vector<char> seen(ne, 0);
  for (auto& tasks : members) {
    std::sort(tasks.begin(), tasks.end(), by_task);
    // `order` past `head` is the FIFO frontier.
    std::size_t head = order.size();
    for (int t : tasks) {
      if (in_degree[t] == 0 && seen[t] == 0) {
        seen[t] = 1;
        order.push_back(t);
      }
    }
    for (; head < order.size(); ++head) {
      for (int next : out[order[head]]) {
        if (seen[next] == 0) {
          seen[next] = 1;
          order.push_back(next);
        }
      }
    }
    for (int t : tasks) {  // cycles / isolated tasks
      if (seen[t] == 0) {
        seen[t] = 1;
        order.push_back(t);
      }
    }
  }
  return order;
}

}  // namespace

ScheduleResult RStormScheduler::schedule(const SchedulerInput& in) {
  ScheduleResult result;
  if (in.executors.empty()) return result;

  SchedulerIndex ix(in, in.queue_pressure_weight);
  // Traffic adjacency (for the reference node); falls back to topology
  // edges with unit weight when no traffic has been measured yet.
  bool measured = false;
  for (int e = 0; e < ix.executors() && !measured; ++e) {
    measured = !ix.adj(e).empty();
  }
  if (!measured) ix.use_topology_edges(in);
  const int nodes = static_cast<int>(ix.node_id.size());

  // The slot this topology would use on node k: its locked slot if it has
  // one, else the lowest-index free slot there.
  const auto eligible_slot = [&](int k, int topo) {
    if (ix.lock(k, topo) >= 0) return ix.lock(k, topo);
    int best = -1;
    for (int s : ix.node_slots[k]) {
      if (ix.blocked[s] != 0 || ix.slot_owner[s] != -1) continue;
      if (best < 0 || ix.slot_id[s] < ix.slot_id[best]) best = s;
    }
    return best;
  };

  for (int e : bfs_order(ix, in)) {
    const ResourceVector& demand = ix.demand[e];

    // Reference node: where the heaviest-traffic already-placed
    // neighbour lives (R-Storm measures network distance from there).
    int ref_node = -1;
    double ref_rate = -1;
    for (const auto& [peer, rate] : ix.adj(e)) {
      const int pn = ix.exec_node[peer];
      if (pn < 0) continue;
      if (rate > ref_rate || (rate == ref_rate && pn < ref_node)) {
        ref_rate = rate;
        ref_node = pn;
      }
    }

    // Passes: all constraints -> soft (CPU, bandwidth) relaxed -> memory
    // relaxed too. Memory is R-Storm's only hard resource constraint.
    int best = -1;
    int best_node = -1;
    for (int pass = 0; pass < (options_.allow_relaxation ? 3 : 1); ++pass) {
      const bool enforce_soft = pass == 0;
      const bool enforce_memory = pass <= 1;
      double best_dist = std::numeric_limits<double>::infinity();

      for (int k = 0; k < nodes; ++k) {
        const int slot = eligible_slot(k, ix.topo[e]);
        if (slot < 0) continue;
        const ResourceVector& used = ix.used[k];
        const ResourceVector& cap = ix.capacity[k];

        const bool mem_ok =
            used[kMemoryMib] + demand[kMemoryMib] <= cap[kMemoryMib];
        if (enforce_memory && !mem_ok) continue;
        if (enforce_soft && !resource_fits(used, demand, cap)) continue;

        // Network distance dominates (co-locate with the chatty
        // neighbour whenever the node fits); the resource terms score
        // the node's utilization *after* placement, so among feasible
        // nodes the one left with the most headroom wins. The original
        // R-Storm distance is a best-fit (smallest leftover gap), which
        // is sound for the paper's user-declared demands but crams
        // measured, EWMA-lagged demands onto the weakest node of a
        // heterogeneous fleet; production resource-aware schedulers
        // order candidates by available headroom for the same reason.
        // Terms are normalized by capacity so "almost full" means the
        // same on a big and a small node; an unconstrained (infinite or
        // zero-capacity) dimension contributes nothing.
        double dist = options_.network_distance_weight *
                      (ref_node >= 0 && k != ref_node ? 1.0 : 0.0);
        const auto fit_term = [&](std::size_t d) {
          if (!(cap[d] > 0) || std::isinf(cap[d])) return 0.0;
          const double util = (used[d] + demand[d]) / cap[d];
          return util * util;
        };
        dist += options_.cpu_weight * fit_term(kCpuMhz);
        dist += options_.bandwidth_weight * fit_term(kNetworkMbps);

        if (dist < best_dist - 1e-12 ||
            (dist < best_dist + 1e-12 && k < best_node)) {
          best_dist = dist;
          best = slot;
          best_node = k;
        }
      }

      if (best >= 0) {
        if (pass >= 1) result.capacity_relaxed = true;
        break;
      }
    }

    if (best < 0) continue;  // out of slots entirely
    ix.place(e, best);
    result.assignment[in.executors[e].task] = ix.slot_id[best];
  }

  return result;
}

}  // namespace tstorm::sched
