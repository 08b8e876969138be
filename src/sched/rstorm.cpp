#include "sched/rstorm.h"

#include <algorithm>
#include <cmath>

#include "sched/greedy.h"
#include "sched/index.h"

namespace tstorm::sched {
namespace {

/// Term weights of the squared distance. Network distance dominates:
/// R-Storm's ordering is network proximity first, then resource fit (the
/// paper's theta_1 >> theta_2, theta_3).
constexpr double kNetworkDistanceWeight = 10.0;
constexpr double kCpuWeight = 1.0;
constexpr double kBandwidthWeight = 1.0;

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
  const auto visit = [&](int t) {
    if (seen[t] != 0) return;
    seen[t] = 1;
    order.push_back(t);
  };
  for (auto& tasks : members) {
    std::sort(tasks.begin(), tasks.end(), by_task);
    // `order` past `head` is the FIFO frontier.
    std::size_t head = order.size();
    for (int t : tasks) {
      if (in_degree[t] == 0) visit(t);
    }
    for (; head < order.size(); ++head) {
      for (int next : out[order[head]]) visit(next);
    }
    for (int t : tasks) visit(t);  // cycles / isolated tasks
  }
  return order;
}

/// R-Storm's squared distance of executor e from node n. Network distance
/// dominates (co-locate with the chatty neighbour whenever the node fits);
/// the resource terms score the node's utilization *after* placement, so
/// among feasible nodes the one left with the most headroom wins. The
/// original R-Storm distance is a best-fit (smallest leftover gap), which
/// is sound for the paper's user-declared demands but crams measured,
/// EWMA-lagged demands onto the weakest node of a heterogeneous fleet;
/// production resource-aware schedulers order candidates by available
/// headroom for the same reason. Terms are normalized by capacity so
/// "almost full" means the same on a big and a small node; an
/// unconstrained (infinite or zero-capacity) dimension contributes nothing.
struct Distance {
  const SchedulerIndex& ix;
  int ref_node = -1;

  /// Finds the reference node: where the heaviest-traffic already-placed
  /// neighbour lives (R-Storm measures network distance from there).
  void begin(int e) {
    ref_node = -1;
    double ref_rate = -1;
    for (const auto& [peer, rate] : ix.adj(e)) {
      const int pn = ix.exec_node[peer];
      if (pn < 0) continue;
      if (rate > ref_rate || (rate == ref_rate && pn < ref_node)) {
        ref_rate = rate;
        ref_node = pn;
      }
    }
  }

  [[nodiscard]] double score(int e, int n) const {
    const ResourceVector& used = ix.used[n];
    const ResourceVector& cap = ix.capacity[n];
    const auto fit_term = [&](std::size_t d) {
      if (!(cap[d] > 0) || std::isinf(cap[d])) return 0.0;
      const double util = (used[d] + ix.demand[e][d]) / cap[d];
      return util * util;
    };
    double dist = kNetworkDistanceWeight *
                  (ref_node >= 0 && n != ref_node ? 1.0 : 0.0);
    dist += kCpuWeight * fit_term(kCpuMhz);
    dist += kBandwidthWeight * fit_term(kNetworkMbps);
    return dist;
  }

  /// Ties go to the first node visited, the lowest id.
  bool prefers(int, int, int, int, const Rung&) const { return false; }
};

/// Memory is R-Storm's only hard resource constraint: all constraints, then
/// the soft ones (CPU, bandwidth) dropped, then memory too.
constexpr Rung kLadder[] = {
    {false, kFitAll}, {false, 1u << kMemoryMib}, {false, 0}};

}  // namespace

ScheduleResult RStormScheduler::schedule(const SchedulerInput& in) {
  if (in.executors.empty()) return {};

  SchedulerIndex ix(in, in.queue_pressure_weight);
  // Traffic adjacency (for the reference node); falls back to topology
  // edges with unit weight when no traffic has been measured yet.
  if (!ix.has_adjacency()) ix.use_topology_edges(in);

  Distance distance{ix};
  return place_greedily(ix, in, bfs_order(ix, in), kLadder, distance);
}

}  // namespace tstorm::sched
