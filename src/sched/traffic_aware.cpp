#include "sched/traffic_aware.h"

#include <algorithm>
#include <numeric>

#include "sched/greedy.h"
#include "sched/index.h"

namespace tstorm::sched {
namespace {

/// Line 5's score: the inter-node traffic that placing executor e on node n
/// adds, its traffic to placed executors minus its traffic to those on n.
struct IncrementalTraffic {
  const SchedulerIndex& ix;
  std::vector<double> on_node;  // e's traffic to the executors on a node
  double placed = 0;            // e's traffic to every placed executor

  void begin(int e) {
    std::fill(on_node.begin(), on_node.end(), 0.0);
    placed = 0;
    for (const auto& [peer, rate] : ix.adj(e)) {
      const int node = ix.exec_node[peer];
      if (node < 0) continue;
      on_node[node] += rate;
      placed += rate;
    }
  }

  [[nodiscard]] double score(int, int n) const { return placed - on_node[n]; }

  // Ties go to the fuller node (consolidation: this is what lets a large
  // gamma pack a light topology onto few nodes, Fig. 5(c)), then to the
  // lower slot id; on the capacity-relaxed rung to the node with less CPU
  // load. Like the paper's Algorithm 1, ties are resolved greedily, which
  // is not optimal for partitioning disjoint chains (see
  // ChainPartitioningIsGreedy test).
  [[nodiscard]] bool prefers(int n, int s, int best_n, int best_s,
                             const Rung& rung) const {
    if (rung.fit == 0) return ix.used[n][kCpuMhz] < ix.used[best_n][kCpuMhz];
    return ix.count[n] > ix.count[best_n] ||
           (ix.count[n] == ix.count[best_n] &&
            ix.slot_id[s] < ix.slot_id[best_s]);
  }
};

/// All three constraints, then the count limit dropped, then capacity too.
constexpr Rung kLadder[] = {{true, kFitAll}, {false, kFitAll}, {false, 0}};

}  // namespace

ScheduleResult place_algorithm1(SchedulerIndex& ix, const SchedulerInput& in) {
  // --- Line 2: sort executors by descending total (incoming + outgoing)
  // traffic. ---
  const int ne = ix.executors();
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

  // --- Lines 3-7: greedy assignment. ---
  IncrementalTraffic score{ix, std::vector<double>(ix.node_id.size())};
  return place_greedily(ix, in, order, kLadder, score);
}

ScheduleResult TrafficAwareScheduler::schedule(const SchedulerInput& in) {
  if (in.executors.empty()) return {};
  SchedulerIndex index(in, in.queue_pressure_weight);
  return place_algorithm1(index, in);
}

}  // namespace tstorm::sched
