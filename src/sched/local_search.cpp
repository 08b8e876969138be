#include "sched/local_search.h"

#include <algorithm>
#include <initializer_list>
#include <vector>

#include "sched/greedy.h"
#include "sched/index.h"
#include "sched/traffic_aware.h"

namespace tstorm::sched {
namespace {

/// Maximum full improvement passes over all executors.
constexpr int kMaxPasses = 8;
/// Stop when a full pass improves traffic by less than this fraction.
constexpr double kMinGain = 1e-3;
/// Every move keeps Algorithm 1's constraints (1)-(3).
constexpr Rung kAllConstraints{true, kFitAll};

}  // namespace

ScheduleResult LocalSearchScheduler::schedule(const SchedulerInput& in) {
  SchedulerIndex ix(in, in.queue_pressure_weight);
  // Seed with Algorithm 1.
  ScheduleResult result = place_algorithm1(ix, in);
  if (result.assignment.size() != in.executors.size()) return result;

  // Node loads are summed in the seed result's iteration order: a capacity
  // check at a node's exact limit can depend on the order of the sum, and
  // the recorded placements (placement_golden_test) use this one. `seeded`
  // keeps the order for writing the result back.
  ix.reset();
  std::vector<int> seeded;
  seeded.reserve(result.assignment.size());
  for (const auto& [task, slot] : result.assignment) {
    seeded.push_back(ix.exec_of.at(task));
    ix.place(seeded.back(), ix.slot_of.at(slot));
  }

  const int ne = ix.executors();
  const int nodes = static_cast<int>(ix.node_id.size());
  // w[e * nodes + n]: traffic between executor e and the executors on node
  // n, e itself excluded. A cell is always a fresh sum along e's adjacency
  // list, never an increment, so it is bit-equal to summing the input.
  std::vector<double> w(static_cast<std::size_t>(ne) * nodes, 0.0);
  for (int e = 0; e < ne; ++e) {
    for (const auto& [peer, rate] : ix.adj(e)) {
      if (peer != e) w[e * nodes + ix.exec_node[peer]] += rate;
    }
  }
  // After executors moved between nodes a and b, only the a and b cells of
  // their neighbours' rows change.
  std::vector<int> stamp(ne, -1);
  int round = 0;
  const auto refresh_neighbours = [&](std::initializer_list<int> moved, int a,
                                      int b) {
    ++round;
    for (int m : moved) {
      for (const auto& [y, unused] : ix.adj(m)) {
        if (stamp[y] == round) continue;
        stamp[y] = round;
        double wa = 0;
        double wb = 0;
        for (const auto& [peer, rate] : ix.adj(y)) {
          if (peer == y) continue;
          const int n = ix.exec_node[peer];
          if (n == a) {
            wa += rate;
          } else if (n == b) {
            wb += rate;
          }
        }
        w[y * nodes + a] = wa;
        w[y * nodes + b] = wb;
      }
    }
  };
  // Executors of each topology in input order, for the swap pass.
  std::vector<std::vector<int>> same_topology(ix.topologies);
  std::vector<int> rank(ne);
  for (int e = 0; e < ne; ++e) {
    rank[e] = static_cast<int>(same_topology[ix.topo[e]].size());
    same_topology[ix.topo[e]].push_back(e);
  }

  const int count_limit = ix.count_limit(in);
  for (int pass = 0; pass < kMaxPasses; ++pass) {
    double pass_gain = 0;
    for (int e = 0; e < ne; ++e) {
      const int cur = ix.exec_node[e];
      const double* we = &w[e * nodes];
      const double cur_local = we[cur];

      // Find the best alternative node; the first one visited wins ties.
      int best_node = -1;
      int best_slot = -1;
      double best_gain = 0;
      for (int n = 0; n < nodes; ++n) {
        if (n == cur) continue;
        const double gain = we[n] - cur_local;
        if (!(gain > best_gain + 1e-12)) continue;
        const int target = ix.eligible_slot(n, ix.topo[e]);
        if (target < 0 || !admits(ix, kAllConstraints, count_limit, e, n)) {
          continue;
        }
        best_gain = gain;
        best_node = n;
        best_slot = target;
      }
      if (best_node >= 0) {
        // Removing e may free its old slot but cannot take the chosen one.
        ix.remove(e);
        ix.place(e, best_slot);
        pass_gain += best_gain;
        refresh_neighbours({e}, cur, best_node);
      }
    }

    // Swap pass: when nodes sit at the count limit, single moves are
    // infeasible but exchanging two same-topology executors is not.
    for (int e = 0; e < ne; ++e) {
      const auto& peers = same_topology[ix.topo[e]];
      for (std::size_t k = rank[e] + 1; k < peers.size(); ++k) {
        const int f = peers[k];
        const int se = ix.exec_slot[e];
        const int sf = ix.exec_slot[f];
        const int na = ix.slot_node[se];
        const int nb = ix.slot_node[sf];
        if (na == nb) continue;
        const double* we = &w[e * nodes];
        const double* wf = &w[f * nodes];
        // The direct traffic r_ef between the pair stays inter-node either
        // way and only lowers the gain, so it is summed only when the
        // gain without it clears the threshold.
        const double pre_gain = we[nb] + wf[na] - we[na] - wf[nb];
        if (pre_gain <= 1e-9) continue;
        double r_ef = 0;
        for (const auto& [peer, rate] : ix.adj(e)) {
          if (peer == f) r_ef += rate;
        }
        const double gain = pre_gain - 2.0 * r_ef;
        if (gain <= 1e-9) continue;
        // Capacity after the exchange (counts are unchanged).
        const auto swap_fits = [&](int n, int out, int inc) {
          ResourceVector used = ix.used[n];
          for (std::size_t d = 0; d < kResourceDims; ++d) {
            used[d] -= ix.demand[out][d];
          }
          return resource_fits(used, ix.demand[inc], ix.capacity[n]);
        };
        if (!swap_fits(na, e, f) || !swap_fits(nb, f, e)) continue;
        ix.remove(e);
        ix.remove(f);
        ix.place(e, sf);
        ix.place(f, se);
        pass_gain += gain;
        refresh_neighbours({e, f}, na, nb);
      }
    }

    double total = 0;  // internode_traffic() of the current placement
    for (const auto& edge : ix.edges) {
      if (ix.exec_node[edge.src] != ix.exec_node[edge.dst]) total += edge.rate;
    }
    if (pass_gain <= kMinGain * std::max(1.0, total)) break;
  }

  auto next = seeded.begin();
  for (auto& [task, slot] : result.assignment) {
    slot = ix.slot_id[ix.exec_slot[*next++]];
  }
  return result;
}

}  // namespace tstorm::sched
