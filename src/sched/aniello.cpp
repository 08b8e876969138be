#include "sched/aniello.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "sched/index.h"

namespace tstorm::sched {
namespace {

using Edge = SchedulerIndex::Edge;

/// Phase 1 of both DEBS'13 schedulers: partition one topology's executors
/// into `n_workers` groups, greedily co-locating the heaviest edges first,
/// subject to a per-group size cap of ceil(Ne / n_workers). Appends the
/// non-empty groups to `out`; `group_of` is -1 for the topology's executors
/// on entry and their group in `out` on return.
void partition_executors(const SchedulerInput& in,
                         const std::vector<int>& execs,
                         std::vector<Edge>& edges, int n_workers,
                         std::vector<int>& group_of,
                         std::vector<std::vector<int>>& out) {
  std::vector<std::vector<int>> groups(std::max(1, n_workers));
  const int cap = static_cast<int>(
      std::ceil(static_cast<double>(execs.size()) / groups.size()));

  const auto task = [&](int e) { return in.executors[e].task; };
  std::sort(edges.begin(), edges.end(), [&](const Edge& x, const Edge& y) {
    if (x.rate != y.rate) return x.rate > y.rate;
    if (task(x.src) != task(y.src)) return task(x.src) < task(y.src);
    return task(x.dst) < task(y.dst);
  });

  const auto least_loaded = [&] {
    int best = 0;
    for (int g = 1; g < std::ssize(groups); ++g) {
      if (groups[g].size() < groups[best].size()) best = g;
    }
    return best;
  };
  const auto place = [&](int e, int g) {
    groups[g].push_back(e);
    group_of[e] = g;
  };

  for (const Edge& edge : edges) {
    const bool ha = group_of[edge.src] >= 0;
    const bool hb = group_of[edge.dst] >= 0;
    if (ha && hb) continue;
    if (!ha && !hb) {
      // Both into the least loaded group when the pair fits there.
      const bool pair_fits = std::ssize(groups[least_loaded()]) + 2 <= cap;
      place(edge.src, least_loaded());
      place(edge.dst, pair_fits ? group_of[edge.src] : least_loaded());
      continue;
    }
    const int g = group_of[ha ? edge.src : edge.dst];
    const int loose = ha ? edge.dst : edge.src;
    place(loose, std::ssize(groups[g]) < cap ? g : least_loaded());
  }
  for (int e : execs) {
    if (group_of[e] < 0) place(e, least_loaded());
  }
  for (auto& g : groups) {
    if (g.empty()) continue;
    for (int e : g) group_of[e] = static_cast<int>(out.size());
    out.push_back(std::move(g));
  }
}

/// Phase 2: place worker groups onto free slots, heaviest inter-group
/// traffic first, co-locating groups on the same node when a free slot
/// exists there. Each node hands out its free slots in ascending id, which
/// is port order for the runtime's node-major slot ids.
ScheduleResult place_groups(const SchedulerIndex& ix, const SchedulerInput& in,
                            const std::vector<std::vector<int>>& groups,
                            const std::vector<int>& group_of) {
  // Inter-group weights: each pair's edges summed in input order.
  using Pair = std::pair<std::pair<int, int>, double>;
  std::vector<Pair> pairs;
  for (const Edge& edge : ix.edges) {
    const int ga = group_of[edge.src];
    const int gb = group_of[edge.dst];
    if (edge.rate > 0 && ga != gb) {
      pairs.push_back({std::minmax(ga, gb), edge.rate});
    }
  }
  std::ranges::stable_sort(pairs, std::less{}, &Pair::first);
  std::size_t merged = 0;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    if (merged > 0 && pairs[merged - 1].first == pairs[i].first) {
      pairs[merged - 1].second += pairs[i].second;
    } else {
      pairs[merged++] = pairs[i];
    }
  }
  pairs.resize(merged);
  std::sort(pairs.begin(), pairs.end(), [](const Pair& x, const Pair& y) {
    if (x.second != y.second) return x.second > y.second;
    return x.first < y.first;
  });

  // Per node: free slots left, and the position of the next one.
  const int nodes = static_cast<int>(ix.node_id.size());
  std::vector<int> left(nodes, 0);
  std::vector<std::size_t> next(nodes, 0);
  for (int n = 0; n < nodes; ++n) {
    for (int s : ix.node_slots[n]) left[n] += ix.blocked[s] == 0 ? 1 : 0;
  }
  const auto take_slot_on = [&](int preferred) {
    int n = preferred;
    if (n < 0 || left[n] == 0) {
      // Node with the most free slots (spreads load), lowest id on ties.
      const auto most = std::max_element(left.begin(), left.end());
      if (most == left.end() || *most == 0) return -1;
      n = static_cast<int>(most - left.begin());
    }
    const auto& slots = ix.node_slots[n];
    while (ix.blocked[slots[next[n]]] != 0) ++next[n];
    left[n] -= 1;
    return slots[next[n]++];
  };

  std::vector<int> group_slot(groups.size(), -1);
  const auto node_of = [&](int g) {
    return group_slot[g] < 0 ? -1 : ix.slot_node[group_slot[g]];
  };
  const auto ensure_placed = [&](int g, int preferred) {
    if (group_slot[g] < 0) group_slot[g] = take_slot_on(preferred);
  };

  for (const auto& [key, w] : pairs) {
    const auto [ga, gb] = key;
    const bool pa = group_slot[ga] >= 0;
    const bool pb = group_slot[gb] >= 0;
    if (pa && pb) continue;
    if (!pa && !pb) {
      ensure_placed(ga, -1);
      ensure_placed(gb, node_of(ga));
    } else if (pa) {
      ensure_placed(gb, node_of(ga));
    } else {
      ensure_placed(ga, node_of(gb));
    }
  }
  for (int g = 0; g < std::ssize(groups); ++g) ensure_placed(g, -1);

  ScheduleResult result;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    if (group_slot[g] < 0) continue;
    for (int e : groups[g]) {
      result.assignment[in.executors[e].task] = ix.slot_id[group_slot[g]];
    }
  }
  return result;
}

/// Both phases over the index's edges of positive weight: partition per
/// topology, then place all groups together.
ScheduleResult run_two_phase(const SchedulerIndex& ix,
                             const SchedulerInput& in) {
  std::vector<std::vector<int>> members(ix.topologies);
  std::vector<std::vector<Edge>> topo_edges(ix.topologies);
  for (const Edge& edge : ix.edges) {
    const int t = ix.topo[edge.src];
    if (edge.rate > 0 && t == ix.topo[edge.dst]) topo_edges[t].push_back(edge);
  }
  for (int e = 0; e < ix.executors(); ++e) members[ix.topo[e]].push_back(e);

  std::vector<int> group_of(ix.executors(), -1);
  std::vector<std::vector<int>> groups;
  for (int t = 0; t < ix.topologies; ++t) {
    const TopologyId id = in.executors[members[t].front()].topology;
    partition_executors(in, members[t], topo_edges[t],
                        requested_workers(in, id), group_of, groups);
  }
  ScheduleResult result = place_groups(ix, in, groups, group_of);
  audit_capacity(in, result);  // capacity-blind: flag overcommit post hoc
  return result;
}

}  // namespace

ScheduleResult AnielloOfflineScheduler::schedule(const SchedulerInput& in) {
  // Offline: unit weights from the topology graph only.
  SchedulerIndex ix(in, in.queue_pressure_weight);
  ix.use_topology_edges(in);
  return run_two_phase(ix, in);
}

ScheduleResult AnielloOnlineScheduler::schedule(const SchedulerInput& in) {
  // Online: weights are the measured traffic rates.
  return run_two_phase(SchedulerIndex(in, in.queue_pressure_weight), in);
}

}  // namespace tstorm::sched
