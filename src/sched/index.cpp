#include "sched/index.h"

#include <algorithm>
#include <cmath>

namespace tstorm::sched {
namespace {

/// Position of `v` in the sorted, duplicate-free `ids`.
int rank_of(const std::vector<int>& ids, int v) {
  return static_cast<int>(std::lower_bound(ids.begin(), ids.end(), v) -
                          ids.begin());
}

}  // namespace

SchedulerIndex::SchedulerIndex(const SchedulerInput& in,
                               double queue_pressure_weight) {
  const std::size_t ne = in.executors.size();
  std::vector<TopologyId> topo_ids;
  topo_ids.reserve(ne);
  for (const auto& e : in.executors) topo_ids.push_back(e.topology);
  std::sort(topo_ids.begin(), topo_ids.end());
  topo_ids.erase(std::unique(topo_ids.begin(), topo_ids.end()),
                 topo_ids.end());
  topologies = static_cast<int>(topo_ids.size());

  exec_of.reserve(ne);
  topo.reserve(ne);
  demand.reserve(ne);
  for (const auto& e : in.executors) {
    exec_of.emplace(e.task, static_cast<int>(topo.size()));
    topo.push_back(rank_of(topo_ids, e.topology));
    demand.push_back(e.effective_demand(queue_pressure_weight));
  }
  edges.reserve(in.traffic.size());
  for (const auto& t : in.traffic) {
    const auto a = exec_of.find(t.src);
    const auto b = exec_of.find(t.dst);
    if (a == exec_of.end() || b == exec_of.end()) continue;
    edges.push_back({a->second, b->second, t.rate});
  }
  set_adjacency(edges);

  slot_of.reserve(in.slots.size());
  for (const auto& s : in.slots) {
    max_node_ = std::max(max_node_, s.node);
    if (!slot_of.emplace(s.slot, static_cast<int>(slot_id.size())).second) {
      continue;
    }
    slot_id.push_back(s.slot);
    slot_node.push_back(s.node);
  }
  node_id = slot_node;
  std::sort(node_id.begin(), node_id.end());
  node_id.erase(std::unique(node_id.begin(), node_id.end()), node_id.end());
  node_slots.resize(node_id.size());
  for (std::size_t s = 0; s < slot_node.size(); ++s) {
    slot_node[s] = rank_of(node_id, slot_node[s]);
    node_slots[slot_node[s]].push_back(static_cast<int>(s));
  }
  for (auto& slots : node_slots) {
    std::sort(slots.begin(), slots.end(),
              [this](int a, int b) { return slot_id[a] < slot_id[b]; });
  }
  capacity.reserve(node_id.size());
  for (NodeId k : node_id) capacity.push_back(in.node_capacity(k));
  blocked.assign(slot_id.size(), 0);
  for (SlotIndex s : in.occupied_slots) {
    const auto it = slot_of.find(s);
    if (it != slot_of.end()) blocked[it->second] = 1;
  }
  reset();
}

void SchedulerIndex::set_adjacency(const std::vector<Edge>& list) {
  adj_begin_.assign(topo.size() + 1, 0);
  for (const Edge& e : list) {
    if (e.rate <= 0) continue;
    adj_begin_[e.src + 1] += 1;
    adj_begin_[e.dst + 1] += 1;
  }
  for (std::size_t e = 1; e < adj_begin_.size(); ++e) {
    adj_begin_[e] += adj_begin_[e - 1];
  }
  adj_.resize(adj_begin_.back());
  std::vector<int> next(adj_begin_.begin(), adj_begin_.end() - 1);
  for (const Edge& e : list) {
    if (e.rate <= 0) continue;
    adj_[next[e.src]++] = {e.dst, e.rate};
    adj_[next[e.dst]++] = {e.src, e.rate};
  }
}

void SchedulerIndex::use_topology_edges(const SchedulerInput& in) {
  std::vector<Edge> unit;
  for (const auto& [src, dst] : in.topology_edges) {
    const auto a = exec_of.find(src);
    const auto b = exec_of.find(dst);
    if (a == exec_of.end() || b == exec_of.end()) continue;
    unit.push_back({a->second, b->second, 1.0});
  }
  set_adjacency(unit);
  edges = std::move(unit);
}

int SchedulerIndex::count_limit(const SchedulerInput& in) const {
  const double ne = static_cast<double>(in.executors.size());
  const double k = std::max(1.0, static_cast<double>(max_node_ + 1));
  return std::max(1, static_cast<int>(std::ceil(in.gamma * ne / k - 1e-9)));
}

void SchedulerIndex::place(int e, int s) {
  const int n = slot_node[s];
  exec_slot[e] = s;
  exec_node[e] = n;
  used[n] = resource_add(used[n], demand[e]);
  count[n] += 1;
  slot_count[s] += 1;
  slot_owner[s] = topo[e];
  lock_[n * topologies + topo[e]] = s;
}

void SchedulerIndex::remove(int e) {
  const int s = exec_slot[e];
  const int n = slot_node[s];
  exec_slot[e] = -1;
  exec_node[e] = -1;
  for (std::size_t d = 0; d < kResourceDims; ++d) used[n][d] -= demand[e][d];
  count[n] -= 1;
  if (--slot_count[s] == 0) {
    slot_owner[s] = -1;
    lock_[n * topologies + topo[e]] = -1;
  }
}

void SchedulerIndex::reset() {
  exec_slot.assign(topo.size(), -1);
  exec_node.assign(topo.size(), -1);
  used.assign(node_id.size(), ResourceVector{});
  count.assign(node_id.size(), 0);
  slot_owner.assign(slot_id.size(), -1);
  slot_count.assign(slot_id.size(), 0);
  lock_.assign(node_id.size() * topologies, -1);
}

}  // namespace tstorm::sched
