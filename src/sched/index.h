// SchedulerIndex: a per-call dense view of a SchedulerInput. Executors,
// slots, nodes and topologies are renumbered to 0..n-1 once, so the
// schedulers' inner loops read vectors instead of probing hash maps. The
// index also carries the mutable placement state (per-node resources and
// executor count, per-slot owner, the per-topology slot lock of Algorithm
// 1's constraint (1)) that every placing scheduler keeps.
//
// Dense ids: executor e is in.executors[e]; slots are numbered in
// first-seen order of in.slots (a repeated slot id keeps its first node),
// and each node lists its slots in ascending slot id; nodes are the nodes
// offering at least one slot, in ascending NodeId; topologies are the
// executors' topologies in ascending TopologyId.
// Adjacency lists keep in.traffic order, so a per-node traffic sum taken
// along them adds the same rates in the same order as a walk over the
// input, and is bit-equal to it.
#pragma once

#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sched/types.h"

namespace tstorm::sched {

class SchedulerIndex {
 public:
  /// Indexes `in`; executor demands are effective_demand(qw).
  SchedulerIndex(const SchedulerInput& in, double queue_pressure_weight);

  /// One traffic entry between two executors of the input (dense ids).
  struct Edge {
    int src;
    int dst;
    double rate;
  };

  // --- Executors. ---
  [[nodiscard]] int executors() const { return static_cast<int>(topo.size()); }
  std::unordered_map<TaskId, int> exec_of;  // task id -> dense executor
  std::vector<int> topo;                    // dense topology per executor
  std::vector<ResourceVector> demand;       // effective demand per executor
  /// Symmetric adjacency of executor e: for every positive-rate entry,
  /// (dst, rate) on src's list and (src, rate) on dst's, in input order.
  [[nodiscard]] std::span<const std::pair<int, double>> adj(int e) const {
    return {adj_.data() + adj_begin_[e], adj_.data() + adj_begin_[e + 1]};
  }
  /// True when some entry has a positive rate (some adj(e) is non-empty).
  [[nodiscard]] bool has_adjacency() const { return !adj_.empty(); }
  /// Every entry the adjacency was built from, any rate, input order: the
  /// traffic between executors, or the unit topology edges after
  /// use_topology_edges().
  std::vector<Edge> edges;

  // --- Slots and nodes. ---
  std::unordered_map<SlotIndex, int> slot_of;  // slot id -> dense slot
  std::vector<SlotIndex> slot_id;
  std::vector<int> slot_node;
  std::vector<char> blocked;  // occupied by a topology outside this run
  std::vector<NodeId> node_id;
  std::vector<std::vector<int>> node_slots;  // dense slots, ascending id
  std::vector<ResourceVector> capacity;      // node_capacity() per node
  int topologies = 0;

  // --- Placement state. ---
  std::vector<int> exec_slot;  // dense slot per executor, -1 unplaced
  std::vector<int> exec_node;  // dense node per executor, -1 unplaced
  std::vector<ResourceVector> used;
  std::vector<int> count;       // executors per node
  std::vector<int> slot_owner;  // dense topology per slot, -1 free
  std::vector<int> slot_count;  // executors per slot

  /// Algorithm 1's count constraint, ceil(gamma * Ne / K), with K the
  /// largest NodeId offering a slot plus one: a failed node keeps its id
  /// but offers no slots, and still counts.
  [[nodiscard]] int count_limit(const SchedulerInput& in) const;

  /// The slot topology `t` would use on node `n`, or -1 when none is
  /// left: the slot it holds there, else the node's free slot with the
  /// lowest id. The one eligibility rule of every placing scheduler.
  [[nodiscard]] int eligible_slot(int n, int t) const {
    const int held = lock_[n * topologies + t];
    if (held >= 0) return held;
    for (int s : node_slots[n]) {
      if (blocked[s] == 0 && slot_owner[s] == -1) return s;
    }
    return -1;
  }

  /// Places executor e on dense slot s, taking the slot for e's topology.
  void place(int e, int s);
  /// Undoes place(); a slot left empty is free again.
  void remove(int e);
  /// Clears every placement.
  void reset();

  /// Replaces the traffic adjacency and edges with unit-weight topology
  /// edges.
  void use_topology_edges(const SchedulerInput& in);

 private:
  /// Builds the adjacency from the positive-rate entries of `list`.
  void set_adjacency(const std::vector<Edge>& list);

  std::vector<int> adj_begin_;  // adj(e) is adj_[adj_begin_[e], [e + 1])
  std::vector<std::pair<int, double>> adj_;
  NodeId max_node_ = -1;
  /// [node * topologies + topology] -> the slot the topology holds on the
  /// node (constraint (1)), or -1.
  std::vector<int> lock_;
};

}  // namespace tstorm::sched
