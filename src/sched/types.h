// Scheduling problem types shared by every algorithm and by the runtime.
// Matches the paper's notation (Table I): executors i with workloads l_i,
// traffic r_ii', slots j on worker nodes k with capacities C_k, and the
// consolidation factor gamma — generalized from the paper's scalar CPU
// capacity to a small fixed resource vector (CPU, memory, network) in the
// style of ytsaurus's TResourceCapacities, so resource-aware schedulers
// (R-Storm) and heterogeneous fleets share one input format with
// Algorithm 1.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

namespace tstorm::sched {

using TaskId = int;
using NodeId = int;
using SlotIndex = int;
using TopologyId = int;

/// Assignment versions are timestamps (T-Storm uses the assignment
/// timestamp as its ID to tell old and new workers apart, section IV-D).
using AssignmentVersion = std::int64_t;

inline constexpr SlotIndex kUnassigned = -1;

/// --- Resource vectors. ---
/// Fixed dimensions, one slot per resource kind. Executor demands and node
/// capacities use the same layout; a dimension nobody fills (capacity
/// +infinity, demand 0) is simply unconstrained, which is how
/// single-resource (CPU-only) inputs stay exactly as expressive as before.
enum ResourceDim : std::size_t {
  kCpuMhz = 0,      // estimated CPU consumption / capacity, MHz
  kMemoryMib = 1,   // resident bytes (queues + keyed state) / RAM, MiB
  kNetworkMbps = 2  // emitted traffic / NIC egress, Mbit/s
};
inline constexpr std::size_t kResourceDims = 3;
using ResourceVector = std::array<double, kResourceDims>;

/// Capacity vector of a node nobody constrained (every dimension open).
[[nodiscard]] constexpr ResourceVector unconstrained_capacity() {
  constexpr double inf = std::numeric_limits<double>::infinity();
  return {inf, inf, inf};
}

/// a + b, element-wise.
[[nodiscard]] ResourceVector resource_add(const ResourceVector& a,
                                          const ResourceVector& b);

/// True when `used + demand` stays within `capacity` in every dimension
/// (the multi-dimensional generalization of the paper's constraint (2)).
[[nodiscard]] bool resource_fits(const ResourceVector& used,
                                 const ResourceVector& demand,
                                 const ResourceVector& capacity);

/// One executor (task) to place. In this system each executor runs exactly
/// one task (Storm's default), so executor == task.
struct ExecutorSpec {
  TaskId task = -1;
  TopologyId topology = -1;
  /// Estimated demand per resource dimension: demand[kCpuMhz] is the
  /// paper's workload l_i (EWMA of measured CPU usage); memory is resident
  /// bytes (queued tuples + keyed state), network the emitted-traffic
  /// rate. Single-resource callers initialize just the first element
  /// (`{task, topo, {load_mhz}}`) and leave the rest zero.
  ResourceVector demand{};
  /// Estimated input-queue depth (EWMA of sampled envelopes waiting).
  /// Queue pressure distinguishes an executor that is busy from one that
  /// is falling behind; SchedulerInput::queue_pressure_weight folds it
  /// into effective_load() for every scheduler uniformly.
  double queue_depth = 0;

  /// CPU demand, the paper's l_i.
  [[nodiscard]] double load_mhz() const { return demand[kCpuMhz]; }

  /// Capacity footprint in the CPU dimension: CPU load plus weighted queue
  /// pressure (weight 0 == the paper's Algorithm 1, CPU only). Every
  /// capacity-respecting scheduler must charge this — not bare load_mhz()
  /// — so enabling queue pressure steers all of them, not just one.
  [[nodiscard]] double effective_load(double queue_pressure_weight) const {
    return demand[kCpuMhz] + queue_pressure_weight * queue_depth;
  }

  /// Full demand vector with the CPU dimension replaced by
  /// effective_load().
  [[nodiscard]] ResourceVector effective_demand(
      double queue_pressure_weight) const {
    ResourceVector d = demand;
    d[kCpuMhz] = effective_load(queue_pressure_weight);
    return d;
  }
};

struct SlotSpec {
  SlotIndex slot = -1;
  NodeId node = -1;
  /// Port index within the node (Storm slots are ports).
  int port = 0;
};

/// Scheduler-visible worker node: its id and capacity vector. Replaces the
/// bare per-node capacity-MHz array; the runtime usually passes a fraction
/// of the physical capacities to keep overload improbable (section IV-C).
/// A failed node keeps its entry with all-zero capacity (and contributes
/// no slots).
struct NodeSpec {
  NodeId node = -1;
  ResourceVector capacity{};
};

struct TopologySpec {
  TopologyId id = -1;
  /// Workers requested by the user (Nu); only round-robin-style schedulers
  /// honour it, Algorithm 1 derives the worker count itself (section IV-C).
  int requested_workers = 1;
};

/// Estimated traffic r_{src,dst} in tuples/second between two executors.
struct TrafficEntry {
  TaskId src = -1;
  TaskId dst = -1;
  double rate = 0;
};

struct SchedulerInput {
  std::vector<ExecutorSpec> executors;
  std::vector<SlotSpec> slots;
  std::vector<TopologySpec> topologies;
  /// Scheduler-visible nodes, indexed by NodeId (nodes[k].node == k).
  /// Empty means "no capacity information": every node is unconstrained,
  /// the pre-resource-vector behaviour of inputs that never set
  /// capacities.
  std::vector<NodeSpec> nodes;
  std::vector<TrafficEntry> traffic;
  /// Task-level edges of the topology graphs (every producer task to every
  /// consumer task). Input for topology-structure-only schedulers
  /// (Aniello et al.'s offline scheduler) and for R-Storm's breadth-first
  /// placement order.
  std::vector<std::pair<TaskId, TaskId>> topology_edges;
  /// Slots unavailable to this run (used by topologies outside it).
  std::vector<SlotIndex> occupied_slots;
  /// Consolidation factor gamma (>= 1): caps executors per node at
  /// ceil(gamma * Ne / K). Binds only the Algorithm 1 family (traffic-aware,
  /// local-search); rstorm, aniello-* and the round-robin family ignore it
  /// and never set count_relaxed.
  double gamma = 1.0;
  /// MHz of effective load attributed per queued envelope (see
  /// ExecutorSpec::effective_load). 0 (default) reproduces the paper's
  /// algorithms exactly; > 0 makes every capacity-respecting scheduler
  /// steer away from packing backlogged executors onto near-full nodes.
  double queue_pressure_weight = 0.0;

  /// Checked capacity lookup (the one true way to read C_k): returns the
  /// capacity vector of node `k`. An empty `nodes` vector means
  /// unconstrained everywhere. An out-of-range `k` against a non-empty
  /// `nodes` vector is a malformed input — debug builds assert; release
  /// builds clamp to the nearest valid entry and warn once on stderr
  /// (same convention as runtime's validated()). Out-of-range ids used to
  /// silently resolve to a made-up capacity, hiding caller bugs.
  [[nodiscard]] ResourceVector node_capacity(NodeId k) const;

  /// CPU component of node_capacity() — the paper's scalar C_k.
  [[nodiscard]] double node_capacity_mhz(NodeId k) const {
    return node_capacity(k)[kCpuMhz];
  }
};

using Placement = std::unordered_map<TaskId, SlotIndex>;

struct ScheduleResult {
  Placement assignment;
  /// True when the gamma count constraint had to be relaxed to place all
  /// executors.
  bool count_relaxed = false;
  /// True when a resource-capacity constraint had to be relaxed — or, for
  /// capacity-blind algorithms (round-robin family, Aniello, manual), when
  /// the returned placement was found to exceed some node's capacity
  /// (audit_capacity). Contract: a result with both flags false respects
  /// every hard resource constraint of the input.
  bool capacity_relaxed = false;
};

/// Workers topology `topo` requested (Nu), 1 when `in` does not list it.
[[nodiscard]] int requested_workers(const SchedulerInput& in, TopologyId topo);

/// Post-hoc capacity audit for capacity-blind algorithms: sums each node's
/// effective demand and sets result.capacity_relaxed when any dimension
/// exceeds the node's capacity. Keeps the relaxation-flag contract honest
/// without changing the placement.
void audit_capacity(const SchedulerInput& in, ScheduleResult& result);

/// Sum of traffic between executors placed on different nodes. The
/// objective Algorithm 1 minimizes.
double internode_traffic(const SchedulerInput& in, const Placement& p);

/// Sum of traffic between executors on the same node but different slots
/// (workers). Algorithm 1's per-topology one-slot-per-node invariant forces
/// this to zero for co-scheduled topologies.
double interprocess_traffic(const SchedulerInput& in, const Placement& p);

/// Number of distinct nodes hosting at least one executor.
int nodes_used(const SchedulerInput& in, const Placement& p);

/// Number of distinct slots (workers) used.
int slots_used(const Placement& p);

/// Checks Algorithm 1's structural invariant: each topology uses at most
/// one slot per node. Returns true when the invariant holds.
bool one_slot_per_topology_per_node(const SchedulerInput& in,
                                    const Placement& p);

}  // namespace tstorm::sched
