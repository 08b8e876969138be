// Cluster configuration. Defaults model the paper's testbed: 10 IBM blade
// servers, each with two dual-core 2.0 GHz Xeon CPUs (4 cores -> 4 slots,
// 8000 MHz capacity), connected by a 1 Gbps network (NetworkConfig), with
// Storm 0.8.2 timing constants (10 s supervisor sync, 30 s tuple timeout).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/network.h"

namespace tstorm::runtime {

/// Per-node hardware override for heterogeneous clusters ("different
/// worker nodes may have different numbers of slots", paper section II).
/// Memory and NIC capacity feed the scheduler's resource vector; they do
/// not constrain the simulation itself (the network fault model has its
/// own bandwidth), so resource-blind runs behave exactly as before.
struct NodeSpec {
  int slots = 4;
  int cores = 4;
  double per_core_mhz = 2000.0;
  double memory_mib = 16384.0;
  double network_mbps = 1000.0;
};

/// A run of identical nodes — the compact way to describe a heterogeneous
/// fleet ("8 small + 2 big"). validated() expands ClusterConfig::node_groups
/// into the flat per-node list.
struct NodeGroup {
  int count = 0;
  NodeSpec spec;
};

/// What to do with a data tuple arriving at a hard-full executor queue.
/// Control messages (acks, emit signals, ticks, replays) are never shed:
/// dropping them would wedge the ack protocol instead of degrading it.
enum class ShedPolicy : std::uint8_t {
  /// Reject the arriving tuple (tail drop, Storm's receive-queue default).
  kDropNewest,
  /// Evict the oldest queued data tuple to admit the new one (freshness
  /// wins — the evicted tuple was closest to its timeout anyway).
  kDropOldest,
  /// With probability shed_probability reject the arrival, otherwise evict
  /// the oldest (randomized tail/head mix; uses a dedicated RNG substream
  /// so enabling it never perturbs workload randomness).
  kProbabilistic,
};

const char* to_string(ShedPolicy policy);

/// --- Flow control: bounded queues, backpressure, load shedding. ---
/// Disabled by default; with `enabled == false` the runtime's behaviour
/// (and its event/RNG sequence) is bit-identical to a build without flow
/// control. When enabled:
///   * every executor input queue is bounded at queue_capacity *data*
///     envelopes (control messages are always admitted — they are tiny and
///     shedding them would break the ack protocol, not relieve overload);
///   * an executor whose queue crosses high_watermark publishes a
///     topology-wide throttle flag through the CoordinationStore
///     (Storm-1.x style backpressure znode); spouts of that topology are
///     paused via pause_spout_until and stay paused, refreshed every
///     throttle_refresh_period, until every executor contributing to the
///     flag has drained below low_watermark (hysteresis: one queue cannot
///     flap the signal per event);
///   * a tuple arriving at a hard-full queue is shed per shed_policy,
///     counted under DropCause::kLoadShed and traced as kTupleShed.
struct FlowConfig {
  bool enabled = false;

  /// Hard cap on queued data envelopes per executor.
  int queue_capacity = 512;

  /// Throttle-on threshold as a fraction of queue_capacity.
  double high_watermark = 0.8;

  /// Throttle-off threshold as a fraction of queue_capacity; must be
  /// strictly below high_watermark for the hysteresis band to exist.
  double low_watermark = 0.4;

  /// While a topology is throttled its spouts are re-paused (for twice
  /// this period) on this cadence; after throttle-off they resume within
  /// at most two periods.
  double throttle_refresh_period = 0.05;

  ShedPolicy shed_policy = ShedPolicy::kDropNewest;

  /// kProbabilistic only: probability the arriving tuple (rather than the
  /// oldest queued one) is the victim.
  double shed_probability = 0.5;

  [[nodiscard]] int high_mark() const {
    return static_cast<int>(static_cast<double>(queue_capacity) *
                            high_watermark);
  }
  [[nodiscard]] int low_mark() const {
    return static_cast<int>(static_cast<double>(queue_capacity) *
                            low_watermark);
  }
};

/// --- Observability: schedule provenance + sampled tuple tracing. ---
/// Provenance recording is always on (it is passive bookkeeping — no RNG,
/// no simulation events). Tuple tracing is off by default; its sampling
/// decisions draw from a private RNG substream, so enabling it never
/// perturbs workload randomness, and with sample_rate == 0 the collector
/// is fully inert.
struct ObsConfig {
  /// Fraction of root emissions traced end to end ([0,1]; 0 disables).
  double tuple_sample_rate = 0.0;

  /// Scheduling DecisionRecords retained (ring buffer).
  std::size_t provenance_capacity = 1024;

  /// Finished root traces retained (ring buffer).
  std::size_t tuple_trace_capacity = 2048;
};

/// --- Stateful operators: barrier checkpoints + restore-on-reschedule. ---
/// Disabled by default; with `enabled == false` the runtime's behaviour
/// (and its event/RNG sequence) is bit-identical to a build without the
/// state subsystem. When enabled:
///   * bolts of components marked BoltDecl::stateful(true) get a
///     runtime-managed state::StateStore that survives reassignment;
///   * a coordinator injects checkpoint barriers at the spouts every
///     checkpoint_interval; bolts align barriers across their input
///     channels, stateful ones snapshot their store to a simulated durable
///     service (a dedicated storage pseudo-node on the network, so writes
///     pay latency/bandwidth and can be partitioned away);
///   * acks at stateful bolts are deferred until the covering checkpoint
///     round completes, and replayed duplicates have their state effects
///     suppressed through per-task dedup sets (DropCause::kStateDedup)
///     while still re-emitting their children (delivery downstream stays
///     at-least-once) — together: a tree is acked only once its updates
///     are durable, and re-applied never;
///   * a dedup entry is retired once its tree is resolved (acked, or given
///     up after its last replay) and a round of barriers has passed
///     behind it, so the sets hold about the trees in flight plus one
///     round, with no retention knob (docs/MODEL.md, "Replay dedup").
struct StateConfig {
  bool enabled = false;

  /// Coordinator round period (seconds): how often a new round *starts*.
  double checkpoint_interval = 5.0;

  /// Abort horizon (seconds): a round still open this long after it
  /// started is aborted by the next tick and superseded. Must exceed the
  /// interval — barriers ride the data path, so under queue backlog a
  /// round can take longer than one interval, and aborting it at the next
  /// tick would mean no round ever completes (with checkpoint-gated acks
  /// that is a livelock: acks wait on a commit, trees time out, replays
  /// deepen the backlog). 0 resolves to 3x checkpoint_interval.
  double checkpoint_timeout = 0;

  /// Durable-service write latency (seconds) added to each snapshot write
  /// on top of network transmission, and read latency paid by a restoring
  /// executor before it serves data.
  double store_write_latency = 2e-3;
  double store_read_latency = 5e-3;

  /// Restore read bandwidth (bytes/s): rehydration time scales with
  /// snapshot size.
  double store_read_bandwidth = 250e6;

  /// CPU cost (mega-cycles) of processing one barrier at a bolt.
  double barrier_cost_mc = 0.01;
};

struct ClusterConfig {
  int num_nodes = 10;
  int slots_per_node = 4;
  int cores_per_node = 4;
  double per_core_mhz = 2000.0;

  /// Homogeneous memory / NIC capacity per node (scheduler-visible only;
  /// see NodeSpec). Overridden per node by `nodes` / `node_groups`.
  double memory_mib_per_node = 16384.0;
  double network_mbps_per_node = 1000.0;

  /// Non-empty => heterogeneous cluster: one NodeSpec per node (overrides
  /// num_nodes/slots_per_node/cores_per_node/per_core_mhz above).
  std::vector<NodeSpec> nodes;

  /// Compact heterogeneous-fleet form: runs of identical nodes, expanded
  /// into `nodes` by validated(). Mutually exclusive with a non-empty
  /// `nodes` (groups win; debug builds assert).
  std::vector<NodeGroup> node_groups;

  net::NetworkConfig network;

  /// JVM worker spawn time (seconds).
  double worker_start_delay = 2.0;

  /// Supervisors poll ZooKeeper for new assignments every 10 s (section
  /// IV-D).
  double supervisor_sync_period = 10.0;

  /// Tuples not fully acked within this window fail and may be replayed
  /// (Storm's default of 30 s, section II).
  double tuple_timeout = 30.0;

  /// Maximum automatic replays of a failed root tuple (0 disables replay).
  int max_replays = 3;

  /// --- Replay backoff. ---
  /// A failed root is re-emitted after
  ///   min(replay_backoff_base * 2^attempt, replay_backoff_max)
  ///     * (1 + replay_backoff_jitter * U[0,1))
  /// seconds instead of immediately, so a node failure does not produce a
  /// synchronized replay storm into the recovering bolts. Set
  /// replay_backoff_base = 0 for the old immediate-replay behaviour.
  double replay_backoff_base = 1.0;
  double replay_backoff_max = 60.0;
  double replay_backoff_jitter = 0.1;

  /// A failed root's tracking entry is kept for late-ack recording for
  /// grace_factor * tuple_timeout after the failure (the paper's Fig. 3
  /// reports processing times far beyond the 30 s timeout, so late
  /// completions must stay observable), then dropped to bound memory.
  double late_ack_grace_factor = 6.0;

  /// --- Self-healing control plane (heartbeats + failure detection). ---
  /// When true, Nimbus runs a failure detector: supervisors publish
  /// periodic heartbeats through the coordination store, nodes that miss
  /// heartbeats for node_timeout are declared dead (trace
  /// kNodeDeclaredDead), their topologies are rescheduled onto surviving
  /// nodes automatically, and nodes whose heartbeats resume are declared
  /// alive again. Off by default: the seed's benches deliberately contrast
  /// "nobody reschedules" stock Storm against T-Storm's generator repair.
  bool failure_detection = false;

  /// Supervisor heartbeat publication period (Storm supervisors beat every
  /// few seconds). Heartbeats are published whether or not the detector
  /// runs, and traverse the network fault model's control path — lossy
  /// links can cause (and heal) false-positive detections.
  double heartbeat_period = 3.0;

  /// Nimbus declares a node dead after this long without a heartbeat (the
  /// nimbus.task.timeout.secs analog).
  double node_timeout = 12.0;

  /// Period of the Nimbus detector sweep.
  double monitor_period = 4.0;

  /// Service-time inflation per crowding thread (see crowd model below):
  /// models context switching (paper Observation 1 mentions context
  /// switching as part of the spreading penalty).
  double context_switch_coeff = 0.008;

  /// --- Worker-process crowding model. ---
  /// Every running worker (JVM) contributes this many overhead threads
  /// (transfer/receiver/heartbeat/GC) to its node. Threads beyond the core
  /// count make up the node's "crowding".
  double worker_overhead_threads = 2.8;

  /// Additional latency per crowding thread (seconds), applied to every
  /// message that crosses a process boundary, at both the sending and the
  /// receiving node. This is the first-order cost of running many workers
  /// per node that T-Storm's worker consolidation removes (the 9.25 ms ->
  /// 0.99 ms drop of Fig. 5(a) while still using all 10 nodes).
  double crowd_latency_coeff = 0.15e-3;

  /// --- T-Storm smooth reassignment (section IV-D). ---
  /// When true: new workers start before old ones stop, old workers drain
  /// for shutdown_delay, spouts halt spout_halt_delay, and per-slot
  /// dispatchers route in-flight tuples by assignment ID. When false:
  /// stock Storm behaviour (affected workers are killed immediately and
  /// queued tuples are lost).
  bool smooth_reassignment = false;

  /// Delay before an old worker is shut down (2x the supervisor check
  /// period in the paper).
  double shutdown_delay = 20.0;

  /// Additional halt applied to spout executors until bolts are ready.
  double spout_halt_delay = 10.0;

  /// CPU cost (mega-cycles) of processing one ack message in an acker
  /// executor, and of spout control handling.
  double acker_cost_mc = 0.02;
  double spout_control_cost_mc = 0.01;

  /// Flow control (bounded queues + backpressure + shedding); off by
  /// default so existing runs are bit-identical.
  FlowConfig flow;

  /// Observability (schedule provenance + sampled tuple tracing); tracing
  /// off by default so existing runs are bit-identical.
  ObsConfig obs;

  /// Stateful operators (keyed state + barrier checkpoints + restore);
  /// off by default so existing runs are bit-identical.
  StateConfig state;

  /// RNG seed for the whole simulation.
  std::uint64_t seed = 42;

  [[nodiscard]] double node_capacity_mhz() const {
    return static_cast<double>(cores_per_node) * per_core_mhz;
  }
  [[nodiscard]] int total_slots() const { return num_nodes * slots_per_node; }
};

/// Sanity-checks a ClusterConfig: node/slot/core counts must be positive,
/// delays and backoffs non-negative, periods and timeouts positive. Debug
/// builds assert on violations; release builds clamp to the nearest valid
/// value (same pattern as PeriodicTask::set_period and net::validated).
/// Cluster's constructor applies this, so every running cluster has a
/// well-formed config.
[[nodiscard]] ClusterConfig validated(ClusterConfig config);

}  // namespace tstorm::runtime
