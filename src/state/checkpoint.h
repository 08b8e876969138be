// Checkpoint coordinator: drives Chandy-Lamport-style barrier rounds.
// Per registered topology it starts a round each tick (injecting barrier
// envelopes at the spouts through a runtime callback), collects the
// durable-write acknowledgements of every stateful task, and declares the
// round completed when all have landed. The tick interval paces round
// *starts*; an in-flight round is aborted only once it has been open
// longer than the abort timeout (lost barriers, dead tasks, dropped
// writes). Keeping the timeout well above the interval matters: barrier
// propagation shares the data path, so under queue backlog a round can
// legitimately take longer than one interval — aborting it on the next
// tick would mean no round ever completes while the backlog lasts, and
// with checkpoint-gated acks that becomes a livelock (acks wait for a
// commit, trees time out, replays deepen the backlog). Runtime-agnostic:
// all side effects go through the Callbacks, so the protocol logic is
// unit-testable without a cluster.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

namespace tstorm::state {

/// Per-topology checkpoint gauges.
struct CheckpointGauges {
  std::uint64_t completed = 0;
  std::uint64_t aborted = 0;
  /// Snapshot writes rejected because they came from a superseded task
  /// incarnation during a reschedule handoff (see Cluster::state_write).
  std::uint64_t stale_writes = 0;
  /// Round id / snapshot bytes / barrier-to-durable duration of the last
  /// completed round.
  std::uint64_t last_id = 0;
  std::uint64_t last_bytes = 0;
  double last_duration = 0;
  /// Mean gap between consecutive completions — interval adherence: under
  /// a healthy cluster this tracks the configured checkpoint interval;
  /// aborted rounds stretch it.
  double mean_interval = 0;
};

class CheckpointCoordinator {
 public:
  struct Callbacks {
    /// Inject barrier envelopes for round `ckpt` at the topology's spouts.
    std::function<void(int topo, std::uint64_t ckpt)> inject_barriers;
    /// Round completed: every stateful task's snapshot landed durably.
    std::function<void(int topo, std::uint64_t ckpt, double duration,
                       std::uint64_t bytes)>
        on_complete;
    /// Round aborted (superseded by the next tick while incomplete).
    std::function<void(int topo, std::uint64_t ckpt)> on_abort;
  };

  /// `abort_timeout`: how long a round may stay open before a tick aborts
  /// it (seconds). 0 keeps the legacy behaviour — every tick aborts a
  /// still-open round, i.e. timeout == interval.
  explicit CheckpointCoordinator(Callbacks callbacks,
                                 double abort_timeout = 0);

  /// Registers a topology's stateful tasks; each round waits for a write
  /// from every one of them.
  void register_topology(int topo, std::vector<int> stateful_tasks);
  void deregister_topology(int topo);

  /// One coordinator tick: per registered topology, starts the next round
  /// — unless one is still open and younger than the abort timeout, in
  /// which case the tick is skipped to let it finish. An open round older
  /// than the timeout is aborted first. Round ids are globally unique and
  /// increase monotonically.
  void tick(double now);

  /// A stateful task's snapshot for round `ckpt` landed in the durable
  /// store. Ignored when the round is no longer in flight (late writes of
  /// aborted rounds — exactly the torn snapshots restore must not see).
  void on_snapshot_written(int topo, std::uint64_t ckpt, int task,
                           std::uint64_t bytes, double now);

  /// Counts a snapshot write rejected before shipping because its author
  /// was a superseded incarnation (observability only; the round is
  /// unaffected — it completes from the successor or aborts).
  void note_stale_write(int topo);

  [[nodiscard]] const CheckpointGauges* gauges(int topo) const;
  [[nodiscard]] std::vector<int> topologies() const;
  /// Round id currently in flight for the topology (0 = none).
  [[nodiscard]] std::uint64_t inflight_round(int topo) const;
  /// Stateful tasks whose write has not landed for the open (or, right
  /// after an abort, the just-aborted) round.
  [[nodiscard]] std::vector<int> awaiting_tasks(int topo) const;

 private:
  struct Topo {
    int topo = -1;
    std::vector<int> stateful_tasks;
    /// In-flight round state. awaiting shrinks as writes land.
    std::uint64_t round = 0;  // 0 = no round open
    std::vector<int> awaiting;
    double started = 0;
    std::uint64_t bytes = 0;
    CheckpointGauges gauges;
    double last_complete_time = -1;
    double interval_sum = 0;
  };

  [[nodiscard]] Topo* find(int topo);
  [[nodiscard]] const Topo* find(int topo) const;
  void start_round(Topo& t, double now);

  Callbacks callbacks_;
  double abort_timeout_ = 0;
  std::vector<Topo> topologies_;
  std::uint64_t next_round_ = 0;
};

}  // namespace tstorm::state
