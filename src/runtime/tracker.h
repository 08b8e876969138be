// TupleTracker: registry of in-flight root tuples. Implements the
// guaranteed-message-processing contract around the acker protocol:
// registers each spout emission, arms the 30 s timeout, records
// completions/failures into the CompletionRecorder, and requests replays of
// failed tuples (bounded attempts, exponential backoff with seeded jitter
// so correlated failures do not produce synchronized replay storms). In
// state mode it also knows when each tree (every attempt of one uid) is
// resolved, which bounds how long the stateful bolts' dedup sets must
// remember it.
#pragma once

#include <cstdint>
#include <vector>

#include "metrics/completion.h"
#include "runtime/envelope.h"
#include "sched/types.h"
#include "sim/flat_map.h"
#include "sim/ring_deque.h"
#include "sim/rng.h"
#include "sim/simulation.h"
#include "topo/tuple.h"

namespace tstorm::runtime {

class Cluster;

class TupleTracker {
 public:
  TupleTracker(Cluster& cluster, metrics::CompletionRecorder& recorder);

  /// Registers a freshly emitted root tuple and arms its timeout. The
  /// tuple is retained for replay (one refcount bump, no copy). Returns
  /// nothing; the caller generated root_id (it is also the acking key).
  /// `uid` is the tree's stable exactly-once lineage id (the attempt-0
  /// root id); 0 defaults it to root_id.
  void register_root(std::uint64_t root_id, sched::TaskId spout_task,
                     topo::TupleRef tuple, int attempt,
                     std::uint64_t uid = 0);

  /// Takes back a kReplay envelope that was queued at a dying executor
  /// (state mode only) and re-dispatches it after a short delay, so worker
  /// churn cannot terminally strand a tree that replay would have saved.
  void requeue_replay(Envelope env);

  /// Called when the spout receives kAckComplete for root_id. Records
  /// completion (late if the timeout already fired) and releases state.
  void on_ack_complete(std::uint64_t root_id);

  /// True while root_id has a tracking entry (live, or failed and inside
  /// its late-ack grace window). Spouts re-draw colliding ids against
  /// this, so a fresh registration can never overwrite tracked state.
  [[nodiscard]] bool contains(std::uint64_t root_id) const {
    return entries_.contains(root_id);
  }

  /// Unacked root tuples for a spout task (drives max_pending).
  [[nodiscard]] int pending(sched::TaskId spout_task) const;

  /// Spout tasks with a nonzero pending count. Entries are erased when
  /// their count returns to zero, so long-lived clusters cycling through
  /// many topologies do not accumulate dead per-spout slots.
  [[nodiscard]] std::size_t pending_spout_entries() const {
    return pending_.size();
  }

  /// All live (unacked, not-yet-failed) roots.
  [[nodiscard]] std::size_t in_flight() const { return in_flight_; }

  /// --- Conservation accounting (chaos auditor). ---
  /// Total register_root() calls (every attempt counts). At any instant
  ///   total_registered == on-time completions + failures + in_flight
  /// must hold; the auditor checks it.
  [[nodiscard]] std::uint64_t total_registered() const {
    return total_registered_;
  }
  /// Replays the tracker decided to schedule (recorded at re-dispatch).
  /// replays_dropped counts replay requests whose spout had no live
  /// instance at dispatch time — the root is terminally failed.
  [[nodiscard]] std::uint64_t replays_dropped() const {
    return replays_dropped_;
  }
  /// Tracking entries currently held (live + failed-awaiting-late-ack).
  /// After a quiesce window of (1 + late_ack_grace_factor) * tuple_timeout
  /// with spouts silent this must reach zero — a nonzero value is a leak.
  [[nodiscard]] std::size_t tracked_entries() const {
    return entries_.size();
  }

  /// --- Tree resolution (state mode only). ---
  /// A tree is resolved once no attempt of it is live and no replay of it
  /// is pending: it acked, or its last attempt failed with no replay left
  /// to send. Returns the attempt-0 emit time of the spout task's oldest
  /// unresolved tree, or now when it has none. Every tree of the task
  /// emitted before the returned time is resolved; a barrier stamped with
  /// it bounds which dedup entries downstream tasks may retire.
  [[nodiscard]] sim::Time oldest_unresolved(sched::TaskId spout_task);
  /// Trees registered in state mode and not yet resolved (all spouts).
  [[nodiscard]] std::size_t unresolved_trees() const {
    return open_trees_.size();
  }

  /// Backoff delay before replaying attempt `attempt` (exposed for tests;
  /// deterministic given the tracker's RNG state).
  [[nodiscard]] double backoff_delay(int attempt) const;

  [[nodiscard]] metrics::CompletionRecorder& recorder() { return recorder_; }

 private:
  void on_timeout(std::uint64_t root_id, std::uint64_t epoch);
  /// `record=false` on retries/requeues: the replay was already counted at
  /// its first dispatch.
  void dispatch_replay(sched::TaskId spout_task, topo::TupleRef tuple,
                       int attempt, std::uint64_t uid, bool record = true);
  /// Delay before a retry/requeue re-dispatch.
  [[nodiscard]] double retry_delay() const;
  /// Drops one unit of a tree's open work (a live attempt or a pending
  /// replay); the tree is resolved when none is left. No-op outside state
  /// mode.
  void release_tree(std::uint64_t uid);

  struct Entry {
    sched::TaskId spout_task = -1;
    sim::Time emit_time = 0;
    topo::TupleRef tuple;
    int attempt = 0;
    /// Stable tree uid across attempts (exactly-once lineage).
    std::uint64_t uid = 0;
    sim::EventId timeout_event = sim::kInvalidEvent;
    bool failed = false;
    /// Registration generation. Timeout and grace-erase closures carry the
    /// epoch they were armed for and no-op on mismatch, so even a forced
    /// re-registration of the same root id (contains() makes it impossible
    /// through the spout path) cannot let a stale closure double-count or
    /// prematurely erase the new entry.
    std::uint64_t epoch = 0;
  };

  Cluster& cluster_;
  metrics::CompletionRecorder& recorder_;
  /// Flat maps: per-root insert/erase cycles reuse plateaued capacity, so
  /// the steady-state tracking churn performs no heap allocation. Root
  /// ids are never 0 and task ids never -1 (the empty-slot sentinels).
  sim::FlatMap<std::uint64_t, Entry, 0> entries_;
  sim::FlatMap<sched::TaskId, int, -1> pending_;
  std::size_t in_flight_ = 0;
  /// State mode: open work per unresolved tree uid (live attempts plus
  /// pending replays), and per spout task its trees in registration order
  /// as (attempt-0 emit time, uid). Registration order is time order, so
  /// the oldest unresolved tree is the first ring entry still open;
  /// resolved entries are popped lazily.
  struct TreeStart {
    sim::Time time = 0;
    std::uint64_t uid = 0;
  };
  void pop_resolved(sim::RingDeque<TreeStart>& ring) const;
  sim::FlatMap<std::uint64_t, int, 0> open_trees_;
  std::vector<sim::RingDeque<TreeStart>> tree_starts_;  // by spout task
  std::uint64_t next_epoch_ = 0;
  std::uint64_t total_registered_ = 0;
  std::uint64_t replays_dropped_ = 0;
  /// Private substream for backoff jitter: replay scheduling never
  /// perturbs the cluster's main RNG stream.
  mutable sim::Rng rng_;
};

}  // namespace tstorm::runtime
