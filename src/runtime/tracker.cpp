#include "runtime/tracker.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "runtime/cluster.h"

namespace tstorm::runtime {

TupleTracker::TupleTracker(Cluster& cluster,
                           metrics::CompletionRecorder& recorder)
    : cluster_(cluster),
      recorder_(recorder),
      // Dedicated substream: backoff jitter draws must not perturb the
      // cluster's main RNG (which feeds workload generators).
      rng_(cluster.config().seed ^ 0x7265706c61796aULL) {}

void TupleTracker::register_root(std::uint64_t root_id,
                                 sched::TaskId spout_task,
                                 topo::TupleRef tuple, int attempt,
                                 std::uint64_t uid) {
  // A forced re-registration of a tracked root id (spouts re-draw against
  // contains(), but direct callers can still collide) must not overwrite
  // live accounting: settle the old entry first. A live predecessor is
  // recorded as failed (its ack can never be told apart from ours again);
  // a failed one just loses the rest of its late-ack grace window.
  if (Entry* stale = entries_.find(root_id); stale != nullptr) {
    if (!stale->failed) {
      cluster_.sim().cancel(stale->timeout_event);
      recorder_.record_failure(cluster_.sim().now());
      if (--pending_[stale->spout_task] <= 0) {
        pending_.erase(stale->spout_task);
      }
      --in_flight_;
      release_tree(stale->uid);
    }
    entries_.erase(root_id);
  }
  Entry e;
  e.spout_task = spout_task;
  e.emit_time = cluster_.sim().now();
  e.tuple = std::move(tuple);
  e.attempt = attempt;
  e.uid = uid != 0 ? uid : root_id;
  if (cluster_.state_enabled()) {
    // A replay takes over the open-work unit its pending replay held; any
    // other registration opens one, and a new tree joins its spout's ring.
    bool inserted = false;
    int& open = open_trees_.get_or_insert(e.uid, &inserted);
    if (inserted) {
      const auto t = static_cast<std::size_t>(spout_task);
      if (t >= tree_starts_.size()) tree_starts_.resize(t + 1);
      // Popping here too bounds the ring of a spout that never sees a
      // barrier (no stateful bolt downstream).
      pop_resolved(tree_starts_[t]);
      tree_starts_[t].push_back({e.emit_time, e.uid});
    }
    if (inserted || attempt == 0) ++open;
  }
  e.epoch = ++next_epoch_;
  const std::uint64_t epoch = e.epoch;
  e.timeout_event = cluster_.sim().schedule_after(
      cluster_.config().tuple_timeout,
      [this, root_id, epoch] { on_timeout(root_id, epoch); });
  entries_[root_id] = std::move(e);
  ++pending_[spout_task];
  ++in_flight_;
  ++total_registered_;
}

void TupleTracker::on_ack_complete(std::uint64_t root_id) {
  Entry* it = entries_.find(root_id);
  if (it == nullptr) return;  // duplicate ack
  Entry& e = *it;
  if (e.failed) {
    // Acked after the timeout fired: the work did complete, just too late
    // (paper Fig. 3 shows processing times far beyond the 30 s timeout).
    recorder_.record_completion(e.emit_time, cluster_.sim().now(),
                                /*late=*/true);
  } else {
    cluster_.sim().cancel(e.timeout_event);
    recorder_.record_completion(e.emit_time, cluster_.sim().now(),
                                /*late=*/false);
    // Erase exhausted per-spout counters so the map tracks live spouts,
    // not every spout task ever seen.
    if (--pending_[e.spout_task] <= 0) pending_.erase(e.spout_task);
    --in_flight_;
    release_tree(e.uid);
  }
  entries_.erase(root_id);
  cluster_.tuple_trace().finish_root(root_id, cluster_.sim().now(),
                                     /*completed=*/true);
}

double TupleTracker::backoff_delay(int attempt) const {
  const ClusterConfig& cfg = cluster_.config();
  if (cfg.replay_backoff_base <= 0.0) return 0.0;
  // min(base * 2^attempt, max), with attempt counted from 1 (first replay
  // waits one base period).
  const int exponent = std::max(0, attempt - 1);
  double delay = cfg.replay_backoff_base * std::ldexp(1.0, exponent);
  delay = std::min(delay, cfg.replay_backoff_max);
  if (cfg.replay_backoff_jitter > 0.0) {
    delay *= 1.0 + cfg.replay_backoff_jitter * rng_.uniform();
  }
  return delay;
}

double TupleTracker::retry_delay() const {
  // At least a quarter second even with backoff disabled, or a dead spout
  // would be re-polled every event.
  return std::max(cluster_.config().replay_backoff_base, 0.25);
}

void TupleTracker::requeue_replay(Envelope env) {
  const sched::TaskId spout_task = env.dst;
  const int attempt = env.attempt;
  const std::uint64_t uid = env.path;
  topo::TupleRef tuple = std::move(env.tuple);
  // Already counted as a replay at its first dispatch: record=false.
  cluster_.sim().schedule_after(
      retry_delay(),
      [this, tuple = std::move(tuple), spout_task, attempt, uid] {
        dispatch_replay(spout_task, tuple, attempt, uid, /*record=*/false);
      });
}

void TupleTracker::dispatch_replay(sched::TaskId spout_task,
                                   topo::TupleRef tuple, int attempt,
                                   std::uint64_t uid, bool record) {
  if (record) recorder_.record_replay(cluster_.sim().now());
  Envelope replay;
  replay.kind = MsgKind::kReplay;
  replay.tuple = tuple;  // keep our ref: a failed delivery may retry
  replay.attempt = attempt;
  replay.path = uid;
  if (cluster_.deliver_control(spout_task, std::move(replay))) return;
  // No live spout instance at dispatch time (topology killed, or node
  // dead with no reassignment published yet). In state mode, retry while
  // the topology still has an assignment — exactly-once soaks need every
  // tree to land, and reassignment will revive the spout. Otherwise the
  // root fails terminally.
  if (cluster_.state_enabled() &&
      cluster_.coordination().get(cluster_.task_info(spout_task).topology) !=
          nullptr) {
    cluster_.sim().schedule_after(
        retry_delay(),
        [this, tuple = std::move(tuple), spout_task, attempt, uid] {
          dispatch_replay(spout_task, tuple, attempt, uid, /*record=*/false);
        });
    return;
  }
  ++replays_dropped_;
  release_tree(uid);
}

void TupleTracker::on_timeout(std::uint64_t root_id, std::uint64_t epoch) {
  Entry* it = entries_.find(root_id);
  if (it == nullptr || it->epoch != epoch) return;
  Entry& e = *it;
  e.timeout_event = sim::kInvalidEvent;
  e.failed = true;
  recorder_.record_failure(cluster_.sim().now());
  if (--pending_[e.spout_task] <= 0) pending_.erase(e.spout_task);
  --in_flight_;
  cluster_.tuple_trace().finish_root(root_id, cluster_.sim().now(),
                                     /*completed=*/false);

  // Notify the (current) spout instance so user code sees fail().
  if (Executor* inst = cluster_.resolve(
          e.spout_task, std::numeric_limits<sched::AssignmentVersion>::max());
      inst != nullptr) {
    inst->on_root_failed(root_id);
  }

  // The failed attempt's open-work unit passes to its replay, if any.
  const int max_replays = cluster_.config().max_replays;
  if (max_replays <= 0 || e.attempt + 1 > max_replays || !e.tuple) {
    release_tree(e.uid);
  } else {
    const double delay = backoff_delay(e.attempt + 1);
    if (delay <= 0.0) {
      dispatch_replay(e.spout_task, e.tuple, e.attempt + 1, e.uid);
    } else {
      // Captures {this, TupleRef, task, attempt, uid} = 40 bytes: inside
      // InlineFn's inline buffer, no heap allocation per replay. The ref
      // keeps the pooled tuple alive until the replay dispatches, even if
      // the tracker entry is erased meanwhile.
      const sched::TaskId spout_task = e.spout_task;
      const int attempt = e.attempt + 1;
      const std::uint64_t uid = e.uid;
      topo::TupleRef tuple = e.tuple;
      cluster_.sim().schedule_after(
          delay, [this, tuple = std::move(tuple), spout_task, attempt, uid] {
            dispatch_replay(spout_task, tuple, attempt, uid);
          });
    }
  }
  // Keep the entry (minus the retained tuple) so a late ack can still be
  // recorded as a late completion — but only for a bounded grace period,
  // or overloaded runs would leak an entry per failed tuple.
  e.tuple.reset();
  cluster_.sim().schedule_after(
      cluster_.config().late_ack_grace_factor *
          cluster_.config().tuple_timeout,
      [this, root_id, epoch] {
        const Entry* eit = entries_.find(root_id);
        if (eit != nullptr && eit->epoch == epoch && eit->failed) {
          entries_.erase(root_id);
        }
      });
}

void TupleTracker::release_tree(std::uint64_t uid) {
  int* open = open_trees_.find(uid);
  if (open != nullptr && --*open <= 0) open_trees_.erase(uid);
}

void TupleTracker::pop_resolved(sim::RingDeque<TreeStart>& ring) const {
  while (!ring.empty() && !open_trees_.contains(ring.front().uid)) {
    ring.pop_front();
  }
}

sim::Time TupleTracker::oldest_unresolved(sched::TaskId spout_task) {
  const auto t = static_cast<std::size_t>(spout_task);
  if (t < tree_starts_.size()) {
    pop_resolved(tree_starts_[t]);
    if (!tree_starts_[t].empty()) return tree_starts_[t].front().time;
  }
  return cluster_.sim().now();
}

int TupleTracker::pending(sched::TaskId spout_task) const {
  const int* it = pending_.find(spout_task);
  return it == nullptr ? 0 : *it;
}

}  // namespace tstorm::runtime
