#include "runtime/executor.h"

#include <algorithm>
#include <cassert>
#include <limits>

#include "runtime/cluster.h"
#include "runtime/worker.h"

namespace tstorm::runtime {

// ---------------------------------------------------------------- Executor

Executor::Executor(Cluster& cluster, Worker& worker, const TaskInfo& info)
    : cluster_(cluster),
      worker_(worker),
      node_id_(worker.node_id()),
      info_(info) {}

Executor::~Executor() {
  // Workers call shutdown() before destruction; this is a backstop so a
  // destroyed executor can never stay registered.
  if (running_) shutdown();
}

void Executor::start() {
  assert(!running_);
  running_ = true;
  cluster_.node(node_id()).thread_started();
  cluster_.register_executor(this);
  on_start();
}

void Executor::shutdown() {
  if (!running_) return;
  on_shutdown();
  if (busy_) {
    cluster_.sim().cancel(service_event_);
    service_event_ = sim::kInvalidEvent;
    cluster_.node(node_id()).service_finished();
    busy_ = false;
  }
  // Queued envelopes are lost with the worker process; data tuples will
  // surface as timeouts at their spouts. Replay envelopes carry tuples
  // too — a replay queued at a dying spout is just as lost as fresh data,
  // so it must be attributed or conservation audits under-count. In state
  // mode replays are instead handed back to the tracker for re-dispatch:
  // exactly-once soaks need every tree to eventually land, and the dedup
  // sets make the extra attempt harmless.
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    Envelope& env = queue_[i];
    if (env.kind == MsgKind::kReplay && cluster_.state_enabled() &&
        env.tuple) {
      cluster_.tracker().requeue_replay(std::move(env));
    } else if (env.kind == MsgKind::kData || env.kind == MsgKind::kReplay) {
      cluster_.note_drop(DropCause::kShutdownDrain);
    }
  }
  queue_.clear();
  data_queued_ = 0;
  cluster_.flow().forget(this, info_.topology);
  running_ = false;
  cluster_.unregister_executor(this);
  cluster_.node(node_id()).thread_finished();
}

void Executor::deliver(Envelope env) {
  if (!running_) {
    if (env.kind == MsgKind::kData) {
      cluster_.note_drop(DropCause::kDeadInstance);
    }
    return;
  }
  // Tuple tracing: close the network-hop span, open the queue wait.
  if (env.trace_t0 >= 0.0) {
    const sim::Time now = cluster_.sim().now();
    cluster_.tuple_trace().add_span(
        env.root_id, obs::Span{obs::SpanKind::kNetworkHop, task(), env.src,
                               node_id(), env.trace_t0, now});
    env.trace_t0 = now;
  }
  flow::FlowController& flow = cluster_.flow();
  if (flow.enabled() && env.kind == MsgKind::kData &&
      data_queued_ >= static_cast<std::size_t>(flow.capacity())) {
    // Hard-full: shed. Either the arrival is the victim, or the oldest
    // queued data tuple is evicted to admit it (falling back to the
    // arrival when nothing is evictable — e.g. the only queued data
    // envelope is the one in service).
    if (flow.choose_victim() == flow::ShedVictim::kNewest ||
        !shed_oldest_data()) {
      cluster_.note_drop(DropCause::kLoadShed);
      flow.note_shed(info_.topology, task(), node_id());
      return;
    }
  }
  if (env.kind == MsgKind::kData) ++data_queued_;
  queue_.push_back(std::move(env));
  flow.on_enqueue(this, info_.topology, data_queued_);
  if (!busy_) begin_service();
}

bool Executor::shed_oldest_data() {
  // While busy, queue_.front() is the in-service envelope — evicting it
  // would corrupt the service in flight, so the scan starts at 1.
  for (std::size_t i = busy_ ? 1 : 0; i < queue_.size(); ++i) {
    if (queue_[i].kind != MsgKind::kData) continue;
    queue_.erase_at(i);
    --data_queued_;
    cluster_.note_drop(DropCause::kLoadShed);
    cluster_.flow().note_shed(info_.topology, task(), node_id());
    return true;
  }
  return false;
}

void Executor::begin_service() {
  assert(!queue_.empty());
  busy_ = true;
  WorkerNode& node = cluster_.node(node_id());
  node.service_started();

  Envelope& env = queue_.front();
  // Tuple tracing: close the queue-wait span, open the execute phase.
  if (env.trace_t0 >= 0.0) {
    const sim::Time now = cluster_.sim().now();
    cluster_.tuple_trace().add_span(
        env.root_id, obs::Span{obs::SpanKind::kQueueWait, task(), -1,
                               node_id(), env.trace_t0, now});
    env.trace_t0 = now;
  }
  const double mc = service_cost_mc(env);
  mega_cycles_ += mc;

  // Processor sharing: when more threads compute than cores exist, each
  // runs proportionally slower (overload -> queueing -> Fig. 3). Context
  // switching adds a smaller penalty per crowding thread.
  const double ps = node.processor_sharing_factor();
  const double cs =
      1.0 + cluster_.config().context_switch_coeff *
                node.crowding(cluster_.config().worker_overhead_threads);
  const double dt = (mc / node.per_core_mhz()) * ps * cs + service_io_s(env);

  service_event_ =
      cluster_.sim().schedule_after(dt, [this] { finish_service(); });
}

void Executor::finish_service() {
  service_event_ = sim::kInvalidEvent;
  cluster_.node(node_id()).service_finished();
  Envelope env = queue_.pop_front();
  busy_ = false;
  if (env.kind == MsgKind::kData) {
    --data_queued_;
    cluster_.flow().on_dequeue(this, info_.topology, data_queued_);
  }
  // Tuple tracing: close the execute span. Downstream sends made by
  // process() open fresh network hops via Cluster::send.
  if (env.trace_t0 >= 0.0) {
    cluster_.tuple_trace().add_span(
        env.root_id, obs::Span{obs::SpanKind::kExecute, task(), -1, node_id(),
                               env.trace_t0, cluster_.sim().now()});
    env.trace_t0 = -1.0;
  }
  process(env);
  if (running_ && !busy_ && !queue_.empty()) begin_service();
}

void Executor::send_to(sched::TaskId dst, Envelope env) {
  ++sent_[dst];
  sent_bytes_ += env.bytes();
  cluster_.send(*this, dst, std::move(env));
}

double Executor::take_mega_cycles() {
  const double v = mega_cycles_;
  mega_cycles_ = 0;
  return v;
}

// --------------------------------------------------------- EmissionHelper

EmissionHelper::EmissionHelper(Cluster& cluster, Executor& self)
    : cluster_(cluster), self_(self) {
  const auto& info = self.info();
  const auto& topology = cluster.topology(info.topology);
  for (const auto& consumer : topology.consumers_of(info.component->name)) {
    Out out;
    out.consumer = consumer.component;
    out.sub = consumer.subscription;
    out.targets =
        cluster.tasks_of_component(info.topology, consumer.component->name);
    std::sort(out.targets.begin(), out.targets.end());
    // Offset shuffle round-robin by task id so parallel producers do not
    // all hit the same consumer task in lockstep.
    out.shuffle_counter = static_cast<std::uint64_t>(info.task);
    outs_.push_back(std::move(out));
  }
}

namespace {

Envelope make_data(sched::TaskId dst, const topo::TupleRef& tuple,
                   std::uint64_t root_id, std::uint64_t edge,
                   std::uint64_t path) {
  Envelope env;
  env.kind = MsgKind::kData;
  env.dst = dst;
  env.tuple = tuple;
  env.root_id = root_id;
  env.xor_val = edge;
  env.path = path;
  return env;
}

}  // namespace

std::uint64_t EmissionHelper::emit(const topo::TupleRef& tuple,
                                   std::uint64_t root_id,
                                   std::uint64_t path) {
  std::uint64_t xor_edges = 0;
  for (auto& out : outs_) {
    if (out.targets.empty()) continue;
    switch (out.sub.grouping) {
      case topo::GroupingType::kShuffle: {
        // Path-hash routing in state mode: the counter would desynchronize
        // across replay attempts, sending the retry to a task whose dedup
        // set never saw the original.
        const auto i = path != 0
                           ? state::mix64(path) % out.targets.size()
                           : out.shuffle_counter++ % out.targets.size();
        const auto edge = cluster_.rng().next_u64();
        xor_edges ^= root_id != 0 ? edge : 0;
        self_.send_to(out.targets[i],
                      make_data(out.targets[i], tuple, root_id, edge, path));
        break;
      }
      case topo::GroupingType::kFields: {
        // Memoized per tuple: every hop that fields-groups on the same
        // declared field reuses the hash computed at first routing.
        const auto h = tuple->field_hash(
            static_cast<std::size_t>(std::max(0, out.sub.field_index)));
        const auto i = h % out.targets.size();
        const auto edge = cluster_.rng().next_u64();
        xor_edges ^= root_id != 0 ? edge : 0;
        self_.send_to(out.targets[i],
                      make_data(out.targets[i], tuple, root_id, edge, path));
        break;
      }
      case topo::GroupingType::kAll: {
        for (auto target : out.targets) {
          const auto edge = cluster_.rng().next_u64();
          xor_edges ^= root_id != 0 ? edge : 0;
          self_.send_to(target,
                        make_data(target, tuple, root_id, edge, path));
        }
        break;
      }
      case topo::GroupingType::kGlobal: {
        const auto target = out.targets.front();  // lowest task id
        const auto edge = cluster_.rng().next_u64();
        xor_edges ^= root_id != 0 ? edge : 0;
        self_.send_to(target, make_data(target, tuple, root_id, edge, path));
        break;
      }
      case topo::GroupingType::kDirect:
        // Direct subscribers only receive via emit_direct().
        break;
    }
  }
  return xor_edges;
}

std::uint64_t EmissionHelper::emit_direct(const std::string& consumer,
                                          int task_index,
                                          const topo::TupleRef& tuple,
                                          std::uint64_t root_id,
                                          std::uint64_t path) {
  for (auto& out : outs_) {
    if (out.consumer->name != consumer ||
        out.sub.grouping != topo::GroupingType::kDirect) {
      continue;
    }
    if (task_index < 0 ||
        task_index >= static_cast<int>(out.targets.size())) {
      return 0;
    }
    const auto target = out.targets[static_cast<std::size_t>(task_index)];
    const auto edge = cluster_.rng().next_u64();
    self_.send_to(target, make_data(target, tuple, root_id, edge, path));
    return root_id != 0 ? edge : 0;
  }
  return 0;
}

void EmissionHelper::broadcast_barrier(std::uint64_t ckpt, double stamp) {
  // One barrier per input channel: every consumer task hears from this
  // producer task once per round, on every subscription (direct included —
  // a direct subscriber is still an aligned input channel).
  for (auto& out : outs_) {
    for (auto target : out.targets) {
      Envelope barrier;
      barrier.kind = MsgKind::kBarrier;
      barrier.root_id = ckpt;
      barrier.dst = target;
      barrier.set_stamp(stamp);
      self_.send_to(target, std::move(barrier));
    }
  }
}

// ------------------------------------------------------------ BoltExecutor

BoltExecutor::BoltExecutor(Cluster& cluster, Worker& worker,
                           const TaskInfo& info)
    : Executor(cluster, worker, info) {}

void BoltExecutor::on_start() {
  bolt_ = info().component->bolt_factory();
  emitter_ = std::make_unique<EmissionHelper>(cluster_, *this);
  // Stateful components get their runtime-managed store whether or not
  // checkpointing is on — the bolt's keyed API must work either way; only
  // durability (barriers, snapshots, restore) is gated on state mode.
  if (info().component->stateful) {
    if (topo::StatefulBolt* stateful = bolt_->as_stateful();
        stateful != nullptr) {
      store_ = std::make_unique<state::StateStore>();
      stateful->bind_state(store_.get());
    }
  }
  state_mode_ = cluster_.state_enabled();
  if (state_mode_) {
    // Alignment channels: every producer task across all inputs.
    for (const auto& sub : info().component->inputs) {
      const auto srcs =
          cluster_.tasks_of_component(info().topology, sub.source);
      barrier_sources_.insert(barrier_sources_.end(), srcs.begin(),
                              srcs.end());
    }
    std::sort(barrier_sources_.begin(), barrier_sources_.end());
    barrier_sources_.erase(
        std::unique(barrier_sources_.begin(), barrier_sources_.end()),
        barrier_sources_.end());
    // Restore-on-(re)start: rehydrate from the last *completed* checkpoint
    // before serving data. The snapshot is staged here; the kStateRestore
    // envelope pays the read latency + bytes/bandwidth as service I/O.
    if (store_ != nullptr) {
      std::uint64_t ckpt = 0;
      if (const state::Snapshot* snap =
              cluster_.durable_state().completed(task(), &ckpt);
          snap != nullptr) {
        restore_snap_ = std::make_unique<state::Snapshot>(*snap);
        restore_ckpt_ = ckpt;
        Envelope restore;
        restore.kind = MsgKind::kStateRestore;
        deliver(std::move(restore));
      }
    }
  }
  bolt_->prepare(info().index, info().component->parallelism);
  if (info().component->tick_interval > 0) schedule_tick();
}

void BoltExecutor::on_shutdown() {
  if (tick_event_ != sim::kInvalidEvent) {
    cluster_.sim().cancel(tick_event_);
    tick_event_ = sim::kInvalidEvent;
  }
  // Held post-barrier data dies with the executor exactly like queued
  // data; deferred acks just vanish (their trees time out and replay).
  for (std::size_t i = 0; i < held_.size(); ++i) {
    if (held_[i].kind == MsgKind::kData) {
      cluster_.note_drop(DropCause::kShutdownDrain);
    }
  }
  held_.clear();
  deferred_.clear();
  aligning_ = 0;
}

void BoltExecutor::on_checkpoint_committed(std::uint64_t ckpt) {
  // deferred_ is FIFO with non-decreasing round tags, untagged (0) last:
  // release the covered prefix.
  while (!deferred_.empty() && deferred_[0].ckpt != 0 &&
         deferred_[0].ckpt <= ckpt) {
    DeferredAck d = deferred_.pop_front();
    send_to(d.ack.dst, std::move(d.ack));
  }
}

void BoltExecutor::schedule_tick() {
  tick_event_ = cluster_.sim().schedule_after(
      info().component->tick_interval, [this] {
        schedule_tick();
        // Like the spout's emit signal: at most one tick in the queue.
        if (!tick_queued_) {
          tick_queued_ = true;
          Envelope tick;
          tick.kind = MsgKind::kTick;
          deliver(std::move(tick));
        }
      });
}

double BoltExecutor::service_cost_mc(const Envelope& env) const {
  if (env.kind == MsgKind::kData && env.tuple) {
    return bolt_->cpu_cost_mega_cycles(*env.tuple);
  }
  if (env.kind == MsgKind::kTick) return bolt_->tick_cost_mega_cycles();
  if (env.kind == MsgKind::kBarrier) {
    return cluster_.config().state.barrier_cost_mc;
  }
  return 0.001;
}

double BoltExecutor::service_io_s(const Envelope& env) const {
  if (env.kind == MsgKind::kData && env.tuple) {
    return bolt_->io_time_seconds(*env.tuple);
  }
  if (env.kind == MsgKind::kStateRestore && restore_snap_ != nullptr) {
    const auto& cfg = cluster_.config().state;
    return cfg.store_read_latency +
           static_cast<double>(restore_snap_->bytes) /
               cfg.store_read_bandwidth;
  }
  return 0.0;
}

void BoltExecutor::process(Envelope& env) {
  if (env.kind == MsgKind::kTick) {
    tick_queued_ = false;
    // Tick emissions are unanchored (root id 0), like Storm tick tuples.
    current_ = nullptr;
    emitted_xor_ = 0;
    bolt_->on_tick(*this);
    return;
  }
  if (env.kind == MsgKind::kBarrier) {
    on_barrier(env);
    return;
  }
  if (env.kind == MsgKind::kStateRestore) {
    apply_restore();
    return;
  }
  if (env.kind != MsgKind::kData || !env.tuple) return;
  // Mid-alignment, data on an already-barriered channel belongs to the
  // next epoch: park it until the round completes or aborts.
  if (aligning_ != 0) {
    const std::uint64_t* seen = barrier_seen_.find(env.src);
    if (seen != nullptr && *seen >= aligning_) {
      held_.push_back(std::move(env));
      return;
    }
  }
  process_data(env);
}

void BoltExecutor::process_data(Envelope& env) {
  current_ = &env;
  emitted_xor_ = 0;
  emission_ordinal_ = 0;
  // Exactly-once dedup: an update path already applied means this envelope
  // is a replayed duplicate. Its state effect must not re-apply, but its
  // children must still flow — a stateless consumer downstream may never
  // have received the original attempt's child if it was lost below this
  // bolt, and skipping the emission would ack the tree while that consumer
  // never sees the tuple in any attempt. Re-execute with the store in
  // replay mode (mutations suppressed, reads see post-application totals):
  // children re-emit on the same deterministic lineage paths, so stateful
  // descendants dedup them and stateless descendants keep at-least-once
  // delivery.
  const bool duplicate = state_mode_ && store_ != nullptr && env.path != 0 &&
                         !store_->dedup_insert(env.path, cluster_.sim().now());
  if (duplicate) {
    cluster_.note_state_dedup();
    store_->set_replay(true);
  }
  bolt_->execute(*env.tuple, *this);
  if (duplicate) store_->set_replay(false);
  ack_input(env, emitted_xor_);
  current_ = nullptr;
}

std::uint64_t BoltExecutor::next_emission_path() {
  if (!state_mode_ || current_ == nullptr || current_->path == 0) return 0;
  return state::child_path(current_->path, emission_ordinal_++);
}

void BoltExecutor::emit(topo::Tuple tuple) {
  const topo::TupleRef ref = topo::TupleRef::make(std::move(tuple));
  const std::uint64_t root = current_ != nullptr ? current_->root_id : 0;
  emitted_xor_ ^= emitter_->emit(ref, root, next_emission_path());
}

void BoltExecutor::emit_direct(const std::string& consumer, int task_index,
                               topo::Tuple tuple) {
  const topo::TupleRef ref = topo::TupleRef::make(std::move(tuple));
  const std::uint64_t root = current_ != nullptr ? current_->root_id : 0;
  emitted_xor_ ^= emitter_->emit_direct(consumer, task_index, ref, root,
                                        next_emission_path());
}

void BoltExecutor::ack_input(const Envelope& env, std::uint64_t emitted_xor) {
  if (env.root_id == 0) return;  // unanchored
  const auto& ackers = cluster_.acker_tasks(info().topology);
  if (ackers.empty()) return;
  Envelope ack;
  ack.kind = MsgKind::kAck;
  ack.root_id = env.root_id;
  ack.xor_val = env.xor_val ^ emitted_xor;
  const auto target = ackers[env.root_id % ackers.size()];
  ack.dst = target;
  // Checkpoint-gated acks at stateful bolts: completing a tree whose
  // update exists only in memory would let a crash lose an "acked" update.
  // The ack leaves when the covering round is durably complete. Duplicates
  // defer too — the dedup entry that suppressed them is just as volatile.
  if (state_mode_ && store_ != nullptr) {
    deferred_.push_back({std::move(ack), 0});
    return;
  }
  send_to(target, std::move(ack));
}

void BoltExecutor::on_barrier(const Envelope& env) {
  if (!state_mode_) return;
  const std::uint64_t ckpt = env.root_id;
  std::uint64_t& seen = barrier_seen_[env.src];
  if (ckpt <= seen) return;  // duplicate channel copy of this round
  seen = ckpt;
  if (ckpt <= last_aligned_) return;  // stale round already finished here
  // A straggler barrier for a round older than the one mid-alignment
  // (its round was aborted before this copy arrived): adopting it would
  // regress aligning_ and drain data parked behind the newer barrier
  // before the newer snapshot. The channel's seen mark is recorded above;
  // its barrier for the current round is still awaited.
  if (aligning_ != 0 && ckpt < aligning_) return;
  if (aligning_ != 0 && ckpt > aligning_) {
    // A newer round's barrier means the coordinator aborted the one we
    // were aligning: abandon it and serve what we held.
    aligning_ = 0;
    drain_held();
  }
  aligning_stamp_ =
      aligning_ == ckpt ? std::min(aligning_stamp_, env.stamp()) : env.stamp();
  aligning_ = ckpt;
  for (sched::TaskId src : barrier_sources_) {
    const std::uint64_t* s = barrier_seen_.find(src);
    if (s == nullptr || *s < ckpt) return;  // still waiting on a channel
  }
  complete_alignment(ckpt);
}

void BoltExecutor::complete_alignment(std::uint64_t ckpt) {
  aligning_ = 0;
  last_aligned_ = ckpt;
  if (store_ != nullptr) {
    // Atomic unit: dedup sweep + keyed entries + dedup set snapshot
    // together, then tag the deferred acks this round covers. Crash before
    // the write lands -> state and dedup die together, the round aborts,
    // and the un-acked trees replay against the restored store.
    //
    // The sweep retires entries inserted before the previous round's
    // stamp: their trees were resolved before that round's barriers left
    // the spouts, so every tuple of theirs travelled ahead of those
    // barriers and has been served here. The stamp of this round would do
    // on FIFO channels; the one round of slack covers a message that a
    // later barrier overtakes on the wire (docs/MODEL.md, "Replay dedup").
    store_->sweep_dedup(last_stamp_);
    for (std::size_t i = 0; i < deferred_.size(); ++i) {
      if (deferred_[i].ckpt == 0) deferred_[i].ckpt = ckpt;
    }
    cluster_.state_write(*this, ckpt, store_->snapshot());
  }
  last_stamp_ = aligning_stamp_;
  // Forward the barrier downstream, then serve the parked epoch.
  emitter_->broadcast_barrier(ckpt, aligning_stamp_);
  drain_held();
}

void BoltExecutor::drain_held() {
  while (!held_.empty()) {
    Envelope env = held_.pop_front();
    process_data(env);
  }
}

void BoltExecutor::apply_restore() {
  if (store_ == nullptr || restore_snap_ == nullptr) return;
  store_->restore(*restore_snap_);
  trace::TraceLog& log = cluster_.trace_log();
  log.record({cluster_.sim().now(), trace::EventKind::kStateRestored,
              info().topology, node_id(), -1, 0,
              "task " + std::to_string(task()) + " round " +
                  std::to_string(restore_ckpt_) + ", " +
                  std::to_string(restore_snap_->entries.size()) +
                  " entries"});
  obs::DecisionRecord record;
  record.time = cluster_.sim().now();
  record.trigger = obs::DecisionTrigger::kRecovery;
  record.outcome = obs::DecisionOutcome::kNoChange;
  record.algorithm = "state-restore";
  record.reason = "task " + std::to_string(task()) +
                  " rehydrated from checkpoint " +
                  std::to_string(restore_ckpt_);
  cluster_.provenance().record(std::move(record));
  restore_snap_.reset();
}

// ----------------------------------------------------------- SpoutExecutor

SpoutExecutor::SpoutExecutor(Cluster& cluster, Worker& worker,
                             const TaskInfo& info)
    : Executor(cluster, worker, info) {}

void SpoutExecutor::on_start() {
  spout_ = info().component->spout_factory();
  emitter_ = std::make_unique<EmissionHelper>(cluster_, *this);
  acker_tasks_ = cluster_.acker_tasks(info().topology);
  spout_->prepare(info().index, info().component->parallelism);
  poll_event_ = cluster_.sim().schedule_after(
      info().component->emit_interval, [this] { poll(); });
}

void SpoutExecutor::on_shutdown() {
  if (poll_event_ != sim::kInvalidEvent) {
    cluster_.sim().cancel(poll_event_);
    poll_event_ = sim::kInvalidEvent;
  }
  // Replays parked for re-emission die with the spout; without a drop
  // record the conservation audit would see them vanish. In state mode
  // they return to the tracker instead (see Executor::shutdown).
  for (std::size_t i = 0; i < replay_buffer_.size(); ++i) {
    if (cluster_.state_enabled() && replay_buffer_[i].tuple) {
      cluster_.tracker().requeue_replay(std::move(replay_buffer_[i]));
    } else {
      cluster_.note_drop(DropCause::kShutdownDrain);
    }
  }
  replay_buffer_.clear();
}

void SpoutExecutor::pause_until(sim::Time t) {
  paused_until_ = std::max(paused_until_, t);
}

void SpoutExecutor::on_root_failed(std::uint64_t root_id) {
  if (spout_) spout_->on_fail(root_id);
}

void SpoutExecutor::poll() {
  // Rate control: one poll per emit_interval (the paper's spout sleeps
  // 5 ms between emissions; the sleep is excluded from processing time by
  // construction here — emission is instantaneous in simulated time).
  poll_event_ = cluster_.sim().schedule_after(
      info().component->emit_interval, [this] { poll(); });
  if (cluster_.sim().now() < paused_until_) return;
  const int max_pending = info().component->max_pending;
  if (max_pending > 0 &&
      cluster_.tracker().pending(task()) >= max_pending) {
    return;
  }
  if (!emit_queued_) {
    emit_queued_ = true;
    Envelope e;
    e.kind = MsgKind::kEmitSignal;
    deliver(std::move(e));
  }
}

double SpoutExecutor::service_cost_mc(const Envelope& env) const {
  switch (env.kind) {
    case MsgKind::kEmitSignal:
    case MsgKind::kReplay:
      return spout_->cpu_cost_mega_cycles();
    default:
      return cluster_.config().spout_control_cost_mc;
  }
}

void SpoutExecutor::process(Envelope& env) {
  switch (env.kind) {
    case MsgKind::kEmitSignal: {
      emit_queued_ = false;
      if (cluster_.sim().now() < paused_until_) return;
      // Replays first (a Storm spout re-emits failed ids before reading
      // new input), then fresh tuples — one emission per rate-control
      // slot either way.
      if (!replay_buffer_.empty()) {
        Envelope replay = replay_buffer_.pop_front();
        emit_root(std::move(replay.tuple), replay.attempt, replay.path);
        return;
      }
      auto next = spout_->next_tuple();
      if (next.has_value()) {
        emit_root(topo::TupleRef::make(std::move(*next)), /*attempt=*/0,
                  /*uid=*/0);
      }
      break;
    }
    case MsgKind::kReplay:
      if (env.tuple) replay_buffer_.push_back(std::move(env));
      break;
    case MsgKind::kBarrier:
      // Checkpoint round start: stamp the barrier into every output
      // channel. Pauses do not gate barriers — a throttled spout still
      // checkpoints.
      emitter_->broadcast_barrier(
          env.root_id, cluster_.tracker().oldest_unresolved(task()));
      break;
    case MsgKind::kAckComplete:
      cluster_.tracker().on_ack_complete(env.root_id);
      spout_->on_ack(env.root_id);
      break;
    default:
      break;
  }
}

void SpoutExecutor::emit_root(topo::TupleRef tuple, int attempt,
                              std::uint64_t uid) {
  if (acker_tasks_.empty()) {
    // No ackers: unanchored emission, no tracking (root id 0).
    emitter_->emit(tuple, 0);
    return;
  }
  std::uint64_t root = cluster_.rng().next_u64();
  if (root == 0) root = 1;
  // Root ids are drawn fresh per attempt, so a collision with a tracked
  // entry (live, or failed-in-grace) is a birthday accident — but an
  // overwrite would corrupt the tracker's pending/in-flight accounting.
  // Re-draw until unique among tracked roots.
  while (cluster_.tracker().contains(root)) {
    root = cluster_.rng().next_u64();
    if (root == 0) root = 1;
  }
  // Tree uid: attempt 0 coins it from its root id; replays inherit it, so
  // the lineage paths below are identical across attempts.
  if (uid == 0) uid = root;
  cluster_.tracker().register_root(root, task(), tuple, attempt, uid);
  obs::TupleTraceCollector& tt = cluster_.tuple_trace();
  if (tt.enabled() && tt.should_sample()) {
    const sim::Time now = cluster_.sim().now();
    tt.begin_root(root, task(), attempt, now);
    tt.add_span(root, obs::Span{obs::SpanKind::kEmit, task(), -1, node_id(),
                                now, now});
  }
  const std::uint64_t path =
      cluster_.state_enabled() ? state::root_path(uid) : 0;
  const std::uint64_t xor_edges = emitter_->emit(tuple, root, path);
  Envelope init;
  init.kind = MsgKind::kAckInit;
  init.root_id = root;
  init.xor_val = xor_edges;
  const auto target = acker_tasks_[root % acker_tasks_.size()];
  init.dst = target;
  send_to(target, std::move(init));
}

// ----------------------------------------------------------- AckerExecutor

AckerExecutor::AckerExecutor(Cluster& cluster, Worker& worker,
                             const TaskInfo& info)
    : Executor(cluster, worker, info) {}

double AckerExecutor::service_cost_mc(const Envelope& /*env*/) const {
  return cluster_.config().acker_cost_mc;
}

void AckerExecutor::maybe_expire() {
  if (++processed_ % kSweepInterval != 0) return;
  // Same horizon as the tracker's late-ack grace: trees that can still
  // complete observably must keep their XOR state.
  const sim::Time horizon =
      cluster_.sim().now() - cluster_.config().late_ack_grace_factor *
                                 cluster_.config().tuple_timeout;
  pending_.erase_if([horizon](std::uint64_t /*root*/, const AckState& st) {
    return st.created < horizon;
  });
}

void AckerExecutor::process(Envelope& env) {
  maybe_expire();
  AckState* st = nullptr;
  switch (env.kind) {
    case MsgKind::kAckInit: {
      st = &pending_[env.root_id];
      if (st->xor_val == 0 && !st->init_seen) {
        st->created = cluster_.sim().now();
      }
      st->xor_val ^= env.xor_val;
      st->spout_task = env.src;
      st->init_seen = true;
      break;
    }
    case MsgKind::kAck: {
      bool inserted = false;
      st = &pending_.get_or_insert(env.root_id, &inserted);
      if (inserted) st->created = cluster_.sim().now();
      st->xor_val ^= env.xor_val;
      break;
    }
    default:
      return;
  }
  if (st->init_seen && st->xor_val == 0) {
    const auto spout = st->spout_task;
    Envelope done;
    done.kind = MsgKind::kAckComplete;
    done.root_id = env.root_id;
    done.dst = spout;
    pending_.erase(env.root_id);  // invalidates st
    send_to(spout, std::move(done));
  }
}

}  // namespace tstorm::runtime
