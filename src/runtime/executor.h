// Executors: the threads that run tasks. Each executor is a single-server
// queue — envelopes wait FIFO, service time derives from the component's
// declared CPU cost, the node's processor-sharing factor (overload!) and
// context-switch inflation, plus any blocking I/O. Subclasses implement
// spout, bolt, and acker semantics.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "runtime/envelope.h"
#include "runtime/task.h"
#include "sim/flat_map.h"
#include "sim/ring_deque.h"
#include "sim/simulation.h"
#include "state/state_store.h"
#include "topo/component.h"

namespace tstorm::runtime {

class Cluster;
class Worker;

class Executor {
 public:
  Executor(Cluster& cluster, Worker& worker, const TaskInfo& info);
  virtual ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Registers with the cluster router and the node; prepares user code.
  void start();

  /// Unregisters; drops queued envelopes (they are lost, as when a Storm
  /// worker process is killed).
  void shutdown();

  /// Enqueues an envelope; starts service if idle. Dropped if not running.
  /// With flow control enabled, a data envelope arriving at a hard-full
  /// queue is shed per FlowConfig::shed_policy (control messages always
  /// pass — dropping acks would wedge the protocol, not relieve load).
  void deliver(Envelope env);

  [[nodiscard]] const TaskInfo& info() const { return info_; }
  [[nodiscard]] sched::TaskId task() const { return info_.task; }
  [[nodiscard]] Worker& worker() { return worker_; }
  [[nodiscard]] const Worker& worker() const { return worker_; }
  /// Cached at construction — an executor never migrates between workers
  /// (reassignment spawns a fresh instance), and this sits on the
  /// per-envelope service path.
  [[nodiscard]] sched::NodeId node_id() const { return node_id_; }
  [[nodiscard]] bool running() const { return running_; }
  [[nodiscard]] std::size_t queue_depth() const { return queue_.size(); }
  /// Queued *data* envelopes only — what the flow-control watermarks and
  /// capacity bound count (includes the in-service one while busy).
  [[nodiscard]] std::size_t data_queue_depth() const { return data_queued_; }

  /// --- Load-monitor hooks (paper section IV-B). ---
  /// Mega-cycles consumed since the last call (divide by the sampling
  /// period for MHz).
  double take_mega_cycles();
  /// Wire bytes sent since the last call (divide by the sampling period
  /// for the executor's network demand).
  std::uint64_t take_sent_bytes() {
    const std::uint64_t bytes = sent_bytes_;
    sent_bytes_ = 0;
    return bytes;
  }
  /// Wire bytes of everything currently queued (the executor's transient
  /// memory footprint). Walks the queue — sampling-path only, not hot.
  [[nodiscard]] std::uint64_t queued_bytes() const {
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < queue_.size(); ++i) total += queue_[i].bytes();
    return total;
  }
  /// Envelopes sent per destination task since the last call: invokes
  /// `fn(dst, count)` per destination, then resets the counters (capacity
  /// is kept — the sampling loop performs no steady-state allocations).
  template <typename Fn>
  void drain_sent(Fn&& fn) {
    sent_.for_each([&fn](sched::TaskId dst, std::uint64_t count) {
      fn(dst, count);
    });
    sent_.clear();
  }

  /// Spout-only hooks with no-op defaults (avoids downcasts in the
  /// tracker and the cluster's spout-pause path).
  virtual void on_root_failed(std::uint64_t /*root_id*/) {}
  virtual void pause_spout_until(sim::Time /*t*/) {}

  /// State hooks with no-op defaults. on_checkpoint_committed releases the
  /// acks a stateful bolt deferred against rounds <= ckpt; state_store is
  /// non-null only for bolt executors hosting a stateful component.
  virtual void on_checkpoint_committed(std::uint64_t /*ckpt*/) {}
  [[nodiscard]] virtual const state::StateStore* state_store() const {
    return nullptr;
  }
  /// Acks still gated on a checkpoint commit (observability: a stuck
  /// queue here means rounds stopped completing for this executor).
  [[nodiscard]] virtual std::size_t deferred_ack_count() const { return 0; }
  /// Covering round of the oldest gated ack (0 = untagged: enqueued since
  /// the last alignment here).
  [[nodiscard]] virtual std::uint64_t deferred_head_round() const {
    return 0;
  }

 protected:
  /// Runs the component logic for one envelope (after its service time).
  virtual void process(Envelope& env) = 0;
  /// CPU cost of servicing `env` in mega-cycles.
  [[nodiscard]] virtual double service_cost_mc(const Envelope& env) const = 0;
  /// Blocking I/O portion of the service (occupies the thread, not CPU).
  [[nodiscard]] virtual double service_io_s(const Envelope& /*env*/) const {
    return 0.0;
  }
  /// Called from start() after registration.
  virtual void on_start() {}
  /// Called from shutdown() before deregistration.
  virtual void on_shutdown() {}

  friend class EmissionHelper;

  /// Sends an envelope to a destination task through the cluster (records
  /// the send for the load monitor).
  void send_to(sched::TaskId dst, Envelope env);

  Cluster& cluster_;
  Worker& worker_;
  sched::NodeId node_id_;

 private:
  void begin_service();
  void finish_service();
  /// Evicts the oldest queued data envelope (skipping the in-service front
  /// while busy) to make room for an arrival. False if none is evictable.
  bool shed_oldest_data();

  // By value: the cluster's task table can reallocate on later submits.
  const TaskInfo info_;
  sim::RingDeque<Envelope> queue_;
  std::size_t data_queued_ = 0;
  bool running_ = false;
  bool busy_ = false;
  sim::EventId service_event_ = sim::kInvalidEvent;
  double mega_cycles_ = 0;
  std::uint64_t sent_bytes_ = 0;
  sim::FlatMap<sched::TaskId, std::uint64_t, -1> sent_;
};

/// Shared emission logic: computes target tasks per subscription and
/// grouping, assigns fresh XOR edge ids, and sends data envelopes.
/// Returns the XOR of all new edge ids (for the ack protocol).
class EmissionHelper {
 public:
  EmissionHelper(Cluster& cluster, Executor& self);

  /// Emits `tuple` from `self`'s component to all subscribers. Each send
  /// copies the ref (one refcount bump), never the tuple itself. `path` is
  /// the emission's exactly-once lineage id (0 outside state mode); when
  /// nonzero, shuffle grouping routes by hash of the path instead of the
  /// round-robin counter, so every replay attempt of a tree reaches the
  /// same consumer tasks (the dedup sets' locality requirement).
  std::uint64_t emit(const topo::TupleRef& tuple, std::uint64_t root_id,
                     std::uint64_t path = 0);

  /// Direct grouping emission to one task of a named consumer.
  std::uint64_t emit_direct(const std::string& consumer, int task_index,
                            const topo::TupleRef& tuple,
                            std::uint64_t root_id, std::uint64_t path = 0);

  /// Sends one kBarrier envelope (root_id = ckpt, carrying `stamp`) to
  /// every consumer task on every subscription — each input channel sees
  /// the barrier once.
  void broadcast_barrier(std::uint64_t ckpt, double stamp);

 private:
  struct Out {
    const topo::ComponentDef* consumer;
    topo::StreamSubscription sub;
    std::vector<sched::TaskId> targets;  // consumer tasks, sorted
    std::uint64_t shuffle_counter = 0;
  };

  Cluster& cluster_;
  Executor& self_;
  std::vector<Out> outs_;
};

class BoltExecutor final : public Executor, private topo::BoltContext {
 public:
  BoltExecutor(Cluster& cluster, Worker& worker, const TaskInfo& info);

  void on_checkpoint_committed(std::uint64_t ckpt) override;
  [[nodiscard]] const state::StateStore* state_store() const override {
    return store_.get();
  }
  [[nodiscard]] std::size_t deferred_ack_count() const override {
    return deferred_.size();
  }
  [[nodiscard]] std::uint64_t deferred_head_round() const override {
    return deferred_.empty() ? 0 : deferred_.front().ckpt;
  }

 protected:
  void process(Envelope& env) override;
  [[nodiscard]] double service_cost_mc(const Envelope& env) const override;
  [[nodiscard]] double service_io_s(const Envelope& env) const override;
  void on_start() override;

 private:
  // BoltContext:
  void emit(topo::Tuple tuple) override;
  void emit_direct(const std::string& consumer, int task_index,
                   topo::Tuple tuple) override;
  [[nodiscard]] int task_index() const override { return info().index; }
  [[nodiscard]] int component_parallelism() const override {
    return info().component->parallelism;
  }

  void ack_input(const Envelope& env, std::uint64_t emitted_xor);
  void schedule_tick();
  void on_shutdown() override;

  /// Runs one data envelope through dedup + execute + ack (the post-
  /// alignment-hold half of process()).
  void process_data(Envelope& env);
  /// Barrier alignment (state mode; all bolts align, stateful ones also
  /// snapshot). See the .cpp for the protocol.
  void on_barrier(const Envelope& env);
  void complete_alignment(std::uint64_t ckpt);
  void drain_held();
  void apply_restore();
  /// Lineage path of the next emission while current_ is being processed
  /// (0 outside state mode or for unanchored inputs).
  [[nodiscard]] std::uint64_t next_emission_path();

  std::unique_ptr<topo::Bolt> bolt_;
  std::unique_ptr<EmissionHelper> emitter_;
  const Envelope* current_ = nullptr;
  std::uint64_t emitted_xor_ = 0;
  sim::EventId tick_event_ = sim::kInvalidEvent;
  bool tick_queued_ = false;

  /// --- Stateful operators (cluster config state.enabled). ---
  bool state_mode_ = false;
  /// Keyed store; non-null only for stateful components (bound into the
  /// bolt before prepare(), snapshotted at barriers, restored on restart).
  std::unique_ptr<state::StateStore> store_;
  /// Producer tasks across all input subscriptions (sorted, unique): one
  /// barrier per round must arrive from each before alignment completes.
  std::vector<sched::TaskId> barrier_sources_;
  /// Highest barrier round seen per producer task.
  sim::FlatMap<sched::TaskId, std::uint64_t, -1> barrier_seen_;
  /// Round currently aligning (0 = none) and last round aligned here.
  std::uint64_t aligning_ = 0;
  std::uint64_t last_aligned_ = 0;
  /// Least stamp among the barriers of the round aligning here (forwarded
  /// downstream with it), and the stamp of the last round aligned here:
  /// the next round retires dedup entries inserted before it.
  double aligning_stamp_ = 0;
  double last_stamp_ = 0;
  /// Post-barrier data from already-barriered channels, parked until the
  /// round completes or aborts (their service time was already paid).
  sim::RingDeque<Envelope> held_;
  /// Acks awaiting durability: tagged with their covering round at
  /// alignment, released by on_checkpoint_committed.
  struct DeferredAck {
    Envelope ack;
    std::uint64_t ckpt = 0;  // 0 = not yet covered by a round
  };
  sim::RingDeque<DeferredAck> deferred_;
  /// Per-input emission counter feeding child_path().
  std::uint64_t emission_ordinal_ = 0;
  /// Pending rehydration (copied from the durable store at on_start; the
  /// kStateRestore envelope pays read latency + bytes/bandwidth first).
  std::unique_ptr<state::Snapshot> restore_snap_;
  std::uint64_t restore_ckpt_ = 0;
};

class SpoutExecutor final : public Executor {
 public:
  SpoutExecutor(Cluster& cluster, Worker& worker, const TaskInfo& info);

  /// Suspends emission until the given time (T-Storm reassignment halt).
  void pause_until(sim::Time t);

  void on_root_failed(std::uint64_t root_id) override;
  void pause_spout_until(sim::Time t) override { pause_until(t); }

 protected:
  void process(Envelope& env) override;
  [[nodiscard]] double service_cost_mc(const Envelope& env) const override;
  void on_start() override;
  void on_shutdown() override;

 private:
  void poll();
  /// Emits a root tuple. `uid` is the tree uid for exactly-once lineage:
  /// 0 for fresh emissions (the drawn root id becomes the uid), the
  /// original attempt-0 uid for replays (carried in Envelope::path), so
  /// every attempt derives identical emission paths.
  void emit_root(topo::TupleRef tuple, int attempt, std::uint64_t uid);

  std::unique_ptr<topo::Spout> spout_;
  std::unique_ptr<EmissionHelper> emitter_;
  sim::EventId poll_event_ = sim::kInvalidEvent;
  bool emit_queued_ = false;
  sim::Time paused_until_ = 0;
  std::vector<sched::TaskId> acker_tasks_;
  /// Failed tuples waiting to be re-emitted. Drained through the same
  /// rate-controlled emission path as fresh tuples (one per poll), exactly
  /// like a Storm spout replaying from its source on nextTuple — replays
  /// must not bypass rate control or an overloaded topology can never
  /// drain its failure backlog.
  sim::RingDeque<Envelope> replay_buffer_;
};

class AckerExecutor final : public Executor {
 public:
  AckerExecutor(Cluster& cluster, Worker& worker, const TaskInfo& info);

  [[nodiscard]] std::size_t pending_entries() const {
    return pending_.size();
  }

 protected:
  void process(Envelope& env) override;
  [[nodiscard]] double service_cost_mc(const Envelope& env) const override;

 private:
  struct AckState {
    std::uint64_t xor_val = 0;
    sched::TaskId spout_task = -1;
    sim::Time created = 0;
    bool init_seen = false;
  };

  /// Storm's acker keeps its pending map in a RotatingMap so trees whose
  /// tuples were lost don't leak: entries older than twice the tuple
  /// timeout are dropped. Swept lazily every kSweepInterval messages.
  void maybe_expire();

  static constexpr std::uint64_t kSweepInterval = 4096;
  /// Flat map keyed by root id (never 0): no node allocation per tree —
  /// capacity plateaus at the in-flight high-water mark.
  sim::FlatMap<std::uint64_t, AckState, 0> pending_;
  std::uint64_t processed_ = 0;
};

}  // namespace tstorm::runtime
