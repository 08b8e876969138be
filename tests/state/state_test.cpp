// State subsystem tests: StateStore keyed API + exactly-once dedup,
// DurableStore two-phase (torn-snapshot) visibility, CheckpointCoordinator
// barrier rounds, and cluster-level integration — end-to-end checkpoints,
// crash mid-checkpoint, restore-on-reschedule, barrier alignment at a
// multi-input bolt, dedup drop attribution, and byte-identical determinism
// with checkpointing enabled.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "chaos/auditor.h"
#include "chaos/fault_plan.h"
#include "core/system.h"
#include "runtime/cluster.h"
#include "runtime/executor.h"
#include "state/checkpoint.h"
#include "state/durable_store.h"
#include "state/state_store.h"
#include "topo/builder.h"
#include "topo/tuple.h"
#include "workload/bolts.h"
#include "workload/external_queue.h"
#include "workload/topologies.h"

namespace tstorm::state {
namespace {

// ------------------------------------------------------------- StateStore

TEST(StateStore, PutGetIncrement) {
  StateStore s;
  EXPECT_EQ(s.get(topo::Value("a")), nullptr);
  s.put(topo::Value("a"), topo::Value(std::int64_t{7}));
  ASSERT_NE(s.get(topo::Value("a")), nullptr);
  EXPECT_EQ(s.get(topo::Value("a"))->as_int(), 7);

  EXPECT_EQ(s.increment(topo::Value("a")), 8);
  EXPECT_EQ(s.increment(topo::Value("a"), 2), 10);
  // Insert-at-zero for an absent key.
  EXPECT_EQ(s.increment(topo::Value("b")), 1);
  EXPECT_EQ(s.size(), 2u);
  EXPECT_GT(s.bytes(), 0u);
}

TEST(StateStore, MixedKeyKinds) {
  StateStore s;
  s.put(topo::Value(std::int64_t{42}), topo::Value("answer"));
  s.put(topo::Value(3.5), topo::Value(std::int64_t{1}));
  s.put(topo::Value("42"), topo::Value(std::int64_t{2}));  // != int 42
  EXPECT_EQ(s.size(), 3u);
  ASSERT_NE(s.get(topo::Value(std::int64_t{42})), nullptr);
  EXPECT_EQ(s.get(topo::Value(std::int64_t{42}))->as_string(), "answer");
  EXPECT_EQ(s.get(topo::Value("42"))->as_int(), 2);
}

TEST(StateStore, ManyKeysSurviveGrowth) {
  StateStore s;
  for (int i = 0; i < 500; ++i) {
    s.put(topo::Value("key-" + std::to_string(i)),
          topo::Value(static_cast<std::int64_t>(i)));
  }
  EXPECT_EQ(s.size(), 500u);
  for (int i = 0; i < 500; ++i) {
    const topo::Value* v = s.get(topo::Value("key-" + std::to_string(i)));
    ASSERT_NE(v, nullptr) << i;
    EXPECT_EQ(v->as_int(), i);
  }
}

TEST(StateStore, DedupSuppressesAndRefreshes) {
  StateStore s;
  EXPECT_TRUE(s.dedup_insert(101, 1.0));
  EXPECT_FALSE(s.dedup_insert(101, 5.0));  // duplicate, timestamp refreshed
  EXPECT_TRUE(s.dedup_insert(202, 2.0));
  EXPECT_EQ(s.dedup_size(), 2u);

  // Sweep at horizon 4.0: path 101 was refreshed to t=5 and survives;
  // path 202 (t=2) is dropped. The refresh is what keeps a path alive as
  // long as attempts of its tree keep arriving.
  s.sweep_dedup(4.0);
  EXPECT_EQ(s.dedup_size(), 1u);
  EXPECT_FALSE(s.dedup_insert(101, 6.0));
  EXPECT_TRUE(s.dedup_insert(202, 6.0));  // swept, so it reads as new
}

TEST(StateStore, SnapshotRestoreRoundTrip) {
  StateStore s;
  s.put(topo::Value("w"), topo::Value(std::int64_t{3}));
  s.increment(topo::Value("x"), 9);
  ASSERT_TRUE(s.dedup_insert(77, 1.5));
  const Snapshot snap = s.snapshot();
  EXPECT_EQ(snap.entries.size(), 2u);
  EXPECT_EQ(snap.dedup.size(), 1u);
  EXPECT_GT(snap.bytes, 0u);

  // Mutate past the snapshot, then restore: both halves (keyed entries
  // and dedup set) must revert together — the atomicity that keeps
  // "applied" and "remembered as applied" from splitting across a crash.
  s.increment(topo::Value("x"), 100);
  s.put(topo::Value("y"), topo::Value(std::int64_t{1}));
  ASSERT_TRUE(s.dedup_insert(88, 2.0));
  s.restore(snap);
  EXPECT_EQ(s.size(), 2u);
  EXPECT_EQ(s.get(topo::Value("x"))->as_int(), 9);
  EXPECT_EQ(s.get(topo::Value("y")), nullptr);
  EXPECT_FALSE(s.dedup_insert(77, 3.0));
  EXPECT_TRUE(s.dedup_insert(88, 3.0));  // not in the snapshot
}

TEST(StateStore, ReplayModeSuppressesMutations) {
  // Replay mode is how the executor re-runs a dedup-suppressed duplicate:
  // the bolt's emissions happen, its state effects do not.
  StateStore s;
  s.increment(topo::Value("w"), 3);
  const std::uint64_t bytes_before = s.bytes();

  s.set_replay(true);
  EXPECT_TRUE(s.in_replay());
  // increment() reports the stored total (which already includes the
  // suppressed update) without mutating.
  EXPECT_EQ(s.increment(topo::Value("w"), 1), 3);
  // put() drops its value entirely.
  s.put(topo::Value("x"), topo::Value(std::int64_t{5}));
  // An absent key falls back to `by` (mirrors the original first apply).
  EXPECT_EQ(s.increment(topo::Value("absent")), 1);
  s.set_replay(false);

  EXPECT_EQ(s.size(), 1u);
  EXPECT_EQ(s.bytes(), bytes_before);
  EXPECT_EQ(s.get(topo::Value("w"))->as_int(), 3);
  EXPECT_EQ(s.get(topo::Value("x")), nullptr);
  EXPECT_EQ(s.increment(topo::Value("w")), 4);  // mutations resume
}

TEST(StateStore, ByteAccountingDoesNotDrift) {
  // bytes_ is maintained incrementally across inserts, overwrites, and
  // type-changing updates; it must always equal what a freshly-built
  // store with the same final contents reports (it feeds Snapshot::bytes,
  // which drives simulated durable-write transmission time).
  StateStore s;
  EXPECT_EQ(s.bytes(), 0u);
  s.increment(topo::Value("k1"));  // fresh insert via increment
  // One entry: key + int value + per-entry framing overhead.
  EXPECT_EQ(s.bytes(), topo::value_bytes(topo::Value("k1")) + 8 + 16);
  s.increment(topo::Value("k1"), 5);
  s.put(topo::Value("k2"), topo::Value(std::int64_t{9}));
  s.put(topo::Value("k2"), topo::Value("a value too long to stay put"));
  s.increment(topo::Value("k2"));  // string -> int again
  s.put(topo::Value("k3"), topo::Value(1.5));

  StateStore fresh;
  s.for_each([&fresh](const topo::Value& k, const topo::Value& v) {
    fresh.put(k, v);
  });
  EXPECT_EQ(s.bytes(), fresh.bytes());
}

TEST(StateStore, LineagePathsAreStableAndNonZero) {
  // Same uid => same root path (replay attempts agree); child paths are
  // deterministic in (parent, ordinal) and never 0 (the dedup sentinel).
  EXPECT_EQ(root_path(42), root_path(42));
  EXPECT_NE(root_path(42), root_path(43));
  EXPECT_NE(root_path(42), 0u);
  const std::uint64_t p = root_path(42);
  EXPECT_EQ(child_path(p, 0), child_path(p, 0));
  EXPECT_NE(child_path(p, 0), child_path(p, 1));
  EXPECT_NE(child_path(p, 0), 0u);
}

// ----------------------------------------------------------- DurableStore

TEST(DurableStore, PendingInvisibleUntilCompleted) {
  DurableStore d;
  Snapshot snap;
  snap.bytes = 10;
  d.put_pending(5, /*ckpt=*/1, snap);
  // A pending (possibly torn) snapshot must never be restorable.
  EXPECT_EQ(d.completed(5), nullptr);

  d.mark_completed(1);
  std::uint64_t ckpt = 0;
  ASSERT_NE(d.completed(5, &ckpt), nullptr);
  EXPECT_EQ(ckpt, 1u);
  EXPECT_EQ(d.completed(5)->bytes, 10u);
}

TEST(DurableStore, TornSnapshotSupersededByNextRound) {
  DurableStore d;
  Snapshot good;
  good.bytes = 1;
  d.put_pending(5, 1, good);
  d.mark_completed(1);

  // Round 2's write lands but the round never completes (crash mid-
  // checkpoint): restore still reads round 1. Round 3 replaces the torn
  // pending snapshot and completes normally.
  Snapshot torn;
  torn.bytes = 999;
  d.put_pending(5, 2, torn);
  std::uint64_t ckpt = 0;
  ASSERT_NE(d.completed(5, &ckpt), nullptr);
  EXPECT_EQ(ckpt, 1u);
  EXPECT_EQ(d.completed(5)->bytes, 1u);

  Snapshot next;
  next.bytes = 7;
  d.put_pending(5, 3, next);
  d.mark_completed(3);
  ASSERT_NE(d.completed(5, &ckpt), nullptr);
  EXPECT_EQ(ckpt, 3u);
  EXPECT_EQ(d.completed(5)->bytes, 7u);
  EXPECT_EQ(d.rounds_completed(), 2u);
}

// -------------------------------------------------- CheckpointCoordinator

struct CoordinatorProbe {
  int barriers = 0;
  std::uint64_t last_round = 0;
  int completed = 0;
  int aborted = 0;
  std::unique_ptr<CheckpointCoordinator> coord;

  explicit CoordinatorProbe(double abort_timeout = 0) {
    CheckpointCoordinator::Callbacks cb;
    cb.inject_barriers = [this](int, std::uint64_t ckpt) {
      ++barriers;
      last_round = ckpt;
    };
    cb.on_complete = [this](int, std::uint64_t, double, std::uint64_t) {
      ++completed;
    };
    cb.on_abort = [this](int, std::uint64_t) { ++aborted; };
    coord =
        std::make_unique<CheckpointCoordinator>(std::move(cb), abort_timeout);
  }
};

TEST(CheckpointCoordinator, RoundCompletesWhenAllWritesLand) {
  CoordinatorProbe p;
  p.coord->register_topology(1, {10, 11});
  p.coord->tick(0.0);
  EXPECT_EQ(p.barriers, 1);
  const std::uint64_t round = p.last_round;
  EXPECT_EQ(p.coord->inflight_round(1), round);

  p.coord->on_snapshot_written(1, round, 10, 100, 1.0);
  EXPECT_EQ(p.completed, 0);  // still awaiting task 11
  p.coord->on_snapshot_written(1, round, 11, 50, 2.0);
  EXPECT_EQ(p.completed, 1);
  EXPECT_EQ(p.coord->inflight_round(1), 0u);

  const CheckpointGauges* g = p.coord->gauges(1);
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->completed, 1u);
  EXPECT_EQ(g->last_id, round);
  EXPECT_EQ(g->last_bytes, 150u);
  EXPECT_DOUBLE_EQ(g->last_duration, 2.0);
}

TEST(CheckpointCoordinator, OpenRoundAbortedByNextTick) {
  CoordinatorProbe p;
  p.coord->register_topology(1, {10, 11});
  p.coord->tick(0.0);
  const std::uint64_t first = p.last_round;
  p.coord->on_snapshot_written(1, first, 10, 100, 1.0);

  // Next tick with task 11's write still missing: abort + new round.
  p.coord->tick(5.0);
  EXPECT_EQ(p.aborted, 1);
  EXPECT_EQ(p.barriers, 2);
  const std::uint64_t second = p.last_round;
  EXPECT_GT(second, first);

  // A late write of the aborted round — the torn snapshot — is ignored.
  p.coord->on_snapshot_written(1, first, 11, 50, 6.0);
  EXPECT_EQ(p.completed, 0);

  p.coord->on_snapshot_written(1, second, 10, 100, 7.0);
  p.coord->on_snapshot_written(1, second, 11, 50, 8.0);
  EXPECT_EQ(p.completed, 1);
}

TEST(CheckpointCoordinator, SlowRoundSurvivesTicksUntilAbortTimeout) {
  // Barriers ride the data path: a round slower than one interval is not
  // lost, just late. Ticks inside the abort timeout must neither abort it
  // nor start a concurrent round, so a backlogged cluster still commits.
  CoordinatorProbe p(/*abort_timeout=*/12.0);
  p.coord->register_topology(1, {10});
  p.coord->tick(0.0);
  const std::uint64_t round = p.last_round;

  p.coord->tick(5.0);
  p.coord->tick(10.0);
  EXPECT_EQ(p.aborted, 0);
  EXPECT_EQ(p.barriers, 1);  // ticks skipped, no new round injected
  EXPECT_EQ(p.coord->inflight_round(1), round);

  // The slow write lands after two skipped ticks: the round completes.
  p.coord->on_snapshot_written(1, round, 10, 100, 11.0);
  EXPECT_EQ(p.completed, 1);

  // The next stuck round is aborted only once it outlives the timeout.
  p.coord->tick(15.0);
  const std::uint64_t stuck = p.last_round;
  p.coord->tick(20.0);
  EXPECT_EQ(p.aborted, 0);
  p.coord->tick(27.5);
  EXPECT_EQ(p.aborted, 1);
  EXPECT_GT(p.last_round, stuck);
}

}  // namespace
}  // namespace tstorm::state

namespace tstorm::chaos {
namespace {

runtime::ClusterConfig state_config(std::uint64_t seed) {
  runtime::ClusterConfig cfg;
  cfg.num_nodes = 4;
  cfg.seed = seed;
  cfg.failure_detection = true;
  cfg.tuple_timeout = 10.0;
  cfg.late_ack_grace_factor = 2.0;
  cfg.replay_backoff_base = 0.5;
  cfg.replay_backoff_max = 8.0;
  cfg.node_timeout = 9.0;
  cfg.heartbeat_period = 2.0;
  cfg.monitor_period = 3.0;
  cfg.max_replays = 50;
  cfg.state.enabled = true;
  cfg.state.checkpoint_interval = 5.0;
  return cfg;
}

struct WordCountRig {
  sim::Simulation sim;
  std::unique_ptr<core::StormSystem> sys;
  std::unique_ptr<workload::QueueProducer> producer;
  sched::TopologyId id = -1;

  explicit WordCountRig(std::uint64_t seed,
                        runtime::ClusterConfig cfg) {
    sys = std::make_unique<core::StormSystem>(sim, cfg);
    workload::WordCountOptions opt;
    opt.spouts = 1;
    opt.splitters = 2;
    opt.counters = 2;
    opt.mongos = 1;
    opt.ackers = 2;
    opt.workers = 4;
    opt.text.vocabulary = 128;
    auto wc = workload::make_word_count(opt);
    producer = std::make_unique<workload::QueueProducer>(sim, *wc.queue, 60.0);
    producer->start();
    id = sys->submit(std::move(wc.topology));
    (void)seed;
  }

  runtime::Cluster& cluster() { return sys->cluster(); }
};

TEST(StateIntegration, CheckpointsCompleteEndToEnd) {
  WordCountRig rig(1, state_config(1));
  rig.sim.run_until(60.0);

  auto& cluster = rig.cluster();
  EXPECT_GT(cluster.trace_log().count(trace::EventKind::kCheckpointComplete),
            0u);
  EXPECT_GT(cluster.durable_state().writes_landed(), 0u);
  EXPECT_GT(cluster.durable_state().rounds_completed(), 0u);

  // Gauges populated.
  ASSERT_NE(cluster.checkpoints(), nullptr);
  const state::CheckpointGauges* g = cluster.checkpoints()->gauges(rig.id);
  ASSERT_NE(g, nullptr);
  EXPECT_GT(g->completed, 0u);
  EXPECT_GT(g->last_bytes, 0u);
  EXPECT_GT(g->mean_interval, 0.0);

  // The stateful word counter is actually accumulating in managed state.
  InvariantAuditor auditor(cluster);
  const KeyedState keyed = auditor.collect_keyed_state();
  EXPECT_FALSE(keyed.empty());
}

TEST(StateIntegration, RestoreOnRescheduleRehydratesState) {
  WordCountRig rig(2, state_config(2));
  rig.sim.run_until(40.0);
  auto& cluster = rig.cluster();
  ASSERT_GT(cluster.trace_log().count(trace::EventKind::kCheckpointComplete),
            0u);

  InvariantAuditor auditor(cluster);
  const KeyedState before = auditor.collect_keyed_state();
  ASSERT_FALSE(before.empty());

  // Kill the worker hosting a stateful bolt task; the supervisor restarts
  // it and the fresh executor must rehydrate from the durable store.
  runtime::Executor* target = nullptr;
  for (runtime::Executor* e : cluster.registered_executors()) {
    if (e->state_store() != nullptr && !e->state_store()->size()) continue;
    if (e->state_store() != nullptr) {
      target = e;
      break;
    }
  }
  ASSERT_NE(target, nullptr);
  bool killed = false;
  for (int n = 0; n < cluster.num_nodes() && !killed; ++n) {
    for (int p = 0; p < cluster.slots_on_node(n) && !killed; ++p) {
      if (cluster.supervisor(n).worker_at(p) == &target->worker()) {
        killed = cluster.kill_worker(n, p);
      }
    }
  }
  ASSERT_TRUE(killed);

  rig.sim.run_until(80.0);
  EXPECT_GT(cluster.trace_log().count(trace::EventKind::kStateRestored), 0u);

  // Counts survived the crash: every pre-kill key is still present with at
  // least its checkpointed weight still growing under live traffic.
  const KeyedState after = auditor.collect_keyed_state();
  for (const auto& [key, n] : before) {
    const auto it = after.find(key);
    ASSERT_NE(it, after.end()) << "key lost across restore: " << key;
    EXPECT_GE(it->second, 1) << key;
  }
  EXPECT_TRUE(auditor.check_now().ok())
      << auditor.check_now().to_string();
}

TEST(StateIntegration, CrashMidCheckpointIgnoresTornSnapshot) {
  // Abort churn: a checkpoint interval short enough that worker kills land
  // mid-round. Torn rounds must be aborted (not completed), and restores
  // must keep working off the last completed round — the auditor's state
  // books still balance after quiesce.
  auto cfg = state_config(3);
  cfg.state.checkpoint_interval = 2.0;
  WordCountRig rig(3, cfg);

  FaultPlan plan;
  plan.kill_worker(21.0, 0, 0)
      .kill_worker(33.0, 1, 0)
      .kill_worker(45.0, 2, 1);
  plan.inject(rig.cluster());

  rig.sim.run_until(90.0);
  auto& cluster = rig.cluster();
  EXPECT_GT(cluster.trace_log().count(trace::EventKind::kCheckpointComplete),
            0u);
  // Under this schedule some rounds must have died mid-flight.
  EXPECT_GT(cluster.trace_log().count(trace::EventKind::kCheckpointAborted) +
                cluster.trace_log().count(trace::EventKind::kStateRestored),
            0u);

  InvariantAuditor auditor(cluster);
  EXPECT_TRUE(auditor.check_now().ok()) << auditor.check_now().to_string();
}

TEST(StateIntegration, DedupDropsAreAttributed) {
  // Lossy network forces replays; replayed duplicates that reach a
  // stateful bolt must be suppressed and filed under kStateDedup, with
  // the suppression counter and the drop cause in exact double-entry.
  auto cfg = state_config(4);
  cfg.network.inter_node_drop_prob = 0.05;
  WordCountRig rig(4, cfg);
  rig.sim.run_until(120.0);

  auto& cluster = rig.cluster();
  EXPECT_GT(cluster.state_dedup_suppressed(), 0u);
  EXPECT_EQ(cluster.state_dedup_suppressed(),
            cluster.dropped_by(runtime::DropCause::kStateDedup));
  InvariantAuditor auditor(cluster);
  EXPECT_TRUE(auditor.check_now().ok()) << auditor.check_now().to_string();
}

/// Emits seqs 0..limit-1 once each, publishing how many it produced.
class SeqSpout final : public topo::Spout {
 public:
  SeqSpout(std::int64_t limit, std::shared_ptr<std::int64_t> emitted)
      : limit_(limit), emitted_(std::move(emitted)) {}
  std::optional<topo::Tuple> next_tuple() override {
    if (next_ >= limit_) return std::nullopt;
    *emitted_ = next_ + 1;
    return topo::Tuple{next_++};
  }

 private:
  std::int64_t limit_;
  std::int64_t next_ = 0;
  std::shared_ptr<std::int64_t> emitted_;
};

/// Stateful pass-through: one managed-state update, one child per input.
class SeqForwardBolt final : public topo::StatefulBolt {
 public:
  void execute(const topo::Tuple& input, topo::BoltContext& ctx) override {
    state().increment(topo::Value("n"));
    ctx.emit(topo::Tuple{input.get_int(0)});
  }
  [[nodiscard]] double cpu_cost_mega_cycles(
      const topo::Tuple& /*input*/) const override {
    return 0.05;
  }
};

/// Stateless sink recording every distinct seq it ever receives.
class SeqSinkBolt final : public topo::Bolt {
 public:
  explicit SeqSinkBolt(std::shared_ptr<std::set<std::int64_t>> seen)
      : seen_(std::move(seen)) {}
  void execute(const topo::Tuple& input,
               topo::BoltContext& /*ctx*/) override {
    seen_->insert(input.get_int(0));
  }
  [[nodiscard]] double cpu_cost_mega_cycles(
      const topo::Tuple& /*input*/) const override {
    return 0.05;
  }

 private:
  std::shared_ptr<std::set<std::int64_t>> seen_;
};

TEST(StateIntegration, ReplayedDuplicatesStillFeedStatelessSinks) {
  // The acked-but-undelivered scenario: a tuple's child is lost *below*
  // the stateful bolt, the tree replays, and the replay hits the bolt's
  // dedup set. The suppressed duplicate must still re-emit its child —
  // if it contributed no downstream edges, the replayed tree would
  // complete while the stateless sink never received the tuple in any
  // attempt. With abandonment effectively impossible (50 replays versus
  // ~8% loss), every emitted seq must eventually reach the sink.
  sim::Simulation sim;
  auto cfg = state_config(7);
  cfg.failure_detection = false;
  cfg.network.inter_node_drop_prob = 0.08;
  cfg.network.intra_process_drop_prob = 0.02;
  core::StormSystem sys(sim, cfg);

  auto seen = std::make_shared<std::set<std::int64_t>>();
  auto emitted = std::make_shared<std::int64_t>(0);

  topo::TopologyBuilder b;
  b.set_spout("seq",
              [emitted] { return std::make_unique<SeqSpout>(200, emitted); },
              1)
      .output_fields({"seq"})
      .emit_interval(0.05);
  b.set_bolt("fwd", [] { return std::make_unique<SeqForwardBolt>(); }, 2)
      .output_fields({"seq"})
      .stateful()
      .shuffle_grouping("seq");
  b.set_bolt("sink", [seen] { return std::make_unique<SeqSinkBolt>(seen); },
             2)
      .shuffle_grouping("fwd");
  sys.submit(b.build("seq-chain", /*num_workers=*/4, /*num_ackers=*/1));

  sim.run_until(200.0);

  auto& cluster = sys.cluster();
  // The fix is only exercised if replays actually hit the dedup set.
  EXPECT_GT(cluster.state_dedup_suppressed(), 0u);
  ASSERT_EQ(*emitted, 200);
  EXPECT_EQ(static_cast<std::int64_t>(seen->size()), *emitted);
  InvariantAuditor auditor(cluster);
  EXPECT_TRUE(auditor.check_now().ok()) << auditor.check_now().to_string();
}

TEST(StateIntegration, BarrierAlignmentAtTwoInputBolt) {
  // A stateful bolt fed by two spout components must align barriers from
  // every upstream task before snapshotting. Under a fault-free run every
  // round completes: alignment can never wedge or abort.
  sim::Simulation sim;
  auto cfg = state_config(5);
  cfg.failure_detection = false;
  core::StormSystem sys(sim, cfg);

  topo::TopologyBuilder b;
  b.set_spout("left",
              [] {
                return std::make_unique<workload::RandomStringSpout>(
                    32, 0.05, 111);
              },
              1)
      .output_fields({"str"})
      .emit_interval(0.02);
  b.set_spout("right",
              [] {
                return std::make_unique<workload::RandomStringSpout>(
                    32, 0.05, 222);
              },
              1)
      .output_fields({"str"})
      .emit_interval(0.03);
  b.set_bolt("merge",
             [] { return std::make_unique<workload::CounterBolt>(0.05); },
             2)
      .stateful()
      .shuffle_grouping("left")
      .shuffle_grouping("right");
  sys.submit(b.build("two-input", /*num_workers=*/4, /*num_ackers=*/1));

  sim.run_until(60.0);
  auto& cluster = sys.cluster();
  const auto completes =
      cluster.trace_log().of_kind(trace::EventKind::kCheckpointComplete);
  ASSERT_GE(completes.size(), 2u);
  // Rounds injected before the workers finish deploying legitimately
  // abort; once the topology is live, two-input alignment must never
  // wedge a round — every abort has to predate the first completion.
  for (const auto& e :
       cluster.trace_log().of_kind(trace::EventKind::kCheckpointAborted)) {
    EXPECT_LT(e.time, completes.front().time)
        << "round aborted after steady state: " << e.detail;
  }
  InvariantAuditor auditor(cluster);
  EXPECT_TRUE(auditor.check_now().ok()) << auditor.check_now().to_string();
}

// ------------------------------------------------------ Dedup retirement

/// Stateful counter keyed by seq whose first input blocks the task for
/// `stall` seconds of I/O, so whatever arrives behind it waits in its queue.
class StallOnceCountBolt final : public topo::StatefulBolt {
 public:
  explicit StallOnceCountBolt(double stall) : stall_(stall) {}
  void execute(const topo::Tuple& input,
               topo::BoltContext& /*ctx*/) override {
    state().increment(topo::Value(input.get_int(0)));
  }
  [[nodiscard]] double cpu_cost_mega_cycles(
      const topo::Tuple& /*input*/) const override {
    return 0.05;
  }
  [[nodiscard]] double io_time_seconds(
      const topo::Tuple& /*input*/) const override {
    return std::exchange(stall_, 0.0);
  }

 private:
  mutable double stall_;
};

const state::StateStore& only_store(runtime::Cluster& cluster) {
  for (runtime::Executor* e : cluster.registered_executors()) {
    if (e->state_store() != nullptr) return *e->state_store();
  }
  ADD_FAILURE() << "no stateful executor";
  static const state::StateStore empty;
  return empty;
}

TEST(DedupRetirement, StaleAttemptKeepsItsEntryAcrossRounds) {
  // One tree. Attempt 0 stalls at the count task past its timeout; its
  // replay waits out a backoff longer than the stall. So attempt 0 is
  // served, applied and acked late; several rounds complete at the task;
  // only then does attempt 1 arrive. Its entry must still be there: the
  // tree stays unresolved while a replay is pending, so no barrier stamp
  // passes it. A rule that took the late ack for resolution would retire
  // the entry within two rounds and apply the update twice. (Within one
  // incarnation a later attempt cannot overtake an earlier one: shuffle
  // routes by lineage path and each executor queue is FIFO, so the stale
  // duplicate here is the attempt that comes second.)
  sim::Simulation sim;
  auto cfg = state_config(9);
  cfg.failure_detection = false;
  cfg.tuple_timeout = 2.0;
  cfg.late_ack_grace_factor = 5.0;
  cfg.replay_backoff_base = 3.0;
  cfg.replay_backoff_jitter = 0.0;
  cfg.max_replays = 3;
  cfg.state.checkpoint_interval = 0.5;
  core::StormSystem sys(sim, cfg);
  auto emitted = std::make_shared<std::int64_t>(0);
  topo::TopologyBuilder b;
  b.set_spout("seq",
              [emitted] { return std::make_unique<SeqSpout>(1, emitted); },
              1)
      .output_fields({"seq"})
      .emit_interval(0.05);
  b.set_bolt("count",
             [] { return std::make_unique<StallOnceCountBolt>(3.0); }, 1)
      .stateful()
      .fields_grouping("seq", "seq");
  sys.submit(b.build("stale-attempt", /*num_workers=*/1, /*num_ackers=*/1));
  auto& cluster = sys.cluster();
  const auto& tracker = cluster.tracker();
  const auto rounds = [&] {
    return cluster.trace_log().count(trace::EventKind::kCheckpointComplete);
  };

  while (tracker.total_registered() == 0 && sim.now() < 30.0) {
    sim.run_until(sim.now() + 0.01);
  }
  ASSERT_EQ(tracker.total_registered(), 1u);
  const double emitted_at = sim.now();

  // Attempt 0 served and acked late; attempt 1 not yet emitted.
  sim.run_until(emitted_at + 4.5);
  const topo::Value key(std::int64_t{0});
  ASSERT_NE(only_store(cluster).get(key), nullptr);
  EXPECT_EQ(only_store(cluster).get(key)->as_int(), 1);
  EXPECT_EQ(cluster.completion().total_late(), 1u);
  EXPECT_EQ(tracker.total_registered(), 1u);
  EXPECT_EQ(tracker.unresolved_trees(), 1u);  // its replay is pending
  const auto rounds_before_replay = rounds();

  // Attempt 1 lands after those rounds, is suppressed, and acks.
  sim.run_until(emitted_at + 12.0);
  EXPECT_EQ(tracker.total_registered(), 2u);
  EXPECT_GE(rounds_before_replay, 2u);
  EXPECT_EQ(only_store(cluster).get(key)->as_int(), 1);
  EXPECT_EQ(cluster.dropped_by(runtime::DropCause::kStateDedup), 1u);
  EXPECT_EQ(tracker.in_flight(), 0u);
  // Resolved, and two rounds later retired: the set keeps nothing.
  EXPECT_EQ(tracker.unresolved_trees(), 0u);
  EXPECT_GT(rounds(), rounds_before_replay + 2);
  EXPECT_EQ(only_store(cluster).dedup_size(), 0u);
  InvariantAuditor auditor(cluster);
  EXPECT_TRUE(auditor.check_now().ok()) << auditor.check_now().to_string();
}

/// Sends a data envelope and then a barrier from the source task to the
/// stateful sink across nodes, stopping another worker on the sender's
/// node between the two sends when `stop_worker`. True when the barrier
/// arrived first: the sink aligned before it deferred the data's ack.
bool barrier_overtakes_data(bool stop_worker) {
  sim::Simulation sim;
  runtime::ClusterConfig cfg;
  cfg.num_nodes = 2;
  cfg.state.enabled = true;
  cfg.state.checkpoint_interval = 1e6;  // no coordinator rounds
  core::StormSystem sys(sim, cfg);
  auto emitted = std::make_shared<std::int64_t>(0);
  topo::TopologyBuilder b;
  b.set_spout("src",
              [emitted] { return std::make_unique<SeqSpout>(0, emitted); },
              1)
      .output_fields({"seq"});
  b.set_bolt("sink", [] { return std::make_unique<SeqForwardBolt>(); }, 1)
      .stateful()
      .shuffle_grouping("src");
  b.set_bolt("pad",
             [] {
               return std::make_unique<SeqSinkBolt>(
                   std::make_shared<std::set<std::int64_t>>());
             },
             1)
      .shuffle_grouping("src");
  // Tasks: src 0, sink 1, pad 2, acker 3. Node 0 runs three workers
  // (src, pad, acker), so it is crowded; the sink is alone on node 1.
  const auto id = sys.submit_pinned(
      b.build("probe", /*num_workers=*/4, /*num_ackers=*/1),
      {{0, 0}, {1, 4}, {2, 1}, {3, 2}});
  sim.run_until(20.0);
  auto& cluster = sys.cluster();
  EXPECT_EQ(cluster.tasks_of_component(id, "sink"),
            std::vector<sched::TaskId>{1});
  runtime::Executor* src = cluster.instances_of(0).at(0);
  runtime::Executor* sink = cluster.instances_of(1).at(0);

  runtime::Envelope data;
  data.kind = runtime::MsgKind::kData;
  data.tuple = topo::TupleRef::make(topo::Tuple{std::int64_t{7}});
  data.root_id = 99;
  data.xor_val = 1;
  data.path = 77;
  cluster.send(*src, 1, std::move(data));
  if (stop_worker) {
    EXPECT_TRUE(cluster.kill_worker(0, 1));
  }
  runtime::Envelope barrier;
  barrier.kind = runtime::MsgKind::kBarrier;
  barrier.root_id = 1;
  cluster.send(*src, 1, std::move(barrier));
  sim.run_until(21.0);
  EXPECT_EQ(sink->deferred_ack_count(), 1u);
  return sink->deferred_head_round() == 0;
}

TEST(DedupRetirement, ChannelOrderProbe) {
  // A barrier sent right after a small data message on one inter-node
  // channel arrives second while the sender's node is steady, and first
  // when a worker on that node stops in between: the data message paid
  // the crowding term of three workers, the barrier that of two. This is
  // why the retirement sweep keeps one round of slack (docs/MODEL.md,
  // "Replay dedup").
  EXPECT_FALSE(barrier_overtakes_data(/*stop_worker=*/false));
  EXPECT_TRUE(barrier_overtakes_data(/*stop_worker=*/true));
}

// ----------------------------------------------------------- Determinism

struct TraceRun {
  std::uint64_t events = 0;
  std::uint64_t completed = 0;
  std::string trace;
};

TraceRun run_with_state(std::uint64_t seed, bool with_faults) {
  auto cfg = state_config(seed);
  WordCountRig rig(seed, cfg);
  if (with_faults) {
    RandomPlanOptions opt;
    opt.start = 20.0;
    opt.end = 80.0;
    opt.crashes = 1;
    opt.min_downtime = 10.0;
    opt.max_downtime = 20.0;
    opt.worker_kills = 2;
    opt.partitions = 1;
    opt.loss_spikes = 1;
    opt.max_drop_prob = 0.05;
    FaultPlan::random(opt, seed, cfg.num_nodes, cfg.slots_per_node)
        .inject(rig.cluster());
  }
  rig.sim.run_until(100.0);
  TraceRun r;
  r.events = rig.sim.events_executed();
  r.completed = rig.cluster().completion().total_completed();
  std::ostringstream os;
  rig.cluster().trace_log().dump(os);
  r.trace = os.str();
  return r;
}

TEST(StateDeterminism, SameSeedByteIdenticalWithCheckpointing) {
  const TraceRun a = run_with_state(11, /*with_faults=*/false);
  const TraceRun b = run_with_state(11, /*with_faults=*/false);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_GT(a.completed, 0u);
}

TEST(StateDeterminism, SameSeedByteIdenticalUnderFaultsAndRestore) {
  // Restore determinism: crash + replay + rehydrate paths must all be
  // seed-deterministic — byte-identical traces across identical runs.
  const TraceRun a = run_with_state(12, /*with_faults=*/true);
  const TraceRun b = run_with_state(12, /*with_faults=*/true);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.trace, b.trace);
}

}  // namespace
}  // namespace tstorm::chaos
