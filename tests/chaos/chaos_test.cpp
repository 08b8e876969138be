// Tests for the self-healing control plane (heartbeats + failure
// detection), the lossy-network fault model's end-to-end behaviour, replay
// backoff, drop-cause attribution, config validation, and the chaos
// harness (fault plans, invariant auditor, determinism).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "chaos/auditor.h"
#include "chaos/fault_plan.h"
#include "core/system.h"
#include "obs/provenance.h"
#include "runtime/cluster.h"
#include "sched/round_robin.h"
#include "trace/trace.h"
#include "workload/external_queue.h"
#include "workload/topologies.h"

namespace tstorm::chaos {
namespace {

using runtime::ClusterConfig;
using runtime::DropCause;
using trace::EventKind;

/// A node currently hosting executors, or -1.
sched::NodeId node_with_executors(runtime::Cluster& cluster) {
  for (int n = 0; n < cluster.num_nodes(); ++n) {
    if (!cluster.executors_on_node(n).empty()) return n;
  }
  return -1;
}

workload::ThroughputTestOptions small_throughput() {
  workload::ThroughputTestOptions opt;
  opt.spout_parallelism = 2;
  opt.identity_parallelism = 4;
  opt.counter_parallelism = 4;
  opt.ackers = 4;
  opt.workers = 12;
  return opt;
}

// --------------------------------------------------- Failure detection ---

TEST(FailureDetection, CrashedNodeIsDeclaredDeadAndRescheduled) {
  sim::Simulation sim;
  ClusterConfig cfg;
  cfg.failure_detection = true;
  core::StormSystem sys(sim, cfg);
  const auto id = sys.submit(workload::make_throughput_test(small_throughput()));
  sim.run_until(100.0);
  auto& cluster = sys.cluster();

  const sched::NodeId victim = node_with_executors(cluster);
  ASSERT_GE(victim, 0);
  cluster.fail_node(victim);

  // Within ~node_timeout + monitor_period the monitor declares the node
  // dead and reschedules; supervisors then rebuild workers elsewhere.
  sim.run_until(100.0 + cfg.node_timeout + 2 * cfg.monitor_period +
                cfg.supervisor_sync_period + cfg.worker_start_delay + 5.0);

  const auto dead = cluster.trace_log().of_kind(EventKind::kNodeDeclaredDead);
  ASSERT_FALSE(dead.empty());
  EXPECT_EQ(dead.front().node, victim);
  EXPECT_FALSE(cluster.nimbus().node_believed_alive(victim));

  const auto* record = cluster.coordination().get(id);
  ASSERT_NE(record, nullptr);
  for (const auto& [task, slot] : record->placement) {
    EXPECT_NE(cluster.slot_node(slot), victim) << "task " << task;
  }
  EXPECT_TRUE(cluster.executors_on_node(victim).empty());
}

TEST(FailureDetection, ThroughputRecoversWithoutManualRepair) {
  sim::Simulation sim;
  ClusterConfig cfg;
  cfg.failure_detection = true;
  core::StormSystem sys(sim, cfg);
  sys.submit(workload::make_throughput_test(small_throughput()));
  auto& cluster = sys.cluster();

  sim.run_until(70.0);
  const auto at70 = cluster.completion().total_completed();
  sim.run_until(100.0);
  const auto pre_fault = cluster.completion().total_completed() - at70;
  ASSERT_GT(pre_fault, 0u);

  const sched::NodeId victim = node_with_executors(cluster);
  ASSERT_GE(victim, 0);
  cluster.fail_node(victim);
  // No recover_node, no manual rebalance: the detector alone must heal
  // the topology within three detection windows...
  const sim::Time recovered_by = 100.0 + 3 * cfg.node_timeout;
  sim.run_until(recovered_by);
  // ...after which a 30 s window sustains >= 90% of pre-fault throughput.
  const auto at_rec = cluster.completion().total_completed();
  sim.run_until(recovered_by + 30.0);
  const auto post_fault = cluster.completion().total_completed() - at_rec;
  EXPECT_GE(static_cast<double>(post_fault),
            0.9 * static_cast<double>(pre_fault))
      << "pre-fault window completed " << pre_fault
      << ", post-recovery window completed " << post_fault;
}

TEST(FailureDetection, RecoveredNodeIsDeclaredAliveAgain) {
  sim::Simulation sim;
  ClusterConfig cfg;
  cfg.failure_detection = true;
  core::StormSystem sys(sim, cfg);
  sys.submit(workload::make_throughput_test(small_throughput()));
  sim.run_until(60.0);
  auto& cluster = sys.cluster();

  cluster.fail_node(4);
  sim.run_until(60.0 + cfg.node_timeout + 2 * cfg.monitor_period);
  ASSERT_FALSE(cluster.nimbus().node_believed_alive(4));

  cluster.recover_node(4);
  sim.run_until(sim.now() + cfg.heartbeat_period + 2 * cfg.monitor_period);
  EXPECT_TRUE(cluster.nimbus().node_believed_alive(4));
  const auto alive =
      cluster.trace_log().of_kind(EventKind::kNodeDeclaredAlive);
  ASSERT_FALSE(alive.empty());
  EXPECT_EQ(alive.back().node, 4);
}

TEST(FailureDetection, NodeBackInsideTimeoutRestartsItsWorkers) {
  // The node crashes and recovers before node_timeout: Nimbus never
  // declares it dead, so the assignment is unchanged and only its own
  // supervisor can bring its workers back.
  sim::Simulation sim;
  ClusterConfig cfg;
  cfg.failure_detection = true;
  core::StormSystem sys(sim, cfg);
  const auto id = sys.submit(workload::make_throughput_test(small_throughput()));
  sim.run_until(100.0);
  auto& cluster = sys.cluster();

  const sched::NodeId victim = node_with_executors(cluster);
  ASSERT_GE(victim, 0);
  const std::size_t hosted = cluster.executors_on_node(victim).size();
  const sched::AssignmentVersion version =
      cluster.coordination().get(id)->version;
  cluster.fail_node(victim);
  sim.run_until(106.0);
  ASSERT_LT(6.0, cfg.node_timeout);
  EXPECT_TRUE(cluster.executors_on_node(victim).empty());
  cluster.recover_node(victim);

  // One sync period for the supervisor's first pass, then the workers'
  // start delay.
  sim.run_until(106.0 + cfg.supervisor_sync_period + cfg.worker_start_delay +
                0.5);
  EXPECT_TRUE(
      cluster.trace_log().of_kind(EventKind::kNodeDeclaredDead).empty());
  EXPECT_EQ(cluster.coordination().get(id)->version, version);
  EXPECT_EQ(cluster.executors_on_node(victim).size(), hosted);
}

TEST(FailureDetection, MasterPartitionCausesFalsePositiveAndHeals) {
  sim::Simulation sim;
  ClusterConfig cfg;
  cfg.failure_detection = true;
  core::StormSystem sys(sim, cfg);
  sys.submit(workload::make_throughput_test(small_throughput()));
  sim.run_until(60.0);
  auto& cluster = sys.cluster();

  // The machine stays healthy; only its heartbeats stop reaching the
  // master. The detector must (wrongly) declare it dead...
  const sim::Time heal_at = 60.0 + cfg.node_timeout + 3 * cfg.monitor_period;
  cluster.network().add_partition(2, net::Network::kMaster, 60.0, heal_at);
  sim.run_until(heal_at);
  EXPECT_TRUE(cluster.node_available(2));  // ground truth: alive
  EXPECT_FALSE(cluster.nimbus().node_believed_alive(2));  // belief: dead

  // ...and un-declare it once heartbeats resume.
  sim.run_until(heal_at + cfg.heartbeat_period + 2 * cfg.monitor_period);
  EXPECT_TRUE(cluster.nimbus().node_believed_alive(2));
  EXPECT_GE(cluster.trace_log().count(EventKind::kNodeDeclaredDead), 1u);
  EXPECT_GE(cluster.trace_log().count(EventKind::kNodeDeclaredAlive), 1u);
}

// ------------------------------------------------------ Network faults ---

TEST(NetworkFaults, LostDataTuplesFlowThroughReplayPath) {
  sim::Simulation sim;
  ClusterConfig cfg;
  cfg.network.inter_node_drop_prob = 0.05;
  cfg.tuple_timeout = 5.0;
  cfg.replay_backoff_base = 0.5;
  cfg.max_replays = 5;
  core::StormSystem sys(sim, cfg);
  sys.submit(workload::make_throughput_test(small_throughput()));
  sim.run_until(200.0);
  auto& cluster = sys.cluster();

  EXPECT_GT(cluster.dropped_by(DropCause::kNetworkLoss), 0u);
  // Drops killed ack trees -> timeouts -> backoff-scheduled replays.
  EXPECT_GT(cluster.completion().total_failed(), 0u);
  EXPECT_GT(cluster.completion().total_replayed(), 0u);
  EXPECT_GT(cluster.completion().total_completed(), 0u);

  const AuditReport report = InvariantAuditor(cluster).check_now();
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(NetworkFaults, DropCausesAreAttributedSeparately) {
  sim::Simulation sim;
  ClusterConfig cfg;
  cfg.network.inter_node_drop_prob = 0.02;
  core::StormSystem sys(sim, cfg);
  sys.submit(workload::make_throughput_test(small_throughput()));
  sim.run_until(100.0);
  auto& cluster = sys.cluster();
  // Kill one worker: its queued tuples die as dead-instance/drain drops,
  // distinct from the network's in-flight losses.
  const sched::NodeId n = node_with_executors(cluster);
  ASSERT_GE(n, 0);
  const int port = cluster.slot_port(cluster.executors_on_node(n)
                                         .front()
                                         ->worker()
                                         .slot());
  cluster.kill_worker(n, port);
  sim.run_until(150.0);

  EXPECT_GT(cluster.dropped_by(DropCause::kNetworkLoss), 0u);
  EXPECT_EQ(cluster.dropped_messages(),
            cluster.dropped_by(DropCause::kDeadInstance) +
                cluster.dropped_by(DropCause::kNetworkLoss) +
                cluster.dropped_by(DropCause::kShutdownDrain));
  // Attribution must match the network's own counters exactly.
  const AuditReport report = InvariantAuditor(cluster).check_now();
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(NetworkFaults, ControlLossCausesFalsePositiveDetection) {
  sim::Simulation sim;
  ClusterConfig cfg;
  cfg.num_nodes = 4;
  cfg.failure_detection = true;
  // Heartbeats almost never get through; data plane is untouched.
  cfg.network.control_drop_prob = 0.95;
  core::StormSystem sys(sim, cfg);
  sim.run_until(300.0);
  auto& cluster = sys.cluster();
  EXPECT_GT(cluster.network().control_drops(), 0u);
  // With ~3 heartbeats per timeout window at 5% delivery, false positives
  // are near-certain over 300 s; flapping back alive is likely too.
  EXPECT_GE(cluster.trace_log().count(EventKind::kNodeDeclaredDead), 1u);
}

// ------------------------------------------------------ Replay backoff ---

TEST(ReplayBackoff, GrowsExponentiallyAndCaps) {
  sim::Simulation sim;
  ClusterConfig cfg;
  cfg.replay_backoff_base = 1.0;
  cfg.replay_backoff_max = 60.0;
  cfg.replay_backoff_jitter = 0.0;
  runtime::Cluster cluster(sim, cfg);
  auto& tracker = cluster.tracker();
  EXPECT_DOUBLE_EQ(tracker.backoff_delay(1), 1.0);
  EXPECT_DOUBLE_EQ(tracker.backoff_delay(2), 2.0);
  EXPECT_DOUBLE_EQ(tracker.backoff_delay(3), 4.0);
  EXPECT_DOUBLE_EQ(tracker.backoff_delay(4), 8.0);
  EXPECT_DOUBLE_EQ(tracker.backoff_delay(10), 60.0);  // capped
}

TEST(ReplayBackoff, JitterStaysWithinConfiguredFraction) {
  sim::Simulation sim;
  ClusterConfig cfg;
  cfg.replay_backoff_base = 2.0;
  cfg.replay_backoff_max = 600.0;
  cfg.replay_backoff_jitter = 0.5;
  runtime::Cluster cluster(sim, cfg);
  for (int i = 0; i < 50; ++i) {
    const double d = cluster.tracker().backoff_delay(2);  // nominal 4 s
    EXPECT_GE(d, 4.0);
    EXPECT_LT(d, 6.0);  // 4 * (1 + 0.5)
  }
}

TEST(ReplayBackoff, ZeroBaseRestoresImmediateReplay) {
  sim::Simulation sim;
  ClusterConfig cfg;
  cfg.replay_backoff_base = 0.0;
  runtime::Cluster cluster(sim, cfg);
  EXPECT_DOUBLE_EQ(cluster.tracker().backoff_delay(1), 0.0);
  EXPECT_DOUBLE_EQ(cluster.tracker().backoff_delay(5), 0.0);
}

TEST(ReplayBackoff, PendingCapWithReplaysInBackoffDrainsAfterRecovery) {
  // The nasty interaction: a total loss spike times out every in-flight
  // tuple, so spouts sit at the max_pending cap with all their slots tied
  // up in replays that are themselves waiting out exponential backoff.
  // Nothing may deadlock — once the network recovers, replays must land,
  // free pending slots, and emission must resume.
  sim::Simulation sim;
  ClusterConfig cfg;
  cfg.tuple_timeout = 5.0;
  cfg.replay_backoff_base = 0.5;
  cfg.replay_backoff_max = 8.0;
  cfg.max_replays = 20;
  core::StormSystem sys(sim, cfg);
  auto opt = small_throughput();
  opt.max_pending = 8;  // tiny pending window: the cap binds immediately
  sys.submit(workload::make_throughput_test(opt));
  auto& cluster = sys.cluster();

  FaultPlan plan;
  plan.loss_spike(20.0, 1.0, 15.0);  // drop EVERY data message for 15 s
  plan.inject(cluster);

  sim.run_until(30.0);  // mid-spike: pending caps hit, replays backing off
  const auto completed_mid = cluster.completion().total_completed();
  sim.run_until(120.0);  // spike long over; backoffs (<= 8 s) all elapsed

  // The system came back: completions grew well past the mid-spike count
  // and the replay path did real work.
  EXPECT_GT(cluster.completion().total_completed(), completed_mid + 100);
  EXPECT_GT(cluster.completion().total_replayed(), 0u);
  EXPECT_GT(cluster.completion().total_failed(), 0u);
  EXPECT_GT(cluster.dropped_by(DropCause::kNetworkLoss), 0u);
  const AuditReport report = InvariantAuditor(cluster).check_now();
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(ChaosFaults, OverlappingLossSpikesRestoreBaseline) {
  // Regression: each spike's restore target is resolved against the whole
  // plan at inject time. Reading the live probability when a spike starts
  // would capture an overlapping spike's elevated value and re-install it
  // permanently when the later window closes — turning a bounded fault
  // into steady-state loss for the rest of the run.
  sim::Simulation sim;
  ClusterConfig cfg;
  core::StormSystem sys(sim, cfg);
  auto& cluster = sys.cluster();

  FaultPlan plan;
  plan.loss_spike(10.0, 0.5, 20.0, /*control=*/true);  // [10, 30)
  plan.loss_spike(25.0, 0.2, 15.0, /*control=*/true);  // [25, 40) overlaps
  plan.inject(cluster);

  auto data_drop = [&] {
    return cluster.network().drop_prob(net::LinkType::kInterNode);
  };
  sim.run_until(12.0);
  EXPECT_DOUBLE_EQ(data_drop(), 0.5);
  sim.run_until(27.0);  // second spike's value rules while both are open
  EXPECT_DOUBLE_EQ(data_drop(), 0.2);
  sim.run_until(35.0);  // first closed mid-second: second's value persists
  EXPECT_DOUBLE_EQ(data_drop(), 0.2);
  sim.run_until(50.0);  // all closed: back to the fault-free baseline
  EXPECT_DOUBLE_EQ(data_drop(), 0.0);
  EXPECT_DOUBLE_EQ(cluster.network().control_drop_prob(), 0.0);
}

// ------------------------------------------- Flow control under faults ---

TEST(FlowChaos, LossSpikeWithBackpressureBalancesEveryTuple) {
  // Overload + network loss + backpressure + shedding, all at once: every
  // emitted tuple must still be accounted for — delivered, shed (kLoadShed)
  // or lost (kNetworkLoss) — with nothing double-counted or vanished.
  sim::Simulation sim;
  ClusterConfig cfg;
  cfg.num_nodes = 2;
  cfg.tuple_timeout = 8.0;
  cfg.flow.enabled = true;
  cfg.flow.queue_capacity = 32;
  // Collapse the backpressure margin onto the hard cap so shedding engages
  // alongside the throttle (see tests/flow/flow_test.cpp).
  cfg.flow.high_watermark = 1.0;
  cfg.flow.low_watermark = 0.4;
  core::StormSystem sys(sim, cfg);

  // 5 fast spouts, one 10 ms bolt, two workers: the bolt's queue is the
  // bottleneck and spout->bolt hops cross the network (so both the loss
  // spike and the shed race have traffic to act on).
  workload::ChainOptions chain;
  chain.spout_parallelism = 5;
  chain.bolts = 1;
  chain.bolt_parallelism = 1;
  chain.ackers = 2;
  chain.workers = 2;
  chain.bolt_cost_mc = 20.0;
  chain.max_pending = 1 << 20;
  const auto id = sys.submit(workload::make_chain(chain));
  auto& cluster = sys.cluster();

  FaultPlan plan;
  plan.loss_spike(20.0, 0.3, 10.0);
  plan.inject(cluster);
  sim.run_until(60.0);

  // All three mechanisms actually fired together.
  EXPECT_GT(cluster.dropped_by(DropCause::kLoadShed), 0u);
  EXPECT_GT(cluster.dropped_by(DropCause::kNetworkLoss), 0u);
  EXPECT_GE(cluster.trace_log().count(EventKind::kBackpressureOn), 1u);
  EXPECT_GT(cluster.completion().total_completed(), 0u);

  // Exact balance: the total equals the per-cause sum, the flow
  // controller's shed count matches kLoadShed, the network's own drop
  // counters match kNetworkLoss, and tuple conservation holds
  // (delivered + failed == registered - in_flight) — i.e. shed + lost +
  // delivered covers every emitted tuple exactly.
  EXPECT_EQ(cluster.dropped_messages(),
            cluster.dropped_by(DropCause::kDeadInstance) +
                cluster.dropped_by(DropCause::kNetworkLoss) +
                cluster.dropped_by(DropCause::kShutdownDrain) +
                cluster.dropped_by(DropCause::kLoadShed));
  InvariantAuditor auditor(cluster);
  const AuditReport mid = auditor.check_now();
  EXPECT_TRUE(mid.ok()) << mid.to_string();

  // And the books still close after a full drain.
  cluster.kill_topology(id);
  sim.run_until(sim.now() +
                (1.0 + cfg.late_ack_grace_factor) * cfg.tuple_timeout +
                2.0 * cfg.supervisor_sync_period + 5.0);
  EXPECT_FALSE(cluster.flow().throttled(id));
  const AuditReport quiesced = auditor.check_quiesced();
  EXPECT_TRUE(quiesced.ok()) << quiesced.to_string();
}

// --------------------------------------------------- Config validation ---

TEST(ConfigValidation, ClusterConfigRejectsOrClampsBadValues) {
#ifndef NDEBUG
  ClusterConfig bad_nodes;
  bad_nodes.num_nodes = 0;
  EXPECT_DEATH((void)runtime::validated(bad_nodes), "out of range");
  ClusterConfig bad_timeout;
  bad_timeout.tuple_timeout = -1.0;
  EXPECT_DEATH((void)runtime::validated(bad_timeout), "out of range");
  ClusterConfig bad_backoff;
  bad_backoff.replay_backoff_base = -2.0;
  EXPECT_DEATH((void)runtime::validated(bad_backoff), "out of range");
#else
  ClusterConfig bad;
  bad.num_nodes = 0;
  bad.slots_per_node = -3;
  bad.tuple_timeout = -1.0;
  bad.replay_backoff_base = -2.0;
  bad.heartbeat_period = 0.0;
  const ClusterConfig v = runtime::validated(bad);
  EXPECT_EQ(v.num_nodes, 1);
  EXPECT_EQ(v.slots_per_node, 1);
  EXPECT_GT(v.tuple_timeout, 0.0);
  EXPECT_DOUBLE_EQ(v.replay_backoff_base, 0.0);
  EXPECT_GT(v.heartbeat_period, 0.0);
#endif
}

TEST(ConfigValidation, NetworkConfigRejectsOrClampsBadValues) {
#ifndef NDEBUG
  net::NetworkConfig bad_prob;
  bad_prob.inter_node_drop_prob = 1.5;
  EXPECT_DEATH((void)net::validated(bad_prob), "probability");
  net::NetworkConfig bad_bw;
  bad_bw.nic_bandwidth = 0.0;
  EXPECT_DEATH((void)net::validated(bad_bw), "positive");
#else
  net::NetworkConfig bad;
  bad.inter_node_drop_prob = 1.5;
  bad.control_drop_prob = -0.2;
  bad.latency_jitter_frac = 7.0;
  bad.nic_bandwidth = 0.0;
  const net::NetworkConfig v = net::validated(bad);
  EXPECT_DOUBLE_EQ(v.inter_node_drop_prob, 1.0);
  EXPECT_DOUBLE_EQ(v.control_drop_prob, 0.0);
  EXPECT_DOUBLE_EQ(v.latency_jitter_frac, 1.0);
  EXPECT_DOUBLE_EQ(v.nic_bandwidth, net::NetworkConfig{}.nic_bandwidth);
#endif
}

// ---------------------------------------------- Reassignment regression ---

// fail_node while old and new workers of a smooth reassignment co-exist
// (the drain window): the dying node may hold draining workers, running
// replacements, or both. Nothing may dangle and the topology must keep
// completing tuples afterwards.
TEST(Regression, FailNodeDuringSmoothReassignmentCoexistence) {
  sim::Simulation sim;
  ClusterConfig cfg;
  cfg.smooth_reassignment = true;
  cfg.failure_detection = true;
  core::StormSystem sys(sim, cfg);
  const auto id = sys.submit(workload::make_throughput_test(small_throughput()));
  sim.run_until(80.0);
  auto& cluster = sys.cluster();

  // Force a reassignment (different worker count -> different placement);
  // old workers drain for shutdown_delay while new ones run.
  sched::RoundRobinScheduler rr;
  ASSERT_TRUE(cluster.nimbus().rebalance(id, rr, /*num_workers_override=*/6));
  // Let supervisors pick it up and enter the co-existence window...
  sim.run_until(80.0 + cfg.supervisor_sync_period + 2.0);
  // ...then kill a machine mid-window.
  const sched::NodeId victim = node_with_executors(cluster);
  ASSERT_GE(victim, 0);
  cluster.fail_node(victim);

  sim.run_until(250.0);
  const AuditReport report = InvariantAuditor(cluster).check_now();
  EXPECT_TRUE(report.ok()) << report.to_string();
  const auto completed = cluster.completion().total_completed();
  sim.run_until(300.0);
  EXPECT_GT(cluster.completion().total_completed(), completed);
  EXPECT_TRUE(cluster.executors_on_node(victim).empty());
}

// --------------------------------------------------- Schedule provenance ---

// Every schedule the control plane applies — including the automatic
// rebalances the failure detector issues — must trace back to a recorded
// scheduling decision. The auditor enforces it; this exercises the law
// under an actual node failure.
TEST(Provenance, AutoRebalanceAfterNodeFailureLeavesDecisionRecords) {
  sim::Simulation sim;
  ClusterConfig cfg;
  cfg.failure_detection = true;
  core::StormSystem sys(sim, cfg);
  sys.submit(workload::make_throughput_test(small_throughput()));
  sim.run_until(100.0);
  auto& cluster = sys.cluster();

  const sched::NodeId victim = node_with_executors(cluster);
  ASSERT_GE(victim, 0);
  cluster.fail_node(victim);
  sim.run_until(250.0);

  // The detector rescheduled the stranded topology at least once, and the
  // rebalance shows up as a recovery-triggered published decision.
  const auto applied = cluster.trace_log().of_kind(EventKind::kScheduleApplied);
  ASSERT_GE(applied.size(), 2u);  // initial + post-failure rebalance
  for (const auto& e : applied) {
    EXPECT_TRUE(cluster.provenance().has_version(e.version))
        << "applied schedule version " << e.version
        << " has no decision record";
  }
  const auto recovery =
      cluster.provenance().of_trigger(obs::DecisionTrigger::kRecovery);
  ASSERT_FALSE(recovery.empty());
  EXPECT_EQ(recovery.back().outcome, obs::DecisionOutcome::kPublished);
  EXPECT_FALSE(recovery.back().reason.empty());

  // The auditor's provenance law holds alongside the older invariants.
  const AuditReport report = InvariantAuditor(cluster).check_now();
  EXPECT_TRUE(report.ok()) << report.to_string();
}

// ------------------------------------------------------- Chaos harness ---

TEST(FaultPlan, RandomPlanIsSeedDeterministic) {
  RandomPlanOptions opt;
  const FaultPlan a = FaultPlan::random(opt, 7, 10, 4);
  const FaultPlan b = FaultPlan::random(opt, 7, 10, 4);
  const FaultPlan c = FaultPlan::random(opt, 8, 10, 4);
  ASSERT_EQ(a.actions().size(), b.actions().size());
  for (std::size_t i = 0; i < a.actions().size(); ++i) {
    EXPECT_EQ(describe(a.actions()[i]), describe(b.actions()[i]));
    EXPECT_DOUBLE_EQ(a.actions()[i].at, b.actions()[i].at);
  }
  // A different seed produces a different plan.
  bool differs = a.actions().size() != c.actions().size();
  for (std::size_t i = 0; !differs && i < a.actions().size(); ++i) {
    differs = describe(a.actions()[i]) != describe(c.actions()[i]) ||
              a.actions()[i].at != c.actions()[i].at;
  }
  EXPECT_TRUE(differs);
}

TEST(FaultPlan, CrashWindowsAreDisjointAndRecoverInTime) {
  RandomPlanOptions opt;
  opt.crashes = 4;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const FaultPlan plan = FaultPlan::random(opt, seed, 8, 4);
    int down = 0;
    sim::Time last = 0;
    for (const auto& a : plan.actions()) {
      EXPECT_GE(a.at, last);  // sorted
      last = a.at;
      if (a.kind == FaultKind::kNodeCrash) {
        EXPECT_EQ(++down, 1) << "two nodes down at once, seed " << seed;
      }
      if (a.kind == FaultKind::kNodeRecover) {
        --down;
        EXPECT_LE(a.at, opt.end);
      }
    }
    EXPECT_EQ(down, 0) << "a crashed node never recovers, seed " << seed;
  }
}

TEST(FaultPlan, InjectionsFireAndAreTraced) {
  sim::Simulation sim;
  ClusterConfig cfg;
  cfg.failure_detection = true;
  core::StormSystem sys(sim, cfg);
  sys.submit(workload::make_throughput_test(small_throughput()));

  FaultPlan plan;
  plan.crash_node(50.0, 3, 60.0)
      .kill_worker(60.0, 1, 0)
      .partition(70.0, 2, net::Network::kMaster, 20.0)
      .loss_spike(80.0, 0.5, 15.0, /*control=*/true);
  plan.inject(sys.cluster());

  sim.run_until(85.0);
  auto& cluster = sys.cluster();
  EXPECT_FALSE(cluster.node_available(3));
  EXPECT_TRUE(cluster.network().partitioned(2, net::Network::kMaster));
  EXPECT_DOUBLE_EQ(
      cluster.network().drop_prob(net::LinkType::kInterNode), 0.5);
  EXPECT_DOUBLE_EQ(cluster.network().control_drop_prob(), 0.5);
  // 5 scheduled actions (crash_node adds crash + recover), 4 fired so far.
  EXPECT_EQ(cluster.trace_log().count(EventKind::kChaosFault), 4u);

  sim.run_until(120.0);
  EXPECT_TRUE(cluster.node_available(3));  // recovered
  EXPECT_FALSE(cluster.network().partitioned(2, net::Network::kMaster));
  // Spike reverted to the pre-spike probabilities.
  EXPECT_DOUBLE_EQ(
      cluster.network().drop_prob(net::LinkType::kInterNode), 0.0);
  EXPECT_DOUBLE_EQ(cluster.network().control_drop_prob(), 0.0);
  EXPECT_EQ(cluster.trace_log().count(EventKind::kChaosFault), 5u);
}

// ---------------------------------------------------------- Determinism ---

std::string run_chaos_and_format_trace(std::uint64_t seed) {
  sim::Simulation sim;
  ClusterConfig cfg;
  cfg.num_nodes = 6;
  cfg.failure_detection = true;
  cfg.seed = seed;
  cfg.network.inter_node_drop_prob = 0.01;
  cfg.network.control_drop_prob = 0.02;
  cfg.network.latency_jitter_frac = 0.1;
  core::StormSystem sys(sim, cfg);

  workload::WordCountOptions wc_opt;
  wc_opt.spouts = 1;
  wc_opt.splitters = 2;
  wc_opt.counters = 2;
  wc_opt.mongos = 2;
  wc_opt.ackers = 2;
  wc_opt.workers = 6;
  auto wc = workload::make_word_count(wc_opt);
  workload::QueueProducer producer(sim, *wc.queue, 100.0);
  producer.start();
  sys.submit(std::move(wc.topology));

  RandomPlanOptions opt;
  opt.start = 30.0;
  opt.end = 200.0;
  opt.crashes = 1;
  opt.worker_kills = 2;
  opt.partitions = 1;
  opt.loss_spikes = 1;
  FaultPlan::random(opt, seed, cfg.num_nodes, cfg.slots_per_node)
      .inject(sys.cluster());

  sim.run_until(250.0);
  std::string out;
  for (const auto& e : sys.cluster().trace_log().events()) {
    out += trace::format_event(e);
    out += '\n';
  }
  out += "completed=" +
         std::to_string(sys.cluster().completion().total_completed()) +
         " failed=" +
         std::to_string(sys.cluster().completion().total_failed()) +
         " dropped=" + std::to_string(sys.cluster().dropped_messages());
  return out;
}

TEST(Determinism, SameChaosSeedYieldsByteIdenticalTrace) {
  const std::string first = run_chaos_and_format_trace(99);
  const std::string second = run_chaos_and_format_trace(99);
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("chaos-fault"), std::string::npos);  // faults fired
}

TEST(Determinism, DifferentSeedsDiverge) {
  EXPECT_NE(run_chaos_and_format_trace(99), run_chaos_and_format_trace(100));
}

}  // namespace
}  // namespace tstorm::chaos
