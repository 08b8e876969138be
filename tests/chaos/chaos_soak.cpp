// Chaos soak: a multi-seed sweep of randomized fault schedules against the
// word-count topology with failure detection enabled. Every seed must end
// with the invariant auditor clean — tuple conservation, no dangling
// executor registrations, exact drop attribution, a drained tracker, and a
// bounded pending-event population after quiesce.
//
// Kept deliberately small per seed (6 nodes, reduced parallelism, shortened
// timeouts) so the whole sweep stays within interactive ctest budgets; the
// point is breadth of fault interleavings, not per-run scale.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>

#include "chaos/auditor.h"
#include "chaos/fault_plan.h"
#include "core/system.h"
#include "runtime/cluster.h"
#include "topo/tuple.h"
#include "workload/external_queue.h"
#include "workload/topologies.h"

namespace tstorm::chaos {
namespace {

constexpr std::uint64_t kSeeds = 20;

struct SoakOutcome {
  AuditReport report;
  std::uint64_t completed = 0;
  std::uint64_t chaos_events = 0;
};

SoakOutcome soak_one(std::uint64_t seed) {
  sim::Simulation sim;
  runtime::ClusterConfig cfg;
  cfg.num_nodes = 6;
  cfg.failure_detection = true;
  cfg.seed = seed;
  // Shortened timeouts: more detection/replay/grace cycles per simulated
  // second, so each seed exercises the full loop quickly.
  cfg.tuple_timeout = 10.0;
  cfg.late_ack_grace_factor = 2.0;
  cfg.replay_backoff_base = 0.5;
  cfg.replay_backoff_max = 8.0;
  cfg.node_timeout = 9.0;
  cfg.heartbeat_period = 2.0;
  cfg.monitor_period = 3.0;
  // Flow control on with a deliberately small capacity: fault-induced
  // backlogs (a recovering bolt absorbing replays) must trip backpressure
  // and shedding during the sweep, and the auditor still has to balance —
  // shed tuples are conserved as kLoadShed drops, not vanished.
  cfg.flow.enabled = true;
  cfg.flow.queue_capacity = 24;
  cfg.flow.shed_policy = runtime::ShedPolicy::kProbabilistic;
  // Checkpointing on: barriers, snapshot writes, restores, and dedup all
  // interleave with the fault schedule; the auditor's double-entry checks
  // (incl. kStateDedup) must still balance under shedding + replay.
  cfg.state.enabled = true;
  cfg.state.checkpoint_interval = 6.0;
  core::StormSystem sys(sim, cfg);
  auto& cluster = sys.cluster();

  workload::WordCountOptions wc_opt;
  wc_opt.spouts = 1;
  wc_opt.splitters = 2;
  wc_opt.counters = 2;
  wc_opt.mongos = 2;
  wc_opt.ackers = 2;
  wc_opt.workers = 6;
  auto wc = workload::make_word_count(wc_opt);
  workload::QueueProducer producer(sim, *wc.queue, 80.0);
  producer.start();
  const auto id = sys.submit(std::move(wc.topology));

  RandomPlanOptions opt;
  opt.start = 30.0;
  opt.end = 240.0;
  opt.crashes = 2;
  opt.min_downtime = 15.0;
  opt.max_downtime = 40.0;
  opt.worker_kills = 3;
  opt.partitions = 2;
  opt.loss_spikes = 2;
  opt.max_drop_prob = 0.08;
  FaultPlan::random(opt, seed, cfg.num_nodes, cfg.slots_per_node)
      .inject(cluster);

  sim.run_until(260.0);
  InvariantAuditor auditor(cluster);
  SoakOutcome out;
  // Mid-flight audit with faults settled but traffic still flowing.
  out.report = auditor.check_now();

  // Scripted crash-and-recover inside node_timeout (the random plans'
  // downtimes all exceed it): Nimbus never declares the node dead, so only
  // its own supervisor can restart its workers. Once the control plane
  // settles, every published task must run again, once.
  auto victim = static_cast<sched::NodeId>(seed % cfg.num_nodes);
  while (cluster.executors_on_node(victim).empty()) {
    victim = (victim + 1) % cfg.num_nodes;
  }
  FaultPlan().crash_node(262.0, victim, 0.5 * cfg.node_timeout)
      .inject(cluster);
  sim.run_until(263.0);
  const sim::Time cap = sim.now() + 200.0;
  while (sim.now() < std::min(auditor.liveness_from(), cap)) {
    sim.run_until(std::min(auditor.liveness_from(), cap));
  }
  const AuditReport live = auditor.check_liveness();
  out.report.violations.insert(out.report.violations.end(),
                               live.violations.begin(), live.violations.end());

  // Quiesce: stop the source, kill the topology, and let the tracker's
  // late-ack grace window fully elapse; then the strict audit must hold.
  producer.stop();
  cluster.kill_topology(id);
  sim.run_until(sim.now() +
                (1.0 + cfg.late_ack_grace_factor) * cfg.tuple_timeout +
                2.0 * cfg.supervisor_sync_period + 5.0);
  const AuditReport quiesced = auditor.check_quiesced();
  out.report.violations.insert(out.report.violations.end(),
                               quiesced.violations.begin(),
                               quiesced.violations.end());
  out.completed = cluster.completion().total_completed();
  out.chaos_events =
      cluster.trace_log().count(trace::EventKind::kChaosFault);
  return out;
}

// --- State-consistency sweep ---------------------------------------------
//
// Exactly-once verification: for each seed, run the same workload twice —
// once fault-free, once under the seed's random FaultPlan — with
// checkpointing enabled and a config where every tuple tree eventually
// completes (no shedding, generous replay budget). After both runs drain,
// every keyed count in the chaos run must equal the fault-free reference:
// zero lost updates, zero double-applied updates, across crash + replay +
// restore interleavings.

struct ConsistencyRun {
  AuditReport report;
  KeyedState state;
  std::uint64_t completed = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t restores = 0;
  bool drained = false;
  std::string drain_diag;
};

// `expected` non-null runs the auditor's state-consistency check against
// it (violations land in the returned report) before the topology dies.
ConsistencyRun consistency_run(std::uint64_t seed, bool with_faults,
                               const KeyedState* expected = nullptr) {
  sim::Simulation sim;
  runtime::ClusterConfig cfg;
  cfg.num_nodes = 6;
  cfg.failure_detection = true;
  cfg.seed = seed;
  // Stateful bolts defer their acks until the covering checkpoint round
  // commits, so completion latency carries an O(checkpoint_interval) tax —
  // the timeout must sit well above it or healthy trees time out en masse.
  cfg.tuple_timeout = 20.0;
  cfg.late_ack_grace_factor = 2.0;
  cfg.replay_backoff_base = 0.5;
  cfg.replay_backoff_max = 8.0;
  cfg.node_timeout = 9.0;
  cfg.heartbeat_period = 2.0;
  cfg.monitor_period = 3.0;
  // Every tree must land for the keyed counts to be comparable: no load
  // shedding, and a replay budget far beyond what any fault needs.
  cfg.flow.enabled = false;
  cfg.max_replays = 200;
  cfg.state.enabled = true;
  cfg.state.checkpoint_interval = 2.0;
  core::StormSystem sys(sim, cfg);
  auto& cluster = sys.cluster();

  workload::WordCountOptions wc_opt;
  wc_opt.spouts = 1;
  wc_opt.splitters = 2;
  wc_opt.counters = 2;
  wc_opt.mongos = 2;
  wc_opt.ackers = 2;
  wc_opt.workers = 6;
  auto wc = workload::make_word_count(wc_opt);
  workload::QueueProducer producer(sim, *wc.queue, 60.0);
  producer.start();
  const auto id = sys.submit(std::move(wc.topology));

  if (with_faults) {
    RandomPlanOptions opt;
    opt.start = 30.0;
    opt.end = 150.0;
    opt.crashes = 1;
    opt.min_downtime = 15.0;
    opt.max_downtime = 30.0;
    opt.worker_kills = 3;
    opt.partitions = 1;
    opt.loss_spikes = 2;
    opt.max_drop_prob = 0.08;
    FaultPlan::random(opt, seed, cfg.num_nodes, cfg.slots_per_node)
        .inject(cluster);
  }

  sim.run_until(170.0);
  producer.stop();

  // Drain until every registered tree is resolved (completed exactly once
  // or erased after its grace window) — the keyed counts are final only
  // then. Capped so a livelock fails the test instead of hanging it.
  const double drain_cap = sim.now() + 900.0;
  while (sim.now() < drain_cap &&
         (cluster.tracker().in_flight() != 0 ||
          cluster.tracker().tracked_entries() != 0)) {
    sim.run_until(sim.now() + 5.0);
  }

  ConsistencyRun out;
  out.drained = cluster.tracker().in_flight() == 0 &&
                cluster.tracker().tracked_entries() == 0;
  if (!out.drained) {
    out.drain_diag =
        "in_flight=" + std::to_string(cluster.tracker().in_flight()) +
        " tracked=" + std::to_string(cluster.tracker().tracked_entries()) +
        " registered=" +
        std::to_string(cluster.tracker().total_registered()) +
        " completed=" +
        std::to_string(cluster.completion().total_completed()) +
        " failed=" + std::to_string(cluster.completion().total_failed()) +
        " replays_dropped=" +
        std::to_string(cluster.tracker().replays_dropped()) + " ckpt_ok=" +
        std::to_string(cluster.trace_log().count(
            trace::EventKind::kCheckpointComplete)) +
        " ckpt_abort=" + std::to_string(cluster.trace_log().count(
                             trace::EventKind::kCheckpointAborted)) +
        " restores=" + std::to_string(cluster.trace_log().count(
                           trace::EventKind::kStateRestored)) +
        " dedup=" + std::to_string(cluster.state_dedup_suppressed());
    // Tail of the checkpoint timeline + gated-ack queues: a drain failure
    // here is almost always "rounds stopped committing, acks stayed gated".
    const auto oks =
        cluster.trace_log().of_kind(trace::EventKind::kCheckpointComplete);
    out.drain_diag += "\nlast commits:";
    for (std::size_t i = oks.size() > 6 ? oks.size() - 6 : 0; i < oks.size();
         ++i) {
      out.drain_diag += " " + std::to_string(oks[i].time) + "(" +
                        oks[i].detail + ")";
    }
    const auto aborts =
        cluster.trace_log().of_kind(trace::EventKind::kCheckpointAborted);
    out.drain_diag += "\nlast aborts:";
    for (std::size_t i = aborts.size() > 6 ? aborts.size() - 6 : 0;
         i < aborts.size(); ++i) {
      out.drain_diag +=
          " " + std::to_string(aborts[i].time) + "(" + aborts[i].detail + ")";
    }
    out.drain_diag += "\ngated acks:";
    for (const runtime::Executor* e : cluster.registered_executors()) {
      if (e->state_store() == nullptr) continue;
      out.drain_diag += " task" + std::to_string(e->task()) + "=" +
                        std::to_string(e->deferred_ack_count()) + "@" +
                        std::to_string(e->deferred_head_round());
    }
  }
  // Loss accounting (always on): lets a state-divergence failure show at a
  // glance where each run's tuples went — replay exhaustion, queue
  // residue, or which drop cause dominated.
  out.drain_diag +=
      "\nreplays_dropped=" + std::to_string(cluster.tracker().replays_dropped()) +
      " failed=" + std::to_string(cluster.completion().total_failed()) +
      " queue_left=" + std::to_string(wc.queue->size()) +
      " registered=" + std::to_string(cluster.tracker().total_registered());
  for (int c = 0; c < 5; ++c) {
    const auto cause = static_cast<runtime::DropCause>(c);
    out.drain_diag += std::string(" ") + runtime::to_string(cause) + "=" +
                      std::to_string(cluster.dropped_by(cause));
  }
  InvariantAuditor auditor(cluster);
  // Collect while the topology (and its executors) still exist.
  out.state = auditor.collect_keyed_state();
  out.report = auditor.check_now();
  if (expected != nullptr) {
    auditor.check_state_consistency(out.report, *expected);
  }
  out.completed = cluster.completion().total_completed();
  out.checkpoints =
      cluster.trace_log().count(trace::EventKind::kCheckpointComplete);
  out.restores =
      cluster.trace_log().count(trace::EventKind::kStateRestored);
  cluster.kill_topology(id);
  sim.run_until(sim.now() +
                (1.0 + cfg.late_ack_grace_factor) * cfg.tuple_timeout +
                2.0 * cfg.supervisor_sync_period + 5.0);
  const AuditReport quiesced = auditor.check_quiesced();
  out.report.violations.insert(out.report.violations.end(),
                               quiesced.violations.begin(),
                               quiesced.violations.end());
  return out;
}

TEST(ChaosSoak, TwentySeedStateConsistencySweep) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const ConsistencyRun reference = consistency_run(seed, /*with_faults=*/false);
    ASSERT_TRUE(reference.drained)
        << "seed " << seed << " reference run failed to drain";
    ASSERT_TRUE(reference.report.ok())
        << "seed " << seed << " reference run violated invariants:\n"
        << reference.report.to_string();

    const ConsistencyRun chaos =
        consistency_run(seed, /*with_faults=*/true, &reference.state);
    ASSERT_TRUE(chaos.drained)
        << "seed " << seed << " chaos run failed to drain: "
        << chaos.drain_diag;
    EXPECT_TRUE(chaos.report.ok())
        << "seed " << seed << " chaos run violated invariants:\n"
        << chaos.report.to_string();
    EXPECT_GT(chaos.checkpoints, 0u)
        << "seed " << seed << " completed no checkpoints";
    // Note: completion counts legitimately differ — a timed-out attempt
    // that later completes via replay records an extra (late) completion.
    // The exactly-once contract is on the state, not the attempt count:
    EXPECT_EQ(chaos.state, reference.state)
        << "seed " << seed << " keyed state diverged ("
        << chaos.state.size() << " keys vs " << reference.state.size()
        << " in reference)\nchaos:" << chaos.drain_diag
        << "\nreference:" << reference.drain_diag;
  }
}

TEST(ChaosSoak, TwentySeedSweepPassesAuditor) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const SoakOutcome out = soak_one(seed);
    EXPECT_TRUE(out.report.ok())
        << "seed " << seed << " violated invariants:\n"
        << out.report.to_string();
    EXPECT_GT(out.completed, 0u) << "seed " << seed << " completed nothing";
    EXPECT_GT(out.chaos_events, 0u)
        << "seed " << seed << " injected no faults";
    // Tuple-pool hygiene: with the cluster destroyed, every pooled tuple
    // block and string buffer must be back on its freelist — a nonzero
    // count here is a refcount leak on some crash/replay/drain path.
    EXPECT_EQ(topo::detail::tuple_pool_stats().live_blocks, 0u)
        << "seed " << seed << " leaked tuple blocks";
    EXPECT_EQ(topo::detail::tuple_pool_stats().string_buffers, 0u)
        << "seed " << seed << " leaked pooled string buffers";
  }
}

}  // namespace
}  // namespace tstorm::chaos
