// TraceLog unit tests plus end-to-end control-plane trace assertions.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "core/system.h"
#include "trace/trace.h"
#include "workload/topologies.h"

namespace tstorm::trace {
namespace {

TEST(TraceLog, RecordAndQuery) {
  TraceLog log;
  log.record({1.0, EventKind::kWorkerStarted, 0, 2, 8, 100, "4 tasks"});
  log.record({2.0, EventKind::kWorkerStopped, 0, 2, 8, 100, ""});
  log.record({3.0, EventKind::kWorkerStarted, 1, 3, 12, 200, ""});
  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(log.count(EventKind::kWorkerStarted), 2u);
  EXPECT_EQ(log.of_kind(EventKind::kWorkerStopped).size(), 1u);
  const auto mid = log.between(1.5, 2.5);
  ASSERT_EQ(mid.size(), 1u);
  EXPECT_EQ(mid[0].kind, EventKind::kWorkerStopped);
}

TEST(TraceLog, RingBufferBounded) {
  TraceLog log(10);
  for (int i = 0; i < 100; ++i) {
    log.record({static_cast<double>(i), EventKind::kWorkerStarted, -1, -1,
                -1, 0, ""});
  }
  EXPECT_EQ(log.size(), 10u);
  EXPECT_EQ(log.total_recorded(), 100u);
  EXPECT_DOUBLE_EQ(log.events().front().time, 90.0);
}

TEST(TraceLog, FormatContainsFields) {
  const Event e{42.5, EventKind::kSchedulePublished, 3, -1, -1, 77,
                "traffic-aware"};
  const auto s = format_event(e);
  EXPECT_NE(s.find("schedule-published"), std::string::npos);
  EXPECT_NE(s.find("topology=3"), std::string::npos);
  EXPECT_NE(s.find("version=77"), std::string::npos);
  EXPECT_NE(s.find("traffic-aware"), std::string::npos);
}

TEST(TraceLog, DumpRespectsRange) {
  TraceLog log;
  log.record({1.0, EventKind::kNodeFailed, -1, 0, -1, 0, ""});
  log.record({5.0, EventKind::kNodeRecovered, -1, 0, -1, 0, ""});
  std::ostringstream os;
  log.dump(os, 0, 2.0);
  EXPECT_NE(os.str().find("node-failed"), std::string::npos);
  EXPECT_EQ(os.str().find("node-recovered"), std::string::npos);
}

TEST(TraceLog, KindNamesComplete) {
  for (auto kind :
       {EventKind::kTopologySubmitted, EventKind::kSchedulePublished,
        EventKind::kScheduleApplied, EventKind::kWorkerStarted,
        EventKind::kWorkerDraining, EventKind::kWorkerStopped,
        EventKind::kSpoutsHalted, EventKind::kOverloadTriggered,
        EventKind::kNodeFailed, EventKind::kNodeRecovered,
        EventKind::kTopologyKilled}) {
    EXPECT_STRNE(to_string(kind), "?");
  }
}

// --- End-to-end: the runtime actually emits the expected events. ---

TEST(TraceIntegration, SubmissionAndWorkerLifecycle) {
  sim::Simulation sim;
  core::StormSystem sys(sim);
  sys.submit(workload::make_throughput_test());
  sim.run_until(60.0);
  auto& log = sys.cluster().trace_log();
  EXPECT_EQ(log.count(EventKind::kTopologySubmitted), 1u);
  EXPECT_EQ(log.count(EventKind::kScheduleApplied), 1u);  // initial
  EXPECT_EQ(log.count(EventKind::kWorkerStarted), 40u);   // 40 workers
  EXPECT_EQ(log.count(EventKind::kWorkerStopped), 0u);
}

TEST(TraceIntegration, ConsolidationLeavesFullAuditTrail) {
  sim::Simulation sim;
  core::CoreConfig core;
  core.gamma = 6.0;
  core::TStormSystem sys(sim, {}, core);
  sys.submit(workload::make_throughput_test());
  sim.run_until(500.0);
  auto& log = sys.cluster().trace_log();
  // Generator published at t=300, custom scheduler applied it, supervisors
  // started replacement workers, drained and stopped the old ones, spouts
  // were halted during the handover.
  EXPECT_GE(log.count(EventKind::kSchedulePublished), 1u);
  EXPECT_GE(log.count(EventKind::kScheduleApplied), 2u);  // initial + new
  EXPECT_GT(log.count(EventKind::kWorkerDraining), 0u);
  EXPECT_GT(log.count(EventKind::kWorkerStopped), 0u);
  EXPECT_GT(log.count(EventKind::kSpoutsHalted), 0u);
  // The publication names the algorithm and node count.
  const auto pubs = log.of_kind(EventKind::kSchedulePublished);
  EXPECT_NE(pubs.front().detail.find("traffic-aware"), std::string::npos);
  EXPECT_NE(pubs.front().detail.find("nodes"), std::string::npos);
}

TEST(TraceIntegration, SmoothHandoverOrdering) {
  // Section IV-D's core guarantee, asserted from the trace: replacement
  // workers start BEFORE the displaced workers stop, and displaced
  // workers drain for the configured delay.
  sim::Simulation sim;
  core::CoreConfig core;
  core.gamma = 6.0;
  core::TStormSystem sys(sim, {}, core);
  sys.submit(workload::make_throughput_test());
  sim.run_until(500.0);
  auto& log = sys.cluster().trace_log();

  const auto pubs = log.of_kind(EventKind::kSchedulePublished);
  ASSERT_FALSE(pubs.empty());
  const double reassign_time = pubs.front().time;

  double first_new_start = 1e18;
  for (const auto& e : log.of_kind(EventKind::kWorkerStarted)) {
    if (e.time > reassign_time) {
      first_new_start = std::min(first_new_start, e.time);
    }
  }
  double first_stop = 1e18;
  for (const auto& e : log.of_kind(EventKind::kWorkerStopped)) {
    if (e.time > reassign_time) first_stop = std::min(first_stop, e.time);
  }
  ASSERT_LT(first_new_start, 1e18);
  ASSERT_LT(first_stop, 1e18);
  EXPECT_LT(first_new_start, first_stop);

  // Draining precedes stopping by the shutdown delay (20 s).
  const auto drains = log.of_kind(EventKind::kWorkerDraining);
  ASSERT_FALSE(drains.empty());
  const auto& d = drains.front();
  bool matched = false;
  for (const auto& s : log.of_kind(EventKind::kWorkerStopped)) {
    if (s.slot == d.slot && s.time > d.time) {
      EXPECT_NEAR(s.time - d.time,
                  sys.cluster().config().shutdown_delay, 1e-6);
      matched = true;
      break;
    }
  }
  EXPECT_TRUE(matched);
}

TEST(TraceIntegration, NodeFailureRecorded) {
  sim::Simulation sim;
  core::TStormSystem sys(sim);
  sys.submit(workload::make_throughput_test());
  sim.run_until(60.0);
  sys.cluster().fail_node(2);
  sys.cluster().recover_node(2);
  auto& log = sys.cluster().trace_log();
  ASSERT_EQ(log.count(EventKind::kNodeFailed), 1u);
  EXPECT_EQ(log.of_kind(EventKind::kNodeFailed)[0].node, 2);
  EXPECT_EQ(log.count(EventKind::kNodeRecovered), 1u);
}

}  // namespace
}  // namespace tstorm::trace
