#include "sim/simulation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/rng.h"

namespace tstorm::sim {
namespace {

TEST(Simulation, StartsAtTimeZero) {
  Simulation sim;
  EXPECT_EQ(sim.now(), 0.0);
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.events_executed(), 0u);
}

TEST(Simulation, ExecutesEventAtScheduledTime) {
  Simulation sim;
  double seen = -1;
  sim.schedule_at(5.0, [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, 5.0);
  EXPECT_EQ(sim.now(), 5.0);
}

TEST(Simulation, ScheduleAfterIsRelative) {
  Simulation sim;
  std::vector<double> times;
  sim.schedule_at(2.0, [&] {
    sim.schedule_after(3.0, [&] { times.push_back(sim.now()); });
  });
  sim.run();
  ASSERT_EQ(times.size(), 1u);
  EXPECT_EQ(times[0], 5.0);
}

TEST(Simulation, EventsOrderedByTime) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule_at(3.0, [&] { order.push_back(3); });
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_at(2.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulation, EqualTimesRunInSchedulingOrder) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Simulation, PastTimesClampToNow) {
  Simulation sim;
  double seen = -1;
  sim.schedule_at(10.0, [&] {
    sim.schedule_at(3.0, [&] { seen = sim.now(); });  // in the past
  });
  sim.run();
  EXPECT_EQ(seen, 10.0);
}

TEST(Simulation, CancelPreventsExecution) {
  Simulation sim;
  bool ran = false;
  const EventId id = sim.schedule_at(1.0, [&] { ran = true; });
  EXPECT_TRUE(sim.cancel(id));
  sim.run();
  EXPECT_FALSE(ran);
}

TEST(Simulation, CancelReturnsFalseForUnknownOrRepeated) {
  Simulation sim;
  const EventId id = sim.schedule_at(1.0, [] {});
  EXPECT_FALSE(sim.cancel(kInvalidEvent));
  EXPECT_FALSE(sim.cancel(id + 100));  // never issued
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));  // already cancelled
}

TEST(Simulation, CancelAfterExecutionIsNoOp) {
  Simulation sim;
  const EventId id = sim.schedule_at(1.0, [] {});
  sim.run();
  // The id was consumed; cancelling must not corrupt the live count.
  sim.cancel(id);
  EXPECT_EQ(sim.pending(), 0u);
  bool ran = false;
  sim.schedule_at(2.0, [&] { ran = true; });
  sim.run();
  EXPECT_TRUE(ran);
}

// Regression: the tombstone-based queue accepted cancels of
// already-executed ids — it returned true, leaked a tombstone, and
// decremented the live count below the real pending count.
TEST(Simulation, CancelOfExecutedIdDoesNotCorruptPending) {
  Simulation sim;
  bool b_ran = false;
  const EventId a = sim.schedule_at(1.0, [] {});
  sim.schedule_at(2.0, [&] { b_ran = true; });
  sim.run_until(1.5);  // A executed, B still pending
  EXPECT_FALSE(sim.cancel(a));
  EXPECT_EQ(sim.pending(), 1u);
  EXPECT_FALSE(sim.cancel(a));  // still a no-op on repeat
  EXPECT_EQ(sim.pending(), 1u);
  sim.run();
  EXPECT_TRUE(b_ran);
  EXPECT_EQ(sim.pending(), 0u);
  // A fresh schedule/run cycle is unaffected by the stale id.
  bool c_ran = false;
  sim.schedule_after(1.0, [&] { c_ran = true; });
  EXPECT_EQ(sim.pending(), 1u);
  sim.run();
  EXPECT_TRUE(c_ran);
}

// A slot recycled after cancellation must not fire for its old event, and
// the old event's id must not cancel the new occupant.
TEST(Simulation, RecycledSlotDoesNotMisfire) {
  Simulation sim;
  int old_fires = 0;
  int new_fires = 0;
  const EventId old_id = sim.schedule_at(1.0, [&] { ++old_fires; });
  EXPECT_TRUE(sim.cancel(old_id));
  const EventId new_id = sim.schedule_at(1.0, [&] { ++new_fires; });
  EXPECT_FALSE(sim.cancel(old_id));  // stale id, recycled slot
  sim.run();
  EXPECT_EQ(old_fires, 0);
  EXPECT_EQ(new_fires, 1);
  EXPECT_FALSE(sim.cancel(new_id));  // already executed
}

TEST(Simulation, PendingTracksLiveEvents) {
  Simulation sim;
  const EventId a = sim.schedule_at(1.0, [] {});
  sim.schedule_at(2.0, [] {});
  EXPECT_EQ(sim.pending(), 2u);
  sim.cancel(a);
  EXPECT_EQ(sim.pending(), 1u);
  sim.run();
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulation, RunUntilExecutesInclusiveBoundary) {
  Simulation sim;
  int count = 0;
  sim.schedule_at(1.0, [&] { ++count; });
  sim.schedule_at(2.0, [&] { ++count; });
  sim.schedule_at(2.5, [&] { ++count; });
  const auto n = sim.run_until(2.0);
  EXPECT_EQ(n, 2u);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(sim.now(), 2.0);
  EXPECT_EQ(sim.pending(), 1u);
}

TEST(Simulation, RunUntilAdvancesClockWithoutEvents) {
  Simulation sim;
  sim.run_until(42.0);
  EXPECT_EQ(sim.now(), 42.0);
}

TEST(Simulation, RunUntilCanBeResumed) {
  Simulation sim;
  std::vector<double> seen;
  for (double t : {1.0, 5.0, 9.0}) {
    sim.schedule_at(t, [&seen, &sim] { seen.push_back(sim.now()); });
  }
  sim.run_until(4.0);
  EXPECT_EQ(seen.size(), 1u);
  sim.run_until(10.0);
  EXPECT_EQ(seen.size(), 3u);
}

TEST(Simulation, StopHaltsRun) {
  Simulation sim;
  int count = 0;
  sim.schedule_at(1.0, [&] {
    ++count;
    sim.stop();
  });
  sim.schedule_at(2.0, [&] { ++count; });
  sim.run();
  EXPECT_EQ(count, 1);
  sim.clear_stop();
  sim.run();
  EXPECT_EQ(count, 2);
}

TEST(Simulation, EventsExecutedAccumulates) {
  Simulation sim;
  for (int i = 0; i < 5; ++i) sim.schedule_at(i, [] {});
  sim.run();
  EXPECT_EQ(sim.events_executed(), 5u);
}

TEST(Simulation, EventCanScheduleAtSameTime) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule_at(1.0, [&] {
    order.push_back(1);
    sim.schedule_at(1.0, [&] { order.push_back(2); });
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(sim.now(), 1.0);
}

TEST(PeriodicTask, FiresAtFixedPeriod) {
  Simulation sim;
  std::vector<double> fires;
  PeriodicTask task(sim, 10.0, [&] { fires.push_back(sim.now()); });
  task.start(10.0);
  sim.run_until(35.0);
  EXPECT_EQ(fires, (std::vector<double>{10.0, 20.0, 30.0}));
}

TEST(PeriodicTask, StartWithPhase) {
  Simulation sim;
  std::vector<double> fires;
  PeriodicTask task(sim, 10.0, [&] { fires.push_back(sim.now()); });
  task.start(3.0);
  sim.run_until(25.0);
  EXPECT_EQ(fires, (std::vector<double>{3.0, 13.0, 23.0}));
}

TEST(PeriodicTask, StopCancelsFutureTicks) {
  Simulation sim;
  int count = 0;
  PeriodicTask task(sim, 1.0, [&] { ++count; });
  task.start(1.0);
  sim.run_until(2.5);
  task.stop();
  EXPECT_FALSE(task.running());
  sim.run_until(10.0);
  EXPECT_EQ(count, 2);
}

TEST(PeriodicTask, SetPeriodTakesEffectNextTick) {
  Simulation sim;
  std::vector<double> fires;
  PeriodicTask task(sim, 10.0, [&] { fires.push_back(sim.now()); });
  task.start(10.0);
  sim.run_until(10.0);  // first fire re-arms with old period first
  task.set_period(5.0);
  sim.run_until(40.0);
  // Fire at 10 re-armed at 20 (already scheduled with old period), then 25,
  // 30, 35, 40.
  ASSERT_GE(fires.size(), 3u);
  EXPECT_EQ(fires[0], 10.0);
  EXPECT_EQ(fires[1], 20.0);
  EXPECT_EQ(fires[2], 25.0);
}

TEST(PeriodicTask, CallbackMayStopItself) {
  Simulation sim;
  int count = 0;
  PeriodicTask task(sim, 1.0, [&] {
    if (++count == 3) task.stop();
  });
  task.start(1.0);
  sim.run_until(100.0);
  EXPECT_EQ(count, 3);
}

TEST(PeriodicTask, RestartResetsPhase) {
  Simulation sim;
  std::vector<double> fires;
  PeriodicTask task(sim, 10.0, [&] { fires.push_back(sim.now()); });
  task.start(10.0);
  sim.run_until(15.0);
  task.start(2.0);  // restart from t=15
  sim.run_until(18.0);
  EXPECT_EQ(fires, (std::vector<double>{10.0, 17.0}));
}

TEST(PeriodicTask, RejectsInvalidPeriods) {
#ifndef NDEBUG
  Simulation sim;
  EXPECT_DEATH(PeriodicTask(sim, 0.0, [] {}), "period");
  EXPECT_DEATH(PeriodicTask(sim, -1.0, [] {}), "period");
  {
    PeriodicTask task(sim, 1.0, [] {});
    EXPECT_DEATH(task.set_period(0.0), "period");
    EXPECT_DEATH(task.set_period(-5.0), "period");
  }
#else
  // Release builds clamp/ignore instead of aborting: the constructor clamps
  // to kMinPeriod and set_period keeps the current period.
  Simulation sim;
  PeriodicTask clamped(sim, 0.0, [] {});
  EXPECT_GE(clamped.period(), PeriodicTask::kMinPeriod);
  PeriodicTask task(sim, 1.0, [] {});
  task.set_period(0.0);
  EXPECT_EQ(task.period(), 1.0);
  task.set_period(-3.0);
  EXPECT_EQ(task.period(), 1.0);
  task.set_period(2.0);
  EXPECT_EQ(task.period(), 2.0);
#endif
}

// Randomized schedule/cancel/run workload; two identical runs must produce
// identical execution orders and events_executed() counts.
TEST(Simulation, FuzzedScheduleCancelRunIsDeterministic) {
  auto run_once = [](std::uint64_t seed) {
    Simulation sim;
    Rng rng(seed);
    std::vector<std::pair<double, int>> log;  // (time, tag) per execution
    std::vector<EventId> open;
    int next_tag = 0;
    for (int round = 0; round < 200; ++round) {
      const int burst = static_cast<int>(rng.uniform_int(1, 8));
      for (int i = 0; i < burst; ++i) {
        const double dt = rng.uniform(0.0, 5.0);
        const int tag = next_tag++;
        open.push_back(sim.schedule_after(
            dt, [&log, &sim, tag] { log.emplace_back(sim.now(), tag); }));
      }
      // Cancel a random subset of still-open ids (some already executed or
      // cancelled — cancel() must tolerate both).
      const int cancels = static_cast<int>(rng.uniform_int(0, 3));
      for (int i = 0; i < cancels && !open.empty(); ++i) {
        const auto pick = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(open.size()) - 1));
        sim.cancel(open[pick]);
      }
      sim.run_until(sim.now() + rng.uniform(0.0, 2.0));
    }
    sim.run();
    return std::make_pair(log, sim.events_executed());
  };
  const auto a = run_once(42);
  const auto b = run_once(42);
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
  EXPECT_FALSE(a.first.empty());
  // A different seed should exercise a different trajectory.
  EXPECT_NE(run_once(7).first, a.first);
}

// Cancel-heavy workload that crosses cancel()'s purge threshold many
// times. The reference is the list of live events; every step must run the
// earliest of them by (time, schedule order), and pending() must match it
// after every cancel and every step.
TEST(Simulation, CancelHeavyPurgesKeepExecutionOrder) {
  struct Ref {
    double t;
    int tag;  // schedule order
    EventId id;
  };
  Simulation sim;
  Rng rng(11);
  std::vector<Ref> live;
  int ran = -1;
  int next_tag = 0;
  int purges = 0;
  auto step_and_check = [&] {
    const auto first = std::min_element(
        live.begin(), live.end(), [](const Ref& a, const Ref& b) {
          return a.t != b.t ? a.t < b.t : a.tag < b.tag;
        });
    ASSERT_TRUE(sim.step());
    EXPECT_EQ(ran, first->tag);
    EXPECT_EQ(sim.now(), first->t);
    live.erase(first);
    EXPECT_EQ(sim.pending(), live.size());
  };
  for (int round = 0; round < 3000; ++round) {
    const int burst = static_cast<int>(rng.uniform_int(1, 40));
    for (int i = 0; i < burst; ++i) {
      // Half-second grid: many equal times, so schedule order matters.
      const double t =
          sim.now() + 0.5 * static_cast<double>(rng.uniform_int(0, 60));
      const int tag = next_tag++;
      live.push_back({t, tag, sim.schedule_at(t, [&ran, tag] { ran = tag; })});
    }
    const auto keep = static_cast<std::size_t>(rng.uniform_int(150, 250));
    while (live.size() > keep) {
      const auto pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      const std::size_t records = sim.heap_records();
      EXPECT_TRUE(sim.cancel(live[pick].id));
      if (sim.heap_records() + 1 < records) ++purges;
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      EXPECT_EQ(sim.pending(), live.size());
      EXPECT_LE(sim.heap_records(), 2 * live.size() + 256);
    }
    const int steps = static_cast<int>(rng.uniform_int(0, 3));
    for (int i = 0; i < steps && !live.empty(); ++i) step_and_check();
  }
  while (!live.empty()) step_and_check();
  EXPECT_FALSE(sim.step());
  EXPECT_EQ(sim.heap_records(), 0u);
  EXPECT_GT(purges, 50);
}

TEST(Simulation, DeterministicAcrossRuns) {
  auto run_once = [] {
    Simulation sim;
    std::vector<double> log;
    PeriodicTask a(sim, 0.7, [&] { log.push_back(sim.now()); });
    PeriodicTask b(sim, 1.1, [&] { log.push_back(-sim.now()); });
    a.start(0.7);
    b.start(1.1);
    sim.run_until(50.0);
    return log;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace tstorm::sim
