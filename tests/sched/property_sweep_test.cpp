// Parameterized property sweeps across all scheduling algorithms: for any
// cluster size, executor count and topology mix, every algorithm must
// produce a placement that (a) covers every executor when capacity allows,
// (b) never co-locates two topologies in one slot, and (c) only uses slots
// that exist and are unoccupied.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <unordered_map>

#include "sched/aniello.h"
#include "sched/round_robin.h"
#include "sched/scheduler.h"
#include "sched/traffic_aware.h"
#include "sweep_inputs.h"

namespace tstorm::sched {
namespace {

class AlgorithmSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(AlgorithmSweep, StructuralInvariants) {
  const auto& c = GetParam();
  const auto in = build_input(c);
  auto alg = AlgorithmRegistry::instance().create(c.algorithm);
  ASSERT_NE(alg, nullptr);
  const auto r = alg->schedule(in);

  const std::size_t total =
      static_cast<std::size_t>(c.topologies * c.executors_per_topology);
  const std::size_t slots = in.slots.size();
  // Coverage: every executor placed when there is any slot at all. The
  // round-robin family can run out of free slots for later topologies.
  if (slots >= static_cast<std::size_t>(c.topologies)) {
    EXPECT_GE(r.assignment.size(), std::min(total, slots));
  }

  std::set<SlotIndex> valid;
  for (const auto& s : in.slots) valid.insert(s.slot);
  std::unordered_map<TaskId, TopologyId> topo_of;
  for (const auto& e : in.executors) topo_of[e.task] = e.topology;

  std::unordered_map<SlotIndex, TopologyId> owner;
  for (const auto& [task, slot] : r.assignment) {
    // Only real slots.
    EXPECT_TRUE(valid.contains(slot));
    // One topology per slot.
    auto [it, inserted] = owner.emplace(slot, topo_of.at(task));
    if (!inserted) {
      EXPECT_EQ(it->second, topo_of.at(task));
    }
  }

  // Determinism: same input, same output.
  auto alg2 = AlgorithmRegistry::instance().create(c.algorithm);
  EXPECT_EQ(alg2->schedule(build_input(c)).assignment, r.assignment);
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, AlgorithmSweep,
                         ::testing::ValuesIn(make_cases()));

TEST(AlgorithmSweep, TrafficAwareHandlesMassiveInput) {
  SweepCase c{"traffic-aware", 50, 4, 5, 100, 99};
  const auto in = build_input(c);
  TrafficAwareScheduler alg;
  const auto r = alg.schedule(in);
  EXPECT_EQ(r.assignment.size(), 500u);
  EXPECT_TRUE(one_slot_per_topology_per_node(in, r.assignment));
}

TEST(AlgorithmSweep, NoSlotsProducesEmptyPlacement) {
  SchedulerInput in;
  in.executors.push_back({0, 0, {1.0}});
  in.topologies.push_back({0, 1});
  for (const char* name : {"traffic-aware", "round-robin", "tstorm-initial",
                           "aniello-online", "rstorm"}) {
    auto alg = AlgorithmRegistry::instance().create(name);
    const auto r = alg->schedule(in);
    EXPECT_TRUE(r.assignment.empty()) << name;
  }
}

TEST(AlgorithmSweep, AllSlotsOccupiedProducesEmptyPlacement) {
  SchedulerInput in;
  in.slots = {{0, 0, 0}, {1, 0, 1}};
  in.nodes = {{0, {8000.0}}};
  in.occupied_slots = {0, 1};
  in.executors.push_back({0, 0, {1.0}});
  in.topologies.push_back({0, 1});
  for (const char* name : {"round-robin", "tstorm-initial"}) {
    auto alg = AlgorithmRegistry::instance().create(name);
    const auto r = alg->schedule(in);
    EXPECT_TRUE(r.assignment.empty()) << name;
  }
}

}  // namespace
}  // namespace tstorm::sched
