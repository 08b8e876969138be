// LocalSearchScheduler: an extension beyond the paper. Algorithm 1 is a
// single-pass greedy ("finding the best scheduling solution is quite
// challenging", section III); this scheduler starts from Algorithm 1's
// placement and hill-climbs. Each pass first moves single executors to the
// node that most reduces inter-node traffic, then swaps pairs of
// same-topology executors on different nodes, which helps when nodes sit
// at the count limit. Every move and swap keeps Algorithm 1's three
// constraints: one slot per topology per node, node capacity, and the
// count limit ceil(gamma * Ne / K) with Algorithm 1's K. It quantifies how
// much traffic the greedy leaves on the table.
//
// Cost: a table holds, for every executor and node, the traffic between
// the executor and the executors on that node, so a candidate move or
// swap is scored in O(1). A pass costs O(Ne * K + same-topology pairs),
// plus O(deg^2) to refresh the table after each accepted move or swap.
#pragma once

#include "sched/scheduler.h"

namespace tstorm::sched {

class LocalSearchScheduler final : public ISchedulingAlgorithm {
 public:
  ScheduleResult schedule(const SchedulerInput& input) override;
  [[nodiscard]] std::string name() const override { return "local-search"; }
};

}  // namespace tstorm::sched
