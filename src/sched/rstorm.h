// R-Storm: resource-aware placement (Peng et al., Middleware '15).
// Traverses each topology breadth-first from its spouts and places every
// task on the node minimizing a soft-constraint distance, with memory as
// a hard constraint and a dominant network-distance term that pulls
// communicating tasks onto the same node. The resource terms rank
// feasible nodes by post-placement utilization (most headroom first)
// rather than the paper's strict best-fit — with measured demand
// estimates, best-fit systematically overloads the weakest node of a
// heterogeneous fleet (see the comment at the distance computation).
#pragma once

#include "sched/scheduler.h"

namespace tstorm::sched {

class RStormScheduler final : public ISchedulingAlgorithm {
 public:
  ScheduleResult schedule(const SchedulerInput& input) override;
  [[nodiscard]] std::string name() const override { return "rstorm"; }
};

}  // namespace tstorm::sched
