// Algorithm 1 from the paper: traffic-aware online scheduling.
//
// Sorts executors by descending total (incoming + outgoing) traffic, then
// greedily assigns each to the feasible slot with minimum incremental
// inter-node traffic, subject to three per-node constraints:
//   (1) executors of one topology occupy at most one slot per node
//       (eliminates inter-process traffic within a topology);
//   (2) node workload stays within capacity C_k;
//   (3) at most ceil(gamma * Ne / K) executors per node (consolidation
//       factor gamma: 1 = spread evenly, larger = pack onto fewer nodes).
// Complexity O(Ne log Ne + Ne * Ns), as claimed in section IV-C.
#pragma once

#include "sched/scheduler.h"

namespace tstorm::sched {

class SchedulerIndex;

struct TrafficAwareOptions {
  /// When no slot satisfies all constraints, relax the count constraint
  /// first, then capacity. The structural constraint (1) is never relaxed.
  bool allow_relaxation = true;

  /// MHz of effective load attributed per queued envelope: an executor's
  /// capacity footprint becomes load_mhz + weight * queue_depth, steering
  /// the greedy pass away from packing backlogged executors onto
  /// near-capacity nodes. 0 (default) reproduces the paper's Algorithm 1
  /// exactly — CPU load only.
  double queue_pressure_weight = 0.0;
};

class TrafficAwareScheduler final : public ISchedulingAlgorithm {
 public:
  explicit TrafficAwareScheduler(TrafficAwareOptions options = {})
      : options_(options) {}

  ScheduleResult schedule(const SchedulerInput& input) override;

  /// Algorithm 1 on an index of `input` whose demands already carry the
  /// queue pressure weight; the placement is left in the index's state.
  ScheduleResult place(SchedulerIndex& index,
                       const SchedulerInput& input) const;

  [[nodiscard]] std::string name() const override { return "traffic-aware"; }

 private:
  TrafficAwareOptions options_;
};

}  // namespace tstorm::sched
