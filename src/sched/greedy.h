// The greedy placement loop behind Algorithm 1 (traffic_aware.cpp) and
// R-Storm (rstorm.cpp): an executor order, a per-node score with its
// tie-break, and a relaxation ladder whose rungs name the constraints they
// keep. Every rung visits each node once, through the index's one
// eligibility rule. A new objective is a new score term, not a new scan.
#pragma once

#include <limits>
#include <span>

#include "sched/index.h"

namespace tstorm::sched {

/// One rung of a relaxation ladder: the constraints a placement keeps.
struct Rung {
  bool count_limit;  // Algorithm 1's constraint (3), count_limit()
  unsigned fit;      // bit d set: resource dimension d must fit
};
inline constexpr unsigned kFitAll = (1u << kResourceDims) - 1;

/// Scores closer than this to the best so far tie.
inline constexpr double kScoreTie = 1e-12;

/// True when executor e may join node n and keep `rung`; `limit` is
/// ix.count_limit().
inline bool admits(const SchedulerIndex& ix, const Rung& rung, int limit,
                   int e, int n) {
  if (rung.count_limit && ix.count[n] + 1 > limit) return false;
  for (std::size_t d = 0; d < kResourceDims; ++d) {
    if ((rung.fit >> d & 1u) != 0 &&
        ix.used[n][d] + ix.demand[e][d] > ix.capacity[n][d]) {
      return false;
    }
  }
  return true;
}

/// Places each executor of `order` after `scorer.begin(e)`: on the first
/// rung that admits any node, the admitted node with the lowest
/// `scorer.score(e, n)` wins; on a tie `scorer.prefers(n, s, best_n, best_s,
/// rung)` says whether node n's slot s displaces the best. A later rung sets
/// count_relaxed when it drops the first rung's count limit and
/// capacity_relaxed when it keeps fewer dimensions. An executor no rung
/// admits stays unplaced.
template <class Scorer>
ScheduleResult place_greedily(SchedulerIndex& ix, const SchedulerInput& in,
                              std::span<const int> order,
                              std::span<const Rung> ladder, Scorer& scorer) {
  ScheduleResult result;
  const int limit = ix.count_limit(in);
  const int nodes = static_cast<int>(ix.node_id.size());
  for (const int e : order) {
    scorer.begin(e);
    int best_node = -1;
    int best_slot = -1;
    std::size_t r = 0;
    for (; best_slot < 0 && r < ladder.size(); ++r) {
      const Rung& rung = ladder[r];
      double best = std::numeric_limits<double>::infinity();
      for (int n = 0; n < nodes; ++n) {
        const int s = ix.eligible_slot(n, ix.topo[e]);
        if (s < 0 || !admits(ix, rung, limit, e, n)) continue;
        const double v = scorer.score(e, n);
        if (v < best - kScoreTie ||
            (v < best + kScoreTie &&
             scorer.prefers(n, s, best_node, best_slot, rung))) {
          best = v;
          best_node = n;
          best_slot = s;
        }
      }
    }
    if (best_slot < 0) continue;
    const Rung& placed = ladder[r - 1];
    result.count_relaxed |= ladder[0].count_limit && !placed.count_limit;
    result.capacity_relaxed |= placed.fit != ladder[0].fit;
    ix.place(e, best_slot);
    result.assignment[in.executors[e].task] = ix.slot_id[best_slot];
  }
  return result;
}

}  // namespace tstorm::sched
