// Seeded scheduler inputs shared by the scheduler property sweep and the
// placement golden test: a homogeneous fleet, one or more topologies with
// chain plus random intra-topology traffic.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include "sched/types.h"
#include "sim/rng.h"

namespace tstorm::sched {

struct SweepCase {
  std::string algorithm;
  int nodes;
  int slots_per_node;
  int topologies;
  int executors_per_topology;
  std::uint64_t seed;
};

/// "n<nodes>s<slots>t<topologies>e<executors>seed<seed>": the input's name.
inline std::string input_name(const SweepCase& c) {
  return "n" + std::to_string(c.nodes) + "s" +
         std::to_string(c.slots_per_node) + "t" +
         std::to_string(c.topologies) + "e" +
         std::to_string(c.executors_per_topology) + "seed" +
         std::to_string(c.seed);
}

inline void PrintTo(const SweepCase& c, std::ostream* os) {
  *os << c.algorithm << "/" << input_name(c);
}

inline SchedulerInput build_input(const SweepCase& c) {
  SchedulerInput in;
  sim::Rng rng(c.seed);
  for (int n = 0; n < c.nodes; ++n) {
    for (int p = 0; p < c.slots_per_node; ++p) {
      in.slots.push_back({n * c.slots_per_node + p, n, p});
    }
    in.nodes.push_back({n, {8000.0}});
  }
  int task = 0;
  for (int t = 0; t < c.topologies; ++t) {
    in.topologies.push_back(
        {t, static_cast<int>(rng.uniform_int(1, c.nodes * 2))});
    const int first = task;
    for (int e = 0; e < c.executors_per_topology; ++e) {
      in.executors.push_back({task++, t, {rng.uniform(1.0, 80.0)}});
    }
    // Random intra-topology traffic + chain edges.
    for (int e = first; e < task - 1; ++e) {
      in.traffic.push_back({e, e + 1, rng.uniform(1.0, 200.0)});
      in.topology_edges.emplace_back(e, e + 1);
    }
    for (int k = 0; k < c.executors_per_topology; ++k) {
      const auto a =
          static_cast<TaskId>(rng.uniform_int(first, task - 1));
      const auto b =
          static_cast<TaskId>(rng.uniform_int(first, task - 1));
      if (a != b) in.traffic.push_back({a, b, rng.uniform(0.1, 100.0)});
    }
  }
  return in;
}

/// Seven input shapes per registered algorithm, one seed each.
inline std::vector<SweepCase> make_cases() {
  std::vector<SweepCase> cases;
  std::uint64_t seed = 1;
  for (const char* alg : {"traffic-aware", "round-robin", "tstorm-initial",
                          "aniello-offline", "aniello-online", "local-search",
                          "rstorm"}) {
    for (const auto& [nodes, spn, topos, execs] :
         {std::tuple{1, 1, 1, 1}, {1, 4, 1, 9}, {3, 2, 2, 5},
          {10, 4, 1, 45}, {10, 4, 3, 12}, {16, 8, 4, 25},
          {2, 2, 3, 2}}) {
      cases.push_back({alg, nodes, spn, topos, execs, seed++});
    }
  }
  return cases;
}

}  // namespace tstorm::sched
