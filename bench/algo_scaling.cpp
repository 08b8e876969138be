// Scheduling-cost microbenchmarks (google-benchmark).
//
// Section IV-C claims Algorithm 1 runs in O(Ne log Ne + Ne * Ns). These
// benchmarks sweep executor count Ne and slot count Ns to verify the
// scaling empirically, and compare against the local-search refinement,
// R-Storm and the baseline schedulers.
#include <benchmark/benchmark.h>

#include "sched/aniello.h"
#include "sched/local_search.h"
#include "sched/round_robin.h"
#include "sched/rstorm.h"
#include "sched/traffic_aware.h"
#include "sim/rng.h"

using namespace tstorm;

namespace {

sched::SchedulerInput make_input(int executors, int nodes,
                                 int slots_per_node) {
  sched::SchedulerInput in;
  for (int n = 0; n < nodes; ++n) {
    for (int p = 0; p < slots_per_node; ++p) {
      in.slots.push_back({n * slots_per_node + p, n, p});
    }
    in.nodes.push_back({n, {8000.0 * 0.85}});
  }
  in.topologies.push_back({0, nodes * slots_per_node});
  sim::Rng rng(1234);
  for (int i = 0; i < executors; ++i) {
    in.executors.push_back({i, 0, {rng.uniform(5.0, 60.0)}});
  }
  // Sparse random traffic, ~4 edges per executor (chain-ish topologies).
  for (int i = 0; i < executors * 4; ++i) {
    const auto a = static_cast<sched::TaskId>(
        rng.uniform_int(0, executors - 1));
    const auto b = static_cast<sched::TaskId>(
        rng.uniform_int(0, executors - 1));
    if (a != b) in.traffic.push_back({a, b, rng.uniform(1.0, 200.0)});
    in.topology_edges.emplace_back(a, b);
  }
  in.gamma = 2.0;
  return in;
}

void BM_TrafficAware(benchmark::State& state) {
  const auto in = make_input(static_cast<int>(state.range(0)),
                             static_cast<int>(state.range(1)), 4);
  sched::TrafficAwareScheduler alg;
  for (auto _ : state) {
    auto r = alg.schedule(in);
    benchmark::DoNotOptimize(r);
  }
  state.SetComplexityN(state.range(0));
}

void BM_LocalSearch(benchmark::State& state) {
  const auto in = make_input(static_cast<int>(state.range(0)),
                             static_cast<int>(state.range(1)), 4);
  sched::LocalSearchScheduler alg;
  for (auto _ : state) {
    auto r = alg.schedule(in);
    benchmark::DoNotOptimize(r);
  }
  state.SetComplexityN(state.range(0));
}

void BM_RStorm(benchmark::State& state) {
  const auto in = make_input(static_cast<int>(state.range(0)),
                             static_cast<int>(state.range(1)), 4);
  sched::RStormScheduler alg;
  for (auto _ : state) {
    auto r = alg.schedule(in);
    benchmark::DoNotOptimize(r);
  }
  state.SetComplexityN(state.range(0));
}

void BM_RoundRobin(benchmark::State& state) {
  const auto in = make_input(static_cast<int>(state.range(0)),
                             static_cast<int>(state.range(1)), 4);
  sched::RoundRobinScheduler alg;
  for (auto _ : state) {
    auto r = alg.schedule(in);
    benchmark::DoNotOptimize(r);
  }
}

void BM_AnielloOnline(benchmark::State& state) {
  const auto in = make_input(static_cast<int>(state.range(0)),
                             static_cast<int>(state.range(1)), 4);
  sched::AnielloOnlineScheduler alg;
  for (auto _ : state) {
    auto r = alg.schedule(in);
    benchmark::DoNotOptimize(r);
  }
}

}  // namespace

// Ne sweep at fixed cluster size (10 nodes / 40 slots).
BENCHMARK(BM_TrafficAware)
    ->Args({45, 10})
    ->Args({90, 10})
    ->Args({180, 10})
    ->Args({360, 10})
    ->Args({720, 10})
    ->Complexity(benchmark::oNLogN);

// Ns sweep at fixed executor count.
BENCHMARK(BM_TrafficAware)
    ->Args({200, 5})
    ->Args({200, 10})
    ->Args({200, 20})
    ->Args({200, 40})
    ->Args({200, 80});

// Same Ne sweep for the traffic-driven refinement and R-Storm.
BENCHMARK(BM_LocalSearch)
    ->Args({45, 10})
    ->Args({90, 10})
    ->Args({180, 10})
    ->Args({360, 10})
    ->Args({720, 10});
BENCHMARK(BM_RStorm)
    ->Args({45, 10})
    ->Args({90, 10})
    ->Args({180, 10})
    ->Args({360, 10})
    ->Args({720, 10});

BENCHMARK(BM_RoundRobin)->Args({45, 10})->Args({360, 10})->Args({720, 10});
BENCHMARK(BM_AnielloOnline)->Args({45, 10})->Args({360, 10});

BENCHMARK_MAIN();
