// Runner entries for the ablations and the extensions beyond the paper:
// node failure, key skew, resource-aware placement, flow control and
// recovery of keyed state.
#include <algorithm>
#include <cstdio>
#include <iomanip>
#include <iostream>
#include <set>
#include <string>
#include <vector>

#include "core/custom_scheduler.h"
#include "core/load_monitor.h"
#include "core/metrics_db.h"
#include "core/schedule_generator.h"
#include "core/system.h"
#include "harness.h"
#include "metrics/histogram.h"
#include "metrics/reporter.h"
#include "runtime/cluster.h"
#include "runtime/executor.h"
#include "sched/local_search.h"
#include "sched/round_robin.h"
#include "sched/traffic_aware.h"
#include "sched/types.h"
#include "sim/rng.h"
#include "sim/simulation.h"
#include "state/checkpoint.h"
#include "state/state_store.h"
#include "trace/trace.h"
#include "workload/external_queue.h"
#include "workload/topologies.h"

namespace tstorm::bench {

namespace {

/// Runs Fig. 9's overload scenario under `core` and prints how fast the
/// overload was detected (the first overload-triggered generation) and the
/// damage done.
void run_estimator(const std::string& label, const core::CoreConfig& core,
                   double duration, Report& report) {
  const RunSpec spec = overload_word_count();
  sim::Simulation sim;
  std::vector<std::shared_ptr<void>> keepalive;
  core::TStormSystem system(sim, spec.cluster, core);
  system.submit_pinned(spec.make_topology(sim, keepalive), *spec.pin);

  double detect_time = -1;
  sim::PeriodicTask watch(sim, 5.0, [&] {
    if (detect_time < 0 && system.generator().overload_triggers() > 0) {
      detect_time = sim.now();
    }
  });
  watch.start(5.0);

  sim.run_until(duration);
  const auto& completion = system.cluster().completion();
  const double recovered_ms =  // mean proc time in the last 300 s
      completion.proc_time_ms()
          .mean_between(duration - 300, duration)
          .value_or(0);
  const int nodes = system.cluster().nodes_in_use();
  std::cout << "  " << std::setw(22) << std::left << label << std::right
            << " detect " << std::setw(6)
            << (detect_time < 0 ? std::string("never")
                                : metrics::format_ms(detect_time, 0))
            << " s   failed " << std::setw(7) << completion.total_failed()
            << "   recovered " << std::setw(9)
            << metrics::format_ms(recovered_ms) << " ms on " << nodes
            << " nodes\n";
  report.sim(label + ".detect_s", detect_time);
  report.sim(label + ".failed",
             static_cast<double>(completion.total_failed()));
  report.sim(label + ".recovered_ms", recovered_ms);
  report.sim(label + ".final_nodes", nodes);
}

}  // namespace

// Ablation: load/traffic estimation methods and the EWMA coefficient.
//
// Section IV-B uses EWMA with alpha = 0.5 and notes that other estimation
// or prediction methods can be plugged in. This bench compares:
//   - EWMA with alpha in {0.2, 0.5, 0.8} (smaller = more sensitive),
//   - a sliding-window mean,
//   - Holt double exponential smoothing (predicts one period ahead),
// on the Fig. 9 overload scenario, reporting how fast each detects the
// overload (first overload-triggered generation) and the damage done
// before recovery.
int ablation_estimators(bool quick, Report& report) {
  std::cout << "Ablation — estimation methods on the Fig. 9 overload "
               "scenario (overload begins at t=60 s)\n\n";

  const double duration = quick ? 300.0 : 1000.0;
  const core::CoreConfig fig9 = overload_word_count().core;
  for (double alpha : {0.2, 0.5, 0.8}) {
    core::CoreConfig core = fig9;
    core.estimator = "ewma";
    core.alpha = alpha;
    run_estimator("ewma alpha=" + metrics::format_ms(alpha, 1), core,
                  duration, report);
  }
  {
    core::CoreConfig core = fig9;
    core.estimator = "sliding-window";
    core.sliding_window = 5;
    run_estimator("sliding-window (5)", core, duration, report);
  }
  {
    core::CoreConfig core = fig9;
    core.estimator = "holt";
    run_estimator("holt trend", core, duration, report);
  }

  std::cout << "\nExpectation: smaller alpha reacts faster (the paper: "
               "\"the smaller the alpha, the more sensitive\"); the Holt "
               "trend estimator anticipates the ramp and detects earliest; "
               "large alpha detects late and accumulates more failures.\n";
  return 0;
}

namespace {

void sweep(const char* title, const std::string& key,
           const TopologyFn& topology, bool quick, Report& report) {
  RunSpec spec;
  spec.tstorm = true;
  spec.duration = quick ? 360.0 : 1000.0;
  spec.steady_from = quick ? 240.0 : 500.0;
  spec.make_topology = topology;
  std::cout << "\n== " << title << " ==\n"
            << "   gamma     nodes   avg proc (ms) [" << spec.steady_from
            << "," << spec.duration << ")\n";
  for (double gamma : {1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0}) {
    spec.label = key + " g=" + metrics::format_ms(gamma, 1);
    spec.core.gamma = gamma;
    const auto r = run(spec);
    report.run(r);
    std::cout << "   " << std::setw(5) << gamma << "   " << std::setw(6)
              << r.final_nodes() << "   " << std::setw(12)
              << metrics::format_ms(r.steady_mean_ms()) << "\n";
  }
}

}  // namespace

// Ablation: the consolidation factor gamma (section IV-C). Sweeps gamma
// for a light topology (Throughput Test) and a work-intensive one (Word
// Count) and reports nodes used vs processing time — the consolidation /
// performance tradeoff the paper discusses ("the consolidation factor
// should not be greedily set to a large value" for heavy bolts).
int ablation_gamma_sweep(bool quick, Report& report) {
  std::cout << "Ablation — consolidation factor sweep\n";
  sweep("Throughput Test (light bolts: consolidates far without penalty)",
        "tt",
        [](sim::Simulation&, std::vector<std::shared_ptr<void>>&) {
          return workload::make_throughput_test();
        },
        quick, report);
  sweep("Word Count (work-intensive bolts: consolidation costs latency)",
        "wc", queue_fed(workload::WordCountOptions{}, 260.0), quick, report);
  return 0;
}

namespace {

/// Co-hosts both topologies under Storm or T-Storm and prints the mixed
/// mean over the second half of the run, the nodes in use, and whether the
/// topologies kept to their own slots.
void run_mixed(bool tstorm, double duration, Report& report) {
  sim::Simulation sim;
  core::CoreConfig core;
  core.gamma = 1.7;
  System system(sim, tstorm, {}, core);
  runtime::Cluster& cluster = system.cluster();

  workload::ThroughputTestOptions tt_opt;
  tt_opt.workers = 20;  // leave room for the second topology
  tt_opt.spout_parallelism = 3;
  tt_opt.identity_parallelism = 8;
  tt_opt.counter_parallelism = 8;
  tt_opt.ackers = 5;
  const auto tt_id = system.submit(workload::make_throughput_test(tt_opt));

  workload::WordCountOptions wc_opt;
  wc_opt.workers = 10;
  auto wc = workload::make_word_count(wc_opt);
  workload::QueueProducer producer(sim, *wc.queue, 200.0);
  producer.start();
  const auto wc_id = system.submit(std::move(wc.topology));

  sim.run_until(duration);

  // The cluster's completion recorder aggregates across topologies, so the
  // headline number is the mixed mean; the structural facts (node usage,
  // slot exclusivity) are per topology.
  const double mixed_ms = cluster.completion()
                              .proc_time_ms()
                              .mean_between(duration / 2, duration)
                              .value_or(0);
  const auto& coordination = cluster.coordination();
  std::set<sched::SlotIndex> tt_slots;
  for (const auto& [task, slot] : coordination.get(tt_id)->placement) {
    tt_slots.insert(slot);
  }
  bool exclusive = true;
  for (const auto& [task, slot] : coordination.get(wc_id)->placement) {
    if (tt_slots.contains(slot)) exclusive = false;
  }
  const std::string label = tstorm ? "T-Storm" : "Storm";
  std::cout << "  " << std::setw(8) << std::left << label << std::right
            << " mixed avg [" << duration / 2 << "," << duration << ") "
            << std::setw(8) << metrics::format_ms(mixed_ms) << " ms   nodes "
            << cluster.nodes_in_use() << "   slot exclusivity "
            << (exclusive ? "holds" : "VIOLATED") << "\n";
  report.sim(label + ".mixed_ms", mixed_ms);
  report.sim(label + ".nodes", cluster.nodes_in_use());
  report.sim(label + ".exclusive", exclusive ? 1 : 0);
}

}  // namespace

// "Given M topologies..." (section IV-C): the schedule generator
// reschedules every topology in one run. This bench co-hosts Throughput
// Test and Word Count on the same 10-node cluster under Storm and under
// T-Storm, and reports per-topology processing time plus slot exclusivity.
int ablation_multi_topology(bool quick, Report& report) {
  std::cout << "Multi-topology co-scheduling — Throughput Test + Word "
               "Count on one 10-node cluster\n\n";
  const double duration = quick ? 360.0 : 1000.0;
  for (bool tstorm : {false, true}) run_mixed(tstorm, duration, report);
  std::cout << "\nT-Storm's generator reschedules both topologies in one "
               "run (one SchedulerInput with M=2), never co-locating two "
               "topologies in a slot while consolidating nodes.\n";
  return 0;
}

// Extension bench: whole-node failure. Stock Storm's supervisors restart
// failed *workers*, but when an entire machine dies nobody moves its
// executors — the topology stays crippled until an operator intervenes.
// T-Storm's schedule generator sees assignments pointing at the dead node
// and republishes a repaired schedule within one monitoring period.
int ablation_node_failure(bool quick, Report& report) {
  std::cout << "Extension — whole-node failure at t=200 s (Throughput "
               "Test)\n";

  RunSpec spec;
  spec.core.gamma = 2.0;
  spec.duration = quick ? 400.0 : 600.0;
  spec.steady_from = 300.0;
  spec.make_topology = [](sim::Simulation&,
                          std::vector<std::shared_ptr<void>>&) {
    return workload::make_throughput_test();
  };
  spec.after_submit = [](sim::Simulation& sim, runtime::Cluster& cluster) {
    // A machine dies at t=200 s. Node 0 always hosts executors by then.
    sim.schedule_at(200.0, [&cluster] { cluster.fail_node(0); });
  };
  spec.label = "Storm";
  const auto storm = run(spec);
  spec.label = "T-Storm";
  spec.tstorm = true;
  const auto tstorm = run(spec);
  report.run(storm);
  report.run(tstorm);

  print_comparison("Node-failure recovery", {storm, tstorm});
  print_node_timeline(storm);
  print_node_timeline(tstorm);

  std::cout << "\nPost-failure damage ([200," << storm.duration
            << ") s):\n";
  for (const auto* r : {&storm, &tstorm}) {
    std::cout << "  " << r->label << ": failed " << r->failed
              << " tuples, completed " << r->completed << ", mean "
              << metrics::format_ms(r->steady_mean_ms()) << " ms\n";
  }
  std::cout << "\nExpectation: Storm keeps failing the tuples routed to the "
               "dead node's executors forever; T-Storm reschedules around "
               "the dead machine within ~30 s and completions recover.\n";
  return 0;
}

namespace {

/// Full T-Storm control plane over a cluster whose smoothing flag we
/// control directly (TStormSystem always enables it).
RunResult run_with_smoothing(bool smooth, double duration) {
  sim::Simulation sim;
  runtime::ClusterConfig cluster_cfg;
  cluster_cfg.smooth_reassignment = smooth;
  runtime::Cluster cluster(sim, cluster_cfg);

  core::CoreConfig core;
  core.gamma = 2.0;
  core.generation_period = 200.0;  // one reassignment at t=200
  core::MetricsDb db(core.alpha);
  std::vector<std::unique_ptr<core::LoadMonitor>> monitors;
  for (int n = 0; n < cluster_cfg.num_nodes; ++n) {
    monitors.push_back(std::make_unique<core::LoadMonitor>(
        cluster, db, n, core.monitor_period));
    monitors.back()->start(core.monitor_period * (n + 1) /
                           (cluster_cfg.num_nodes + 1));
  }
  core::ScheduleGenerator generator(cluster, db, core);
  generator.start();
  core::CustomScheduler scheduler(cluster, db, core.fetch_period);
  scheduler.start();

  sched::TStormInitialScheduler initial;
  cluster.submit(workload::make_throughput_test(), &initial);

  return measure(sim, cluster,
                 smooth ? "smooth (T-Storm)" : "abrupt (Storm)", 300.0,
                 duration);
}

}  // namespace

// Ablation: T-Storm's smooth reassignment machinery (section IV-D) on vs
// off. Same topology, same schedule change at the same time; the only
// difference is the reassignment procedure:
//   abrupt — Storm semantics: affected workers are killed immediately,
//            replacements start after the JVM spawn delay, spouts never
//            pause; queued and in-flight tuples are lost and time out.
//   smooth — T-Storm semantics: replacements start first, old workers
//            drain for 20 s, spouts halt 10 s, the per-slot dispatcher
//            routes in-flight tuples to old/new workers by assignment ID.
int ablation_reassignment(bool quick, Report& report) {
  std::cout << "Ablation — reassignment smoothing (section IV-D)\n"
            << "Throughput Test, gamma=2, one consolidation reassignment at "
               "t~200 s\n";

  const double duration = quick ? 400.0 : 600.0;
  const auto abrupt = run_with_smoothing(false, duration);
  const auto smooth = run_with_smoothing(true, duration);
  report.run(abrupt);
  report.run(smooth);

  print_comparison("Reassignment procedure ablation", {abrupt, smooth});

  std::cout << "\nReassignment cost (the spike around t=200-240 s):\n";
  for (const auto* r : {&abrupt, &smooth}) {
    std::cout << "  " << r->label << ": mean [200,260) = "
              << metrics::format_ms(r->mean_ms(200, 260))
              << " ms, dropped messages " << r->dropped
              << ", failed tuples " << r->failed << ", replays "
              << r->replayed << "\n";
  }
  std::cout << "\nExpectation: the abrupt variant loses queued tuples "
               "(drops > 0, failures from timeouts); the smooth variant "
               "hands over with little or no loss.\n";
  return 0;
}

namespace {

runtime::ClusterConfig heterogeneous_fleet() {
  runtime::ClusterConfig cfg;
  // 2 big + 4 standard + 4 small: the small nodes cannot absorb a full
  // share of the word-count load (CPU) and have a tenth of the NIC, so a
  // resource-blind spread pays for it while a resource-aware packer
  // concentrates work on the capable nodes.
  cfg.node_groups = {
      {2, {.slots = 4, .cores = 8, .per_core_mhz = 2500.0,
           .memory_mib = 32768.0, .network_mbps = 10000.0}},
      {4, {.slots = 4, .cores = 4, .per_core_mhz = 2000.0,
           .memory_mib = 16384.0, .network_mbps = 1000.0}},
      {4, {.slots = 2, .cores = 1, .per_core_mhz = 700.0,
           .memory_mib = 1024.0, .network_mbps = 100.0}},
  };
  cfg.seed = 7;
  return cfg;
}

}  // namespace

// Ablation: resource-aware placement on a heterogeneous fleet. The
// cluster mixes big, standard and small nodes (CPU / memory / NIC all
// differ), described compactly via ClusterConfig::node_groups. Four online
// schedulers run head to head inside the same T-Storm runtime:
//
//   round-robin    — Storm's default deal, resource- and traffic-blind
//   aniello-online — DEBS'13 traffic-based two-phase scheduler
//   traffic-aware  — the paper's Algorithm 1 (CPU capacity + traffic)
//   rstorm         — R-Storm-style distance placement over the full
//                    resource vector (CPU soft, memory hard, NIC soft)
//
// Each run measures throughput (completed tuples, whole run), mean / p50 /
// p99 processing time over the second half of the run, and the estimated
// inter-node traffic of the final published placement (tuples/s crossing
// node boundaries, the paper's objective function). Self-checks that
// rstorm beats round-robin on BOTH inter-node traffic and throughput —
// the claim the resource-vector API exists to support.
int ablation_resource_aware(bool quick, Report& report) {
  RunSpec spec;
  spec.tstorm = true;
  spec.cluster = heterogeneous_fleet();
  spec.core.generation_period = 60.0;
  spec.core.gamma = 1.7;
  // Backlog feedback: measured MHz saturates at node capacity, so a
  // packed node looks like it still "fits". Folding queue depth into the
  // effective demand (satellite of the resource-vector API) lets every
  // capacity-aware scheduler see the overload and spread on the next pass.
  spec.core.queue_pressure_weight = 25.0;
  spec.duration = quick ? 300.0 : 600.0;
  // Latency is taken over the second half, past the start-up transient.
  spec.steady_from = spec.duration / 2;
  spec.make_topology = queue_fed(workload::WordCountOptions{}, 260.0);
  std::cout << "Ablation — resource-aware placement on a heterogeneous "
               "fleet (" << spec.duration
            << " sim-s, word count @ 260 tuples/s)\n";

  std::vector<RunResult> runs;
  for (const char* name :
       {"round-robin", "aniello-online", "traffic-aware", "rstorm"}) {
    spec.label = name;
    spec.core.algorithm = name;
    runs.push_back(run(spec));
    report.run(runs.back());
  }
  print_comparison("Resource-aware placement", runs);
  std::cout << "\nInter-node traffic of the final placement (tuples/s):\n";
  for (const auto& r : runs) {
    std::cout << "  " << std::setw(24) << std::left << r.label << std::right
              << metrics::format_ms(r.internode_tps, 1) << "\n";
  }

  // Self-check: the resource-aware scheduler must justify itself against
  // the resource-blind baseline on this fleet — strictly less estimated
  // inter-node traffic AND strictly more completed tuples.
  const RunResult& rr = runs[0];
  const RunResult& rs = runs[3];
  if (!(rs.internode_tps < rr.internode_tps) ||
      !(rs.completed > rr.completed)) {
    std::cerr << "FAIL: rstorm does not beat round-robin (traffic "
              << rs.internode_tps << " vs " << rr.internode_tps
              << ", completed " << rs.completed << " vs " << rr.completed
              << ")\n";
    return 1;
  }
  return 0;
}

// Ablation: scheduling algorithms head to head inside the same T-Storm
// runtime (smooth reassignment, monitoring, 300 s generation):
//   round-robin     — Storm's default placement, regenerated online
//   aniello-offline — DEBS'13 topology-structure-only scheduler
//   aniello-online  — DEBS'13 traffic-based two-phase scheduler
//   traffic-aware   — the paper's Algorithm 1
//   local-search    — Algorithm 1 refined by hill climbing
// Run on Word Count, whose mixed shuffle + fields groupings give the
// traffic-aware algorithms real structure to exploit.
int ablation_scheduler_comparison(bool quick, Report& report) {
  std::cout << "Ablation — scheduling algorithm comparison on Word Count "
               "(T-Storm runtime, gamma=1.7)\n";

  std::vector<RunResult> runs;
  for (const char* name : {"round-robin", "aniello-offline",
                           "aniello-online", "traffic-aware",
                           "local-search"}) {
    RunSpec spec;
    spec.label = name;
    spec.tstorm = true;
    spec.core.algorithm = name;
    spec.core.gamma = 1.7;
    spec.duration = quick ? 360.0 : 1000.0;
    spec.steady_from = quick ? 240.0 : 500.0;
    spec.make_topology = queue_fed(workload::WordCountOptions{}, 260.0);
    runs.push_back(run(spec));
    report.run(runs.back());
  }
  print_comparison("Algorithm comparison", runs);
  std::cout << "\nNote: all four run inside T-Storm's runtime (one worker "
               "per node initially, smooth reassignment), so this isolates "
               "the placement algorithm itself. The paper's Storm baseline "
               "additionally suffers the 40-worker crowding shown in "
               "fig05/fig06.\n";
  return 0;
}

namespace {

/// Pipelines of `stages` stages with `width` executors per stage and
/// stage-to-stage all-to-all traffic — the shape of real topologies.
sched::SchedulerInput pipeline_input(int nodes, int stages, int width,
                                     double gamma, std::uint64_t seed) {
  sched::SchedulerInput in;
  for (int n = 0; n < nodes; ++n) {
    for (int p = 0; p < 4; ++p) in.slots.push_back({n * 4 + p, n, p});
    in.nodes.push_back({n, {8000.0 * 0.85}});
  }
  sim::Rng rng(seed);
  const int total = stages * width;
  in.topologies.push_back({0, nodes});
  for (int i = 0; i < total; ++i) {
    in.executors.push_back({i, 0, {rng.uniform(10.0, 120.0)}});
  }
  for (int s = 0; s + 1 < stages; ++s) {
    for (int a = 0; a < width; ++a) {
      for (int b = 0; b < width; ++b) {
        in.traffic.push_back({s * width + a, (s + 1) * width + b,
                              rng.uniform(5.0, 50.0)});
      }
    }
  }
  in.gamma = gamma;
  return in;
}

void compare(const std::string& label, const sched::SchedulerInput& in,
             Report& report) {
  sched::RoundRobinScheduler rr;
  sched::TrafficAwareScheduler greedy;
  sched::LocalSearchScheduler search;

  double total = 0;
  for (const auto& t : in.traffic) total += t.rate;

  std::cout << "\n" << label << " (total traffic "
            << metrics::format_ms(total, 0) << "):\n";
  for (auto* alg : std::initializer_list<sched::ISchedulingAlgorithm*>{
           &rr, &greedy, &search}) {
    const auto r = alg->schedule(in);
    const double internode = sched::internode_traffic(in, r.assignment);
    const int nodes = sched::nodes_used(in, r.assignment);
    report.sim(label + "." + alg->name() + ".internode", internode);
    report.sim(label + "." + alg->name() + ".nodes", nodes);
    std::cout << "  " << std::setw(14) << std::left << alg->name()
              << std::right << " internode " << std::setw(9)
              << metrics::format_ms(internode, 0) << " ("
              << metrics::format_ms(100.0 * internode / total, 1)
              << "% of total)   nodes " << nodes << "\n";
  }
}

}  // namespace

// Extension ablation: how much inter-node traffic does Algorithm 1's
// single-pass greedy leave on the table? Compares round-robin, Algorithm 1
// and the local-search refinement on synthetic scheduling inputs (pure
// algorithm comparison, no simulation), reporting inter-node traffic and
// nodes used.
/// Pure algorithm comparison: cheap enough that quick runs in full.
int ablation_search_quality(bool /*quick*/, Report& report) {
  std::cout << "Extension — placement quality: greedy Algorithm 1 vs "
               "local-search refinement\n";
  compare("pipeline 3x5 on 10 nodes, gamma=1",
          pipeline_input(10, 3, 5, 1.0, 7), report);
  compare("pipeline 3x5 on 10 nodes, gamma=2",
          pipeline_input(10, 3, 5, 2.0, 7), report);
  compare("pipeline 4x10 on 10 nodes, gamma=1.7",
          pipeline_input(10, 4, 10, 1.7, 11), report);
  compare("pipeline 6x8 on 16 nodes, gamma=2",
          pipeline_input(16, 6, 8, 2.0, 13), report);
  std::cout << "\nLocal search never does worse than the greedy; the gap is "
               "the cost of Algorithm 1's single-pass heuristic.\n";
  return 0;
}

// Ablation: input skew vs fields grouping. Fields grouping routes equal
// keys to the same task, so a Zipf-skewed key distribution concentrates
// load on one counter executor regardless of scheduling — a bottleneck no
// placement algorithm can fix (only repartitioning could). Sweeps the
// Zipf exponent of the Word Count vocabulary and reports the latency and
// failure cliff when the hottest task saturates.
int ablation_skew(bool quick, Report& report) {
  RunSpec spec;
  spec.tstorm = true;
  spec.core.gamma = 1.0;
  spec.duration = quick ? 200.0 : 600.0;
  spec.steady_from = quick ? 100.0 : 300.0;
  std::cout << "Ablation — key skew vs fields grouping (Word Count, 400 "
               "lines/s, T-Storm gamma=1)\n"
            << "The hottest word's share grows with the Zipf exponent; all "
               "of it lands on one counter task.\n\n"
            << "    zipf       avg[" << spec.steady_from << ","
            << spec.duration << ") ms     p99 ms      failed\n";
  for (double z : {1.01, 1.1, 1.2, 1.3, 1.5}) {
    spec.label = "zipf=" + metrics::format_ms(z, 2);
    workload::WordCountOptions opt;
    opt.text.zipf_exponent = z;
    spec.make_topology = queue_fed(opt, 400.0);
    const auto r = run(spec);
    report.run(r);
    std::cout << "    " << std::setw(4) << z << "   " << std::setw(14)
              << metrics::format_ms(r.steady_mean_ms()) << "   "
              << std::setw(11) << metrics::format_ms(r.p99_ms) << "   "
              << std::setw(9) << r.failed << "\n";
  }
  std::cout << "\nExpectation: latency is flat while the hot counter task "
               "keeps up, then rises sharply (and tuples eventually time "
               "out) once its single-thread capacity is exceeded — a "
               "repartitioning problem, not a placement problem.\n";
  return 0;
}

namespace {

struct Variant {
  std::string name;
  std::uint64_t completed = 0;
  double sustained_tps = 0;  // completions/s over the second half
  double p50_ms = 0;
  double p99_ms = 0;
  std::vector<double> depth_samples;  // every twelfth of the run
  std::size_t depth_max = 0;
  std::size_t depth_final = 0;
  std::uint64_t shed = 0;
  std::uint64_t throttle_activations = 0;
};

// 2 spouts at 100 tuples/s each against one 10 ms bolt (~100/s service at
// 2 GHz): offered load 2x capacity, sustained for the whole run.
workload::ChainOptions overload_at_2x() {
  workload::ChainOptions opt;
  opt.spout_parallelism = 2;
  opt.emit_interval = 0.01;
  opt.bolts = 1;
  opt.bolt_parallelism = 1;
  opt.ackers = 2;
  opt.workers = 2;  // spout->bolt hops cross the network
  opt.bolt_cost_mc = 20.0;
  // The spouts' pending window must not be what bounds the backlog — that
  // is the flow controller's job (or, flow off, nobody's).
  opt.max_pending = 1 << 20;
  return opt;
}

Variant run_variant(bool flow_on, double duration) {
  sim::Simulation sim;
  runtime::ClusterConfig cfg;
  cfg.num_nodes = 2;
  // Long timeout: the flow-off run's point is unbounded queue growth, not
  // timeout churn on the backlog.
  cfg.tuple_timeout = 4.0 * duration;
  cfg.flow.enabled = flow_on;
  cfg.flow.queue_capacity = 128;
  core::StormSystem sys(sim, cfg);
  sys.submit(workload::make_chain(overload_at_2x()));
  auto& cluster = sys.cluster();

  Variant v;
  v.name = flow_on ? "flow_on" : "flow_off";
  std::uint64_t completed_at_half = 0;
  const int samples = 12;
  for (int i = 1; i <= samples; ++i) {
    const double t = duration * i / samples;
    sim.run_until(t);
    std::size_t depth = 0;  // deepest data queue
    for (runtime::Executor* e : cluster.registered_executors()) {
      depth = std::max(depth, e->data_queue_depth());
    }
    v.depth_samples.push_back(static_cast<double>(depth));
    v.depth_max = std::max(v.depth_max, depth);
    if (i == samples / 2) {
      completed_at_half = cluster.completion().total_completed();
    }
  }

  v.completed = cluster.completion().total_completed();
  v.sustained_tps = static_cast<double>(v.completed - completed_at_half) /
                    (duration / 2.0);
  v.p50_ms = cluster.completion().latency_histogram().percentile(50.0);
  v.p99_ms = cluster.completion().latency_histogram().percentile(99.0);
  v.depth_final = static_cast<std::size_t>(v.depth_samples.back());
  v.shed = cluster.dropped_by(runtime::DropCause::kLoadShed);
  v.throttle_activations = cluster.flow().throttle_activations();
  return v;
}

}  // namespace

// Flow-control benchmark: the same overloaded chain (offered load ~2x the
// bottleneck bolt's service capacity) run twice — flow control off, then on
// — and the contrast that motivates the subsystem:
//
//   flow off — the bolt's queue grows without bound for the whole run and
//              completion p99 grows with it (every admitted tuple waits
//              behind the entire backlog).
//   flow on  — the queue stays inside the configured capacity, backpressure
//              paces the spouts to the bolt's service rate, and p99 is
//              bounded by capacity x service time.
//
// Reports sustained throughput over the second half of the run, p50/p99
// latency, periodic queue-depth samples and shed/backpressure counters.
int flow_bench(bool quick, Report& report) {
  const double duration = quick ? 60.0 : 300.0;
  std::vector<Variant> variants;
  variants.push_back(run_variant(/*flow_on=*/false, duration));
  variants.push_back(run_variant(/*flow_on=*/true, duration));

  std::cout << "flow_bench (" << (quick ? "quick" : "full")
            << ", 2x overload for " << duration << " sim-s)\n";
  for (const Variant& v : variants) {
    std::printf(
        "  %-9s %8llu completed  %7.1f tps sustained  p50 %9.1f ms  "
        "p99 %9.1f ms  queue max/final %6zu/%6zu  shed %llu  bp %llu\n",
        v.name.c_str(), static_cast<unsigned long long>(v.completed),
        v.sustained_tps, v.p50_ms, v.p99_ms, v.depth_max, v.depth_final,
        static_cast<unsigned long long>(v.shed),
        static_cast<unsigned long long>(v.throttle_activations));
    const std::string p = v.name + ".";
    report.sim(p + "completed", static_cast<double>(v.completed));
    report.sim(p + "sustained_tps", v.sustained_tps);
    report.sim(p + "p50_ms", v.p50_ms);
    report.sim(p + "p99_ms", v.p99_ms);
    report.sim(p + "queue_depth_max", static_cast<double>(v.depth_max));
    report.sim(p + "queue_depth_final", static_cast<double>(v.depth_final));
    report.sim(p + "shed", static_cast<double>(v.shed));
    report.sim(p + "throttle_activations",
               static_cast<double>(v.throttle_activations));
    report.sim(p + "queue_depth_samples", v.depth_samples);
  }

  // Self-check: the contrast the bench exists to demonstrate. Flow off
  // must show monotone queue growth far past the bound; flow on must stay
  // within capacity and shed/throttle at least once.
  const Variant& off = variants[0];
  const Variant& on = variants[1];
  const bool off_grows =
      off.depth_final > 128 &&
      off.depth_final + 16 > off.depth_max;  // still near its maximum at end
  const bool on_bounded = on.depth_max <= 128 && on.throttle_activations > 0;
  if (!off_grows || !on_bounded) {
    std::cerr << "FAIL: expected unbounded growth with flow off "
                 "(final/max "
              << off.depth_final << "/" << off.depth_max
              << ") and a bounded queue with flow on (max "
              << on.depth_max << ", activations "
              << on.throttle_activations << ")\n";
    return 1;
  }
  return 0;
}

namespace {

constexpr double kCheckpointInterval = 5.0;

struct Result {
  double kill_time = 0;
  double time_to_restore_s = -1;
  double time_to_consistent_s = -1;
  std::uint64_t checkpoints_before_kill = 0;
  std::uint64_t checkpoints_total = 0;
  std::uint64_t restores = 0;
  std::uint64_t aborted = 0;
  std::uint64_t completed_tuples = 0;
  state::CheckpointGauges gauges;  // of the one topology
};

/// First event of `kind` strictly after `t`, or -1.
double first_after(runtime::Cluster& cluster, trace::EventKind kind,
                   double t) {
  for (const trace::Event& e : cluster.trace_log().of_kind(kind)) {
    if (e.time > t) return e.time;
  }
  return -1;
}

Result run_once(double warmup, double budget) {
  sim::Simulation sim;
  runtime::ClusterConfig cfg;
  cfg.num_nodes = 4;
  cfg.seed = 99;
  cfg.failure_detection = true;
  cfg.tuple_timeout = 10.0;
  cfg.replay_backoff_base = 0.5;
  cfg.node_timeout = 9.0;
  cfg.heartbeat_period = 2.0;
  cfg.monitor_period = 3.0;
  cfg.max_replays = 50;
  cfg.state.enabled = true;
  cfg.state.checkpoint_interval = kCheckpointInterval;
  core::StormSystem sys(sim, cfg);

  workload::WordCountOptions opt;
  opt.spouts = 1;
  opt.splitters = 2;
  opt.counters = 2;
  opt.mongos = 1;
  opt.ackers = 2;
  opt.workers = 4;
  opt.text.vocabulary = 256;
  std::vector<std::shared_ptr<void>> keepalive;
  sys.submit(queue_fed(opt, 80.0)(sim, keepalive));
  auto& cluster = sys.cluster();

  sim.run_until(warmup);

  Result r;
  r.checkpoints_before_kill = cluster.trace_log().count(
      trace::EventKind::kCheckpointComplete);

  // Kill the worker hosting a stateful bolt task with accumulated state.
  bool killed = false;
  for (runtime::Executor* e : cluster.registered_executors()) {
    if (e->state_store() != nullptr && e->state_store()->size() > 0) {
      const runtime::Worker& w = e->worker();
      killed = cluster.kill_worker(w.node_id(), cluster.slot_port(w.slot()));
      break;
    }
  }
  r.kill_time = sim.now();
  if (!killed) return r;  // self-check below reports the failure

  sim.run_until(warmup + budget);

  const double restored =
      first_after(cluster, trace::EventKind::kStateRestored, r.kill_time);
  if (restored >= 0) {
    r.time_to_restore_s = restored - r.kill_time;
    const double consistent = first_after(
        cluster, trace::EventKind::kCheckpointComplete, restored);
    if (consistent >= 0) r.time_to_consistent_s = consistent - r.kill_time;
  }
  r.checkpoints_total = cluster.trace_log().count(
      trace::EventKind::kCheckpointComplete);
  r.restores =
      cluster.trace_log().count(trace::EventKind::kStateRestored);
  r.aborted = cluster.trace_log().count(
      trace::EventKind::kCheckpointAborted);
  r.completed_tuples = cluster.completion().total_completed();

  for (const int topo : cluster.checkpoints()->topologies()) {
    if (const auto* g = cluster.checkpoints()->gauges(topo)) r.gauges = *g;
  }
  return r;
}

}  // namespace

// Recovery benchmark: time-to-consistent-state after losing a stateful
// worker. A word-count topology runs with checkpointing enabled; once the
// cluster is warm (several completed checkpoint rounds), the bench kills
// the worker hosting a stateful bolt task and measures the recovery
// timeline off the trace log:
//
//   time_to_restore_s     kill -> the replacement executor finishes
//                         rehydrating from the durable store
//                         (kStateRestored);
//   time_to_consistent_s  kill -> the first checkpoint round that
//                         completes after the restore — from that instant
//                         the keyed state is durably consistent again
//                         (every update up to the barrier is snapshotted
//                         and every ack released).
//
// Reports the timeline plus the checkpoint gauges (snapshot bytes, round
// duration, interval adherence), and self-checks that recovery actually
// happened within the configured budget.
int recovery_bench(bool quick, Report& report) {
  const double warmup = quick ? 30.0 : 120.0;
  const double budget = quick ? 60.0 : 120.0;
  const Result r = run_once(warmup, budget);

  std::cout << "recovery_bench (" << (quick ? "quick" : "full") << ")\n";
  std::printf(
      "  kill at %.1f sim-s  restore +%.3f s  consistent +%.3f s\n"
      "  checkpoints %llu before kill, %llu total (%llu aborted), "
      "%llu restores\n"
      "  last snapshot %llu B in %.4f s, mean interval %.2f s "
      "(target %.2f s)\n",
      r.kill_time, r.time_to_restore_s, r.time_to_consistent_s,
      static_cast<unsigned long long>(r.checkpoints_before_kill),
      static_cast<unsigned long long>(r.checkpoints_total),
      static_cast<unsigned long long>(r.aborted),
      static_cast<unsigned long long>(r.restores),
      static_cast<unsigned long long>(r.gauges.last_bytes),
      r.gauges.last_duration, r.gauges.mean_interval, kCheckpointInterval);

  report.sim("time_to_restore_s", r.time_to_restore_s);
  report.sim("time_to_consistent_s", r.time_to_consistent_s);
  report.sim("checkpoints_before_kill",
             static_cast<double>(r.checkpoints_before_kill));
  report.sim("checkpoints_total", static_cast<double>(r.checkpoints_total));
  report.sim("checkpoints_aborted", static_cast<double>(r.aborted));
  report.sim("restores", static_cast<double>(r.restores));
  report.sim("completed_tuples", static_cast<double>(r.completed_tuples));
  report.sim("snapshot_bytes", static_cast<double>(r.gauges.last_bytes));
  report.sim("snapshot_duration_s", r.gauges.last_duration);
  report.sim("mean_checkpoint_interval_s", r.gauges.mean_interval);

  // Self-check: the bench is meaningless unless the cluster checkpointed
  // before the kill, the replacement executor restored, and state became
  // durably consistent again within the budget.
  if (r.checkpoints_before_kill == 0 || r.time_to_restore_s < 0 ||
      r.time_to_consistent_s < 0) {
    std::cerr << "FAIL: recovery did not complete (checkpoints before kill "
              << r.checkpoints_before_kill << ", time_to_restore "
              << r.time_to_restore_s << ", time_to_consistent "
              << r.time_to_consistent_s << ")\n";
    return 1;
  }
  return 0;
}

}  // namespace tstorm::bench
