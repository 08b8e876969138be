// Runner entries for the figures of the paper's evaluation (section V).
#include <iostream>

#include "harness.h"
#include "metrics/reporter.h"
#include "workload/topologies.h"

namespace tstorm::bench {
// Figure 2: impact of inter-process and inter-node traffic.
//
// The section III chain topology (1 spout, 4 bolts x 1 executor, 5 acker
// executors) under three pinned placements:
//   n1w1  — all executors in one worker on one node;
//   n5w5  — spread over 5 nodes, one worker per node (default-scheduler
//           style);
//   n5w10 — spread over 5 nodes, every executor in its own worker.
// Paper result: n1w1 < n5w5 (+35 %) < n5w10 (+67 %) after stabilization.
int fig02_placement_impact(bool quick, Report& report) {
  std::cout << "Figure 2 — impact of inter-process and inter-node traffic\n"
            << "Chain topology: 1 spout, 4 bolts (1 executor each), "
               "5 ackers; 10 KB tuples, 5 ms spout sleep.\n";

  // Task ids are deterministic: 0 = spout, 1-4 = bolts, 5-9 = ackers.
  const int kSlotsPerNode = 4;

  sched::Placement n1w1;
  for (int t = 0; t < 10; ++t) n1w1[t] = 0;

  sched::Placement n5w5;
  for (int t = 0; t < 10; ++t) n5w5[t] = (t % 5) * kSlotsPerNode;

  sched::Placement n5w10;
  for (int t = 0; t < 10; ++t) {
    n5w10[t] = (t % 5) * kSlotsPerNode + (t / 5);
  }

  RunSpec spec;
  spec.duration = quick ? 200.0 : 500.0;  // the x-axis runs 100-500 s
  spec.steady_from = 100.0;
  spec.make_topology = [](sim::Simulation&,
                          std::vector<std::shared_ptr<void>>&) {
    return workload::make_chain();  // 1 spout, 4 bolts, 5 ackers
  };
  std::vector<RunResult> runs;
  for (auto& [label, placement] :
       {std::pair{"n1w1", n1w1}, {"n5w5", n5w5}, {"n5w10", n5w10}}) {
    spec.label = label;
    spec.pin = placement;
    runs.push_back(run(spec));
    report.run(runs.back());
  }

  print_comparison("Fig. 2: avg processing time by placement", runs);

  const double base = runs[0].steady_mean_ms();
  std::cout << "\nRelative to n1w1: n5w5 +"
            << metrics::format_ms(
                   100.0 * (runs[1].steady_mean_ms() / base - 1.0), 1)
            << "% (paper: +35%), n5w10 +"
            << metrics::format_ms(
                   100.0 * (runs[2].steady_mean_ms() / base - 1.0), 1)
            << "% (paper: +67%)\n";
  return 0;
}

// Figure 3: impact of overloading a worker node.
//
// The chain topology with 5 spout executors and 1 executor per bolt,
// confined to one worker on one node — incoming tuples outpace the bolts,
// queues grow without bound, processing time skyrockets (Fig. 3(a)) and
// tuples start failing at the 30 s timeout (Fig. 3(b)).
int fig03_overload_impact(bool quick, Report& report) {
  std::cout << "Figure 3 — impact of overloading a worker node\n"
            << "Chain with 5 spout executors, 1 executor per bolt, all on "
               "one worker.\n";

  RunSpec spec;
  spec.label = "overloaded";
  spec.tstorm = false;
  spec.duration = quick ? 120.0 : 180.0;  // the x-axis runs 20-180 s
  spec.steady_from = 20.0;
  spec.cluster.max_replays = 1;
  // 5 spouts + 4 bolts + 5 ackers = 14 tasks; pin all to node 0, slot 0.
  sched::Placement pin;
  for (int t = 0; t < 14; ++t) pin[t] = 0;
  spec.pin = std::move(pin);
  spec.make_topology = [](sim::Simulation&,
                          std::vector<std::shared_ptr<void>>&) {
    workload::ChainOptions opt;
    opt.spout_parallelism = 5;   // 1000 tuples/s aggregate input
    opt.bolt_cost_mc = 8.0;      // 4 ms/tuple: the bolts cannot keep up
    opt.max_pending = 0;         // no backpressure, as in the experiment
    return workload::make_chain(opt);
  };

  const auto r = run(spec);
  report.run(r);
  print_comparison("Fig. 3(a): avg processing time under overload", {r});
  print_failures(r);  // Fig. 3(b)

  const double early = r.mean_ms(20, 60);
  const double late = r.mean_ms(120, 180);
  std::cout << "\nQueue growth: mean " << metrics::format_ms(early)
            << " ms in [20,60) s vs " << metrics::format_ms(late)
            << " ms in [120,180) s (paper: grows to ~10^4 ms with rising "
               "failures)\n";
  return 0;
}

// Figure 5: performance on the Throughput Test topology.
//
// 10 worker nodes, 40 workers requested, 5 spout / 15 identity / 15
// counter / 10 acker executors; 10 KB tuples at 5 ms per spout emission.
// Storm (default scheduler) vs T-Storm with gamma = 1, 1.7 and 6.
// Paper result: Storm ~9.25 ms; T-Storm ~0.99 ms (83-84 % speedup) using
// 10, 7 and finally only 2 worker nodes.
int fig05_throughput_test(bool quick, Report& report) {
  std::cout << "Figure 5 — Throughput Test topology (10 nodes, 40 workers "
               "requested, 5+15+15 executors, 10 ackers)\n";
  storm_vs_tstorm(
      [](sim::Simulation&, std::vector<std::shared_ptr<void>>&) {
        return workload::make_throughput_test();
      },
      {{"Fig. 5(a): gamma = 1 (paper: 83% speedup, 10 nodes)", 1.0, 200.0},
       {"Fig. 5(b): gamma = 1.7 (paper: 84% speedup, 7 nodes)", 1.7, 500.0},
       {"Fig. 5(c): gamma = 6 (paper: similar speedup, 2 nodes)", 6.0,
        500.0}},
      quick, report);
  return 0;
}

// Figure 6: performance on the Word Count (stream version) topology.
//
// 10 worker nodes, 20 workers requested, 2 reader spouts / 5 split / 5
// count / 5 mongo executors. Input: a text stream pushed into a Redis-like
// queue at a fixed line rate. Storm vs T-Storm with gamma = 1, 1.8 and
// 2.2. Paper: 49 % / 42 % / 35 % speedups using 10 / 7 / 5 nodes; the
// bolts do substantial work, so aggressive consolidation starts to hurt.
int fig06_word_count(bool quick, Report& report) {
  constexpr double kLineRate = 260.0;  // lines/second
  std::cout << "Figure 6 — Word Count topology (10 nodes, 20 workers "
               "requested, 2+5+5+5 executors), input "
            << kLineRate << " lines/s\n";
  storm_vs_tstorm(
      queue_fed(workload::WordCountOptions{}, kLineRate),
      {{"Fig. 6(a): gamma = 1 (paper: 49% speedup, 10 nodes)", 1.0, 150.0},
       {"Fig. 6(b): gamma = 1.8 (paper: 42% speedup, 7 nodes)", 1.8, 500.0},
       {"Fig. 6(c): gamma = 2.2 (paper: 35% speedup, 5 nodes)", 2.2,
        500.0}},
      quick, report);
  return 0;
}

// Figure 8: performance on the Log Stream Processing topology (Fig. 7).
//
// 10 worker nodes, 20 workers requested, 5 log spouts / 5 rules / 5
// indexer / 5 counter / 2+2 mongo executors. Input: IIS-style log lines
// pushed into a Redis-like queue by a LogStash-like producer. Storm vs
// T-Storm with gamma = 1, 1.7 and 2. Paper: 54 % / 27 % / ~0 % speedups
// using 10 / 7 / 5 nodes — the most work-intensive bolts of the three
// workloads, so consolidation saturates earliest.
int fig08_log_stream(bool quick, Report& report) {
  constexpr double kLineRate = 400.0;  // log lines/second
  std::cout << "Figure 8 — Log Stream Processing topology (10 nodes, 20 "
               "workers requested, 5+5+5+5+2+2 executors), input "
            << kLineRate << " lines/s\n";
  storm_vs_tstorm(
      queue_fed(workload::LogStreamOptions{}, kLineRate),
      {{"Fig. 8(a): gamma = 1 (paper: 54% speedup, 10 nodes)", 1.0, 150.0},
       {"Fig. 8(b): gamma = 1.7 (paper: 27% speedup, 7 nodes)", 1.7, 500.0},
       {"Fig. 8(c): gamma = 2 (paper: comparable time, 5 nodes)", 2.0,
        500.0}},
      quick, report);
  return 0;
}

// Figure 9: overload handling on the Word Count topology.
//
// The topology initially uses one worker on one node. A second concurrent
// input stream doubles the line rate; the load monitors see the node
// saturate, the schedule generator reacts immediately (not waiting out the
// 300 s period), and T-Storm scales out to more nodes — processing time
// drops sharply back to normal. Paper: detection at ~120 s, scale-out
// 1 -> 5 nodes.
int fig09_overload_wordcount(bool quick, Report& report) {
  std::cout << "Figure 9 — overload handling, Word Count pinned to one "
               "worker on one node; second input stream from t=60 s\n";

  RunSpec spec = overload_word_count();
  spec.duration = quick ? 300.0 : 1000.0;
  spec.steady_from = quick ? 240.0 : 600.0;
  const auto r = run(spec);
  report.run(r);
  print_comparison("Fig. 9: avg processing time (log-scale y in the "
                   "paper; raw ms here)",
                   {r});
  print_node_timeline(r);
  print_failures(r);

  const double during = r.mean_ms(120, 240);
  const double after = r.steady_mean_ms();
  std::cout << "\nOverload " << metrics::format_ms(during)
            << " ms -> recovered " << metrics::format_ms(after)
            << " ms; scale-out to " << r.max_nodes()
            << " nodes (paper: 1 -> 5 nodes, sharp drop)\n";
  return 0;
}

// Figure 10: overload handling on the Log Stream Processing topology.
//
// As Fig. 9 but with the log-processing topology: pinned to one worker on
// one node, overloaded by a second concurrent log stream into the same
// Redis queue. Paper: detection at ~164 s, scale-out 1 -> 8 nodes, sharp
// drop in processing time.
int fig10_overload_logstream(bool quick, Report& report) {
  std::cout << "Figure 10 — overload handling, Log Stream Processing "
               "pinned to one worker on one node; second stream from "
               "t=60 s\n";

  workload::LogStreamOptions opt;
  opt.max_pending = 0;        // no spout backpressure, as in the paper's run
  opt.emit_interval = 0.008;  // pull cap ~625 lines/s total
  // 5+5+5+5+2+2 tasks + 10 ackers = 34.
  RunSpec spec =
      pinned_overload(1.3, 34, queue_fed(opt, 250.0, {0.0, 60.0}));
  spec.duration = quick ? 300.0 : 1000.0;
  spec.steady_from = quick ? 240.0 : 600.0;

  const auto r = run(spec);
  report.run(r);
  print_comparison("Fig. 10: avg processing time (log-scale y in "
                   "the paper; raw ms here)",
                   {r});
  print_node_timeline(r);
  print_failures(r);

  const double during = r.mean_ms(120, 240);
  const double after = r.steady_mean_ms();
  std::cout << "\nOverload " << metrics::format_ms(during)
            << " ms -> recovered " << metrics::format_ms(after)
            << " ms; scale-out to " << r.max_nodes()
            << " nodes (paper: 1 -> 8 nodes, sharp drop)\n";
  return 0;
}

}  // namespace tstorm::bench
