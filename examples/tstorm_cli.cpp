// tstorm_cli: a command-line scenario driver over the library. Runs any
// of the evaluation workloads under Storm or T-Storm with configurable
// scheduler, gamma, input rate, duration and seed, and prints either a
// human-readable summary or the per-minute series as CSV.
//
//   $ ./examples/tstorm_cli --topology=wordcount --system=tstorm
//         --gamma=1.8 --rate=260 --duration=1000 --csv
//
// Flags (all optional):
//   --topology=throughput|wordcount|logstream   (default throughput)
//   --system=storm|tstorm                       (default tstorm)
//   --algorithm=<registry name>                 (default traffic-aware)
//   --gamma=<double>                            (default 1.0)
//   --rate=<lines/s for queue-driven topologies> (default 260)
//   --duration=<seconds>                        (default 1000)
//   --seed=<uint>                               (default 42)
//   --nodes=<int>                               (default 10)
//   --csv                                       (series CSV to stdout)
//
// Bad input (an unknown flag or value, gamma < 1, nodes < 1) prints the
// usage and exits 2.
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <string>

#include "core/system.h"
#include "metrics/reporter.h"
#include "sched/scheduler.h"
#include "workload/topologies.h"

using namespace tstorm;

namespace {

struct Args {
  std::string topology = "throughput";
  std::string system = "tstorm";
  std::string algorithm = "traffic-aware";
  double gamma = 1.0;
  double rate = 260.0;
  double duration = 1000.0;
  std::uint64_t seed = 42;
  int nodes = 10;
  bool csv = false;
};

void print_usage() {
  std::cerr << "usage: tstorm_cli [--topology=throughput|wordcount|logstream]\n"
               "                  [--system=storm|tstorm] [--algorithm=NAME]\n"
               "                  [--gamma=G>=1] [--rate=R] [--duration=S]\n"
               "                  [--seed=N] [--nodes=N>=1] [--csv]\n"
               "algorithms:";
  for (const auto& name : sched::AlgorithmRegistry::instance().names()) {
    std::cerr << " " << name;
  }
  std::cerr << "\n";
}

bool parse(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string val =
        eq == std::string::npos ? "" : arg.substr(eq + 1);
    try {
      if (key == "--topology") {
        args.topology = val;
      } else if (key == "--system") {
        args.system = val;
      } else if (key == "--algorithm") {
        args.algorithm = val;
      } else if (key == "--gamma") {
        args.gamma = std::stod(val);
      } else if (key == "--rate") {
        args.rate = std::stod(val);
      } else if (key == "--duration") {
        args.duration = std::stod(val);
      } else if (key == "--seed") {
        args.seed = std::stoull(val);
      } else if (key == "--nodes") {
        args.nodes = std::stoi(val);
      } else if (key == "--csv") {
        args.csv = true;
      } else {
        std::cerr << "unknown flag: " << key << "\n";
        return false;
      }
    } catch (const std::exception&) {
      std::cerr << "bad value for " << key << ": " << val << "\n";
      return false;
    }
  }
  if (args.topology != "throughput" && args.topology != "wordcount" &&
      args.topology != "logstream") {
    std::cerr << "unknown topology: " << args.topology << "\n";
    return false;
  }
  if (args.system != "storm" && args.system != "tstorm") {
    std::cerr << "unknown system: " << args.system << "\n";
    return false;
  }
  const auto names = sched::AlgorithmRegistry::instance().names();
  if (std::find(names.begin(), names.end(), args.algorithm) == names.end()) {
    std::cerr << "unknown algorithm: " << args.algorithm << "\n";
    return false;
  }
  if (!(args.gamma >= 1.0)) {
    std::cerr << "gamma must be at least 1: " << args.gamma << "\n";
    return false;
  }
  if (args.nodes < 1) {
    std::cerr << "nodes must be at least 1: " << args.nodes << "\n";
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) {
    print_usage();
    return 2;
  }

  sim::Simulation sim;
  runtime::ClusterConfig cluster_cfg;
  cluster_cfg.num_nodes = args.nodes;
  cluster_cfg.seed = args.seed;

  core::CoreConfig core_cfg;
  core_cfg.gamma = args.gamma;
  core_cfg.algorithm = args.algorithm;

  std::unique_ptr<core::StormSystem> storm;
  std::unique_ptr<core::TStormSystem> tstorm;
  runtime::Cluster* cluster = nullptr;
  if (args.system == "tstorm") {
    tstorm = std::make_unique<core::TStormSystem>(sim, cluster_cfg,
                                                  core_cfg);
    cluster = &tstorm->cluster();
  } else {
    storm = std::make_unique<core::StormSystem>(sim, cluster_cfg);
    cluster = &storm->cluster();
  }

  auto submit = [&](topo::Topology t) {
    if (tstorm) {
      tstorm->submit(std::move(t));
    } else {
      storm->submit(std::move(t));
    }
  };

  std::unique_ptr<workload::QueueProducer> producer;
  std::shared_ptr<workload::ExternalQueue> queue;
  if (args.topology == "throughput") {
    submit(workload::make_throughput_test());
  } else if (args.topology == "wordcount") {
    auto wc = workload::make_word_count();
    queue = wc.queue;
    producer =
        std::make_unique<workload::QueueProducer>(sim, *queue, args.rate);
    producer->start();
    submit(std::move(wc.topology));
  } else {
    auto ls = workload::make_log_stream();
    queue = ls.queue;
    producer =
        std::make_unique<workload::QueueProducer>(sim, *queue, args.rate);
    producer->start();
    submit(std::move(ls.topology));
  }

  sim.run_until(args.duration);

  const auto& completion = cluster->completion();
  if (args.csv) {
    metrics::write_series_csv(
        std::cout, {{"avg_proc_ms", &completion.proc_time_ms()}},
        args.duration);
    return 0;
  }

  std::cout << args.topology << " on " << args.system
            << (tstorm ? " (algorithm " + args.algorithm + ", gamma " +
                             metrics::format_ms(args.gamma, 1) + ")"
                       : std::string())
            << ", " << args.duration << " s simulated\n";
  metrics::print_series_table(
      std::cout, {{"avg proc (ms)", &completion.proc_time_ms()}},
      args.duration);
  const auto& hist = completion.latency_histogram();
  std::cout << "\ncompleted " << completion.total_completed() << "  failed "
            << completion.total_failed() << "  p50 "
            << metrics::format_ms(hist.percentile(50)) << " ms  p99 "
            << metrics::format_ms(hist.percentile(99)) << " ms\n"
            << "worker nodes in use: " << cluster->nodes_in_use() << " of "
            << cluster->num_nodes() << "\n"
            << "simulated events: " << sim.events_executed() << "\n";
  return 0;
}
