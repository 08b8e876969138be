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
// node boundaries, the paper's objective function). Emits BENCH_resource.json and self-checks
// that rstorm beats round-robin on BOTH inter-node traffic and
// throughput — the claim the resource-vector API exists to support.
#include <chrono>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/system.h"
#include "metrics/completion.h"
#include "runtime/cluster.h"
#include "sched/types.h"
#include "sim/simulation.h"
#include "workload/external_queue.h"
#include "workload/topologies.h"

namespace {

using Clock = std::chrono::steady_clock;
namespace rt = tstorm::runtime;

struct AlgoResult {
  std::string algorithm;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  double mean_ms = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double internode_traffic = 0;  // tuples/s, final placement
  double wall_s = 0;
};

rt::ClusterConfig heterogeneous_fleet() {
  rt::ClusterConfig cfg;
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
  cfg.smooth_reassignment = true;
  return cfg;
}

AlgoResult run_with(const std::string& algorithm, double duration) {
  tstorm::sim::Simulation sim;
  tstorm::core::CoreConfig core;
  core.algorithm = algorithm;
  core.generation_period = 60.0;
  core.gamma = 1.7;
  // Backlog feedback: measured MHz saturates at node capacity, so a
  // packed node looks like it still "fits". Folding queue depth into the
  // effective demand (satellite of the resource-vector API) lets every
  // capacity-aware scheduler see the overload and spread on the next pass.
  core.queue_pressure_weight = 25.0;
  tstorm::core::TStormSystem sys(sim, heterogeneous_fleet(), core);

  auto wc = tstorm::workload::make_word_count();
  tstorm::workload::QueueProducer producer(sim, *wc.queue, 260.0);
  producer.start();
  sys.submit(std::move(wc.topology));

  const auto t0 = Clock::now();
  // Latency is taken over the second half of the run, past the start-up
  // transient: the recorder starts afresh there, after its whole-run
  // completed and failed counts so far are kept.
  sim.run_until(duration / 2.0);
  auto& rec = sys.cluster().completion();
  AlgoResult r;
  r.algorithm = algorithm;
  r.completed = rec.total_completed();
  r.failed = rec.total_failed();
  rec = tstorm::metrics::CompletionRecorder();
  sim.run_until(duration);

  r.completed += rec.total_completed();
  r.failed += rec.total_failed();
  const auto mean =
      rec.proc_time_ms().mean_between(duration / 2.0, duration);
  r.mean_ms = mean.value_or(0.0);
  r.p50_ms = rec.latency_histogram().percentile(50);
  r.p99_ms = rec.latency_histogram().percentile(99);

  // Estimated inter-node traffic of the placement actually in force at the
  // end of the run, using the same measured-traffic input the generator
  // schedules from (the paper's objective).
  const auto input = sys.generator().build_input();
  tstorm::sched::Placement current;
  for (const auto& [topo, record] : sys.cluster().coordination().all()) {
    for (const auto& [task, slot] : record.placement) {
      current.emplace(task, slot);
    }
  }
  r.internode_traffic = tstorm::sched::internode_traffic(input, current);
  r.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  return r;
}

void write_json(const std::string& path, const std::string& label,
                const std::vector<AlgoResult>& runs, double duration) {
  std::ofstream out(path);
  out << "{\n";
  out << "  \"bench\": \"ablation_resource_aware\",\n";
  out << "  \"label\": \"" << label << "\",\n";
  const std::time_t now = std::time(nullptr);
  char stamp[64];
  std::strftime(stamp, sizeof stamp, "%Y-%m-%dT%H:%M:%SZ",
                std::gmtime(&now));
  out << "  \"timestamp\": \"" << stamp << "\",\n";
  out << "  \"duration_s\": " << duration << ",\n";
  out << "  \"fleet\": \"2x(8c@2500,32GiB,10G) + 4x(4c@2000,16GiB,1G) + "
         "4x(1c@700,1GiB,100M)\",\n";
  out << "  \"results\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const auto& r = runs[i];
    out << "    {\n";
    out << "      \"algorithm\": \"" << r.algorithm << "\",\n";
    out << "      \"completed\": " << r.completed << ",\n";
    out << "      \"failed\": " << r.failed << ",\n";
    out << "      \"mean_ms\": " << r.mean_ms << ",\n";
    out << "      \"p50_ms\": " << r.p50_ms << ",\n";
    out << "      \"p99_ms\": " << r.p99_ms << ",\n";
    out << "      \"internode_traffic\": " << r.internode_traffic << ",\n";
    out << "      \"wall_s\": " << r.wall_s << "\n";
    out << "    }" << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_resource.json";
  std::string label = "current";
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--label" && i + 1 < argc) {
      label = argv[++i];
    } else if (arg == "--quick") {
      quick = true;
    } else {
      std::cerr << "usage: ablation_resource_aware [--out FILE] "
                   "[--label NAME] [--quick]\n";
      return 2;
    }
  }

  const double duration = quick ? 300.0 : 600.0;
  std::cout << "Ablation — resource-aware placement on a heterogeneous "
               "fleet (" << (quick ? "quick" : "full") << ", " << duration
            << " sim-s, word count @ 260 tuples/s)\n";

  std::vector<AlgoResult> runs;
  for (const char* name :
       {"round-robin", "aniello-online", "traffic-aware", "rstorm"}) {
    runs.push_back(run_with(name, duration));
    const auto& r = runs.back();
    std::printf(
        "  %-14s completed %8llu  failed %6llu  mean %8.3f ms  "
        "p99 %9.3f ms  inter-node %8.1f tup/s  (%.1f s wall)\n",
        r.algorithm.c_str(), static_cast<unsigned long long>(r.completed),
        static_cast<unsigned long long>(r.failed), r.mean_ms, r.p99_ms,
        r.internode_traffic, r.wall_s);
  }

  write_json(out_path, label, runs, duration);
  std::cout << "wrote " << out_path << "\n";

  // Self-check: the resource-aware scheduler must justify itself against
  // the resource-blind baseline on this fleet — strictly less estimated
  // inter-node traffic AND strictly more completed tuples.
  const AlgoResult& rr = runs[0];
  const AlgoResult& rs = runs[3];
  if (!(rs.internode_traffic < rr.internode_traffic) ||
      !(rs.completed > rr.completed)) {
    std::cerr << "FAIL: rstorm does not beat round-robin (traffic "
              << rs.internode_traffic << " vs " << rr.internode_traffic
              << ", completed " << rs.completed << " vs " << rr.completed
              << ")\n";
    return 1;
  }
  return 0;
}
