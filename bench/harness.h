// Shared bench harness: runs one (system, topology, parameters) experiment
// for the paper's standard 1000 s (Table II), sampling average processing
// time in 1-minute windows and worker-node usage every 10 s, and prints the
// same series the paper's figures plot. Every runner entry reports into a
// Report, which keeps its simulated fields apart from its wall-clock ones.
#pragma once

#include <functional>
#include <iosfwd>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/system.h"
#include "metrics/histogram.h"
#include "metrics/timeseries.h"
#include "runtime/config.h"
#include "sched/types.h"
#include "sim/simulation.h"
#include "topo/topology.h"
#include "workload/topologies.h"

namespace tstorm::bench {

class Report;

/// Builds the topology; drivers (queue producers etc.) whose lifetime must
/// span the run go into `keepalive`.
using TopologyFn = std::function<topo::Topology(
    sim::Simulation& sim, std::vector<std::shared_ptr<void>>& keepalive)>;

struct RunSpec {
  std::string label;

  /// false: stock Storm (default scheduler). true: full T-Storm stack.
  bool tstorm = false;

  double duration = 1000.0;  // Table II running time
  /// The summary averages over [steady_from, duration): the paper's
  /// "measurements after stabilization".
  double steady_from = 0;
  /// Further window starts the run keeps latency percentiles for, so one
  /// run can serve comparisons over other windows (RunResult::over).
  std::vector<double> also_from;
  runtime::ClusterConfig cluster;
  core::CoreConfig core;  // used when tstorm == true

  /// Pin the initial placement (section III experiments, overload
  /// experiments that confine a topology to one worker).
  std::optional<sched::Placement> pin;

  TopologyFn make_topology;

  /// Optional hook invoked after submission (e.g. schedule a second input
  /// stream at a given time).
  std::function<void(sim::Simulation& sim, runtime::Cluster& cluster)>
      after_submit;
};

struct RunResult {
  std::string label;
  double steady_from = 0;
  double duration = 0;
  metrics::WindowedSeries proc_ms{60.0};
  metrics::WindowedCounter failures{60.0};
  /// (time, nodes-in-use) sampled every 10 s.
  std::vector<std::pair<double, int>> nodes;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t dropped = 0;
  std::uint64_t replayed = 0;
  /// Operational cost (EnergyMeter) in kWh.
  double kwh = 0;
  /// Latency percentiles over the steady window (ms).
  double p50_ms = 0;
  double p99_ms = 0;
  /// Latency over [start, duration) for every window start measured.
  std::map<double, metrics::LatencyHistogram> latency_from;
  /// T-Storm runs: estimated inter-node traffic (tuples/s) of the final
  /// placement on the traffic the generator schedules from, the paper's
  /// objective. NaN under stock Storm.
  double internode_tps = std::numeric_limits<double>::quiet_NaN();

  /// Mean processing time over [from, to) ms; NaN if no observations.
  [[nodiscard]] double mean_ms(double from, double to) const;

  /// Mean processing time over the steady window [steady_from, duration).
  [[nodiscard]] double steady_mean_ms() const {
    return mean_ms(steady_from, duration);
  }

  /// This run with its steady window moved to [from, duration); `from`
  /// must be a window start it measured.
  [[nodiscard]] RunResult over(double from) const;

  /// Node count at the end of the run.
  [[nodiscard]] int final_nodes() const;

  /// Maximum node count observed (overload-handling scale-out).
  [[nodiscard]] int max_nodes() const;
};

/// Stock Storm or the full T-Storm stack over one simulation.
class System {
 public:
  System(sim::Simulation& sim, bool tstorm,
         const runtime::ClusterConfig& cluster = {},
         const core::CoreConfig& core = {});

  /// Submits with the system's initial scheduler, or pinned to `pin`.
  sched::TopologyId submit(topo::Topology topology,
                           std::optional<sched::Placement> pin = {});

  [[nodiscard]] runtime::Cluster& cluster();

  /// The T-Storm stack, or nullptr under stock Storm.
  [[nodiscard]] core::TStormSystem* tstorm() { return tstorm_.get(); }

 private:
  std::unique_ptr<core::StormSystem> storm_;
  std::unique_ptr<core::TStormSystem> tstorm_;
};

/// Runs `cluster` to `duration`, sampling node usage every 10 s, and
/// collects its simulated results. The latency percentiles cover the steady
/// window, like the mean the summary prints beside them; `also_from` names
/// further windows to keep them for.
RunResult measure(sim::Simulation& sim, runtime::Cluster& cluster,
                  std::string label, double steady_from, double duration,
                  const std::vector<double>& also_from = {});

/// Executes one experiment run.
RunResult run(const RunSpec& spec);

/// Word Count or Log Stream Processing fed through its queue by one
/// producer of `line_rate` lines/s per entry of `starts`, each starting
/// that many seconds in.
TopologyFn queue_fed(const workload::WordCountOptions& opt, double line_rate,
                     std::vector<double> starts = {0.0});
TopologyFn queue_fed(const workload::LogStreamOptions& opt, double line_rate,
                     std::vector<double> starts = {0.0});

/// The overload setup of Figs. 9 and 10: T-Storm at `gamma` with all
/// `tasks` tasks of `topology` pinned to one worker on one node.
RunSpec pinned_overload(double gamma, int tasks, TopologyFn topology);

/// Fig. 9's overload scenario: Word Count at 200 lines/s pinned to one
/// worker under T-Storm (gamma 2), with a second 200 lines/s input stream
/// from t=60 s.
RunSpec overload_word_count();

/// One panel of Figs. 5, 6 and 8: stock Storm against T-Storm at `gamma`,
/// both averaged after `steady_from`.
struct Panel {
  std::string title;
  double gamma = 1.0;
  double steady_from = 0;
};

/// Runs and prints every panel on `topology`, each followed by its T-Storm
/// run's node timeline. Storm runs once, measured over every panel's
/// steady window. Quick runs last 360 s, with every window from 240 s.
void storm_vs_tstorm(const TopologyFn& topology,
                     const std::vector<Panel>& panels, bool quick,
                     Report& report);

/// Prints the per-minute proc-time table for several runs side by side,
/// then a node-usage summary and the means over the runs' steady window.
void print_comparison(const std::string& title,
                      const std::vector<RunResult>& runs);

/// Prints one run's failure counts per minute (Fig. 3(b) style).
void print_failures(const RunResult& r);

/// Prints the node-usage timeline of a run (the "#Nodes=..." annotations).
void print_node_timeline(const RunResult& r);

/// What one runner entry reports. Simulated fields are deterministic for a
/// given build and are held to the golden file; wall fields are measured
/// on the host (wall-clock times, heap allocations) and never compared.
class Report {
 public:
  void sim(const std::string& key, double value);
  void sim(const std::string& key, const std::vector<double>& values);
  void wall(const std::string& key, double value);

  /// Every simulated field of a harness run, keyed
  /// "<prefix><label>.<field>".
  void run(const RunResult& r, const std::string& prefix = {});

  /// Writes {"sim": {...}, "wall": {...}}.
  void write_json(std::ostream& os) const;

 private:
  std::vector<std::pair<std::string, std::string>> sim_;
  std::vector<std::pair<std::string, std::string>> wall_;
};

}  // namespace tstorm::bench
