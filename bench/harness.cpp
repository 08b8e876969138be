#include "harness.h"

#include <charconv>
#include <cmath>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>

#include "core/energy_meter.h"
#include "metrics/reporter.h"
#include "workload/external_queue.h"

namespace tstorm::bench {

double RunResult::mean_ms(double from, double to) const {
  const auto m = proc_ms.mean_between(from, to);
  return m.has_value() ? *m : std::nan("");
}

RunResult RunResult::over(double from) const {
  RunResult r = *this;
  const metrics::LatencyHistogram& window = latency_from.at(from);
  r.steady_from = from;
  r.p50_ms = window.percentile(50);
  r.p99_ms = window.percentile(99);
  return r;
}

int RunResult::final_nodes() const {
  return nodes.empty() ? 0 : nodes.back().second;
}

int RunResult::max_nodes() const {
  int best = 0;
  for (const auto& [t, n] : nodes) best = std::max(best, n);
  return best;
}

System::System(sim::Simulation& sim, bool tstorm,
               const runtime::ClusterConfig& cluster,
               const core::CoreConfig& core) {
  if (tstorm) {
    tstorm_ = std::make_unique<core::TStormSystem>(sim, cluster, core);
  } else {
    storm_ = std::make_unique<core::StormSystem>(sim, cluster);
  }
}

sched::TopologyId System::submit(topo::Topology topology,
                                 std::optional<sched::Placement> pin) {
  if (pin.has_value()) {
    return tstorm_ ? tstorm_->submit_pinned(std::move(topology), *pin)
                   : storm_->submit_pinned(std::move(topology), *pin);
  }
  return tstorm_ ? tstorm_->submit(std::move(topology))
                 : storm_->submit(std::move(topology));
}

runtime::Cluster& System::cluster() {
  return tstorm_ ? tstorm_->cluster() : storm_->cluster();
}

RunResult measure(sim::Simulation& sim, runtime::Cluster& cluster,
                  std::string label, double steady_from, double duration,
                  const std::vector<double>& also_from) {
  RunResult result;
  result.label = std::move(label);
  result.steady_from = steady_from;
  result.duration = duration;
  sim::PeriodicTask sampler(sim, 10.0, [&] {
    result.nodes.emplace_back(sim.now(), cluster.nodes_in_use());
  });
  sampler.start(10.0);

  // The recorder's histogram covers the whole run; a copy taken as each
  // window opens turns it into the window's by a bin-wise difference.
  const auto& rec = cluster.completion();
  std::map<double, metrics::LatencyHistogram> opened;
  opened[steady_from];
  for (const double from : also_from) opened[from];
  for (auto& [from, hist] : opened) {
    sim.run_until(from);
    hist = rec.latency_histogram();
  }
  sim.run_until(duration);
  for (const auto& [from, hist] : opened) {
    result.latency_from.emplace(from, rec.latency_histogram().since(hist));
  }

  result.proc_ms = rec.proc_time_ms();
  result.failures = rec.failures();
  result.p50_ms = result.latency_from.at(steady_from).percentile(50);
  result.p99_ms = result.latency_from.at(steady_from).percentile(99);
  result.completed = rec.total_completed();
  result.failed = rec.total_failed();
  result.dropped = cluster.dropped_messages();
  result.replayed = rec.total_replayed();
  return result;
}

RunResult run(const RunSpec& spec) {
  sim::Simulation sim;
  std::vector<std::shared_ptr<void>> keepalive;
  System system(sim, spec.tstorm, spec.cluster, spec.core);
  system.submit(spec.make_topology(sim, keepalive), spec.pin);
  if (spec.after_submit) spec.after_submit(sim, system.cluster());

  // Operational-cost metering (the consolidation motivation).
  core::EnergyMeter energy(system.cluster());
  energy.start();
  RunResult result = measure(sim, system.cluster(), spec.label,
                             spec.steady_from, spec.duration, spec.also_from);
  result.kwh = energy.kwh();
  if (core::TStormSystem* tstorm = system.tstorm()) {
    sched::Placement placed;
    for (const auto& [topo, record] : system.cluster().coordination().all()) {
      placed.insert(record.placement.begin(), record.placement.end());
    }
    result.internode_tps = sched::internode_traffic(
        tstorm->generator().build_input(), placed);
  }
  return result;
}

namespace {

template <class Build>
TopologyFn fed(Build build, double line_rate, std::vector<double> starts) {
  return [=](sim::Simulation& sim,
             std::vector<std::shared_ptr<void>>& keepalive) {
    auto workload = build();
    keepalive.push_back(workload.queue);
    for (const double start : starts) {
      auto producer = std::make_shared<workload::QueueProducer>(
          sim, *workload.queue, line_rate);
      producer->start(start);
      keepalive.push_back(std::move(producer));
    }
    return std::move(workload.topology);
  };
}

}  // namespace

TopologyFn queue_fed(const workload::WordCountOptions& opt, double line_rate,
                     std::vector<double> starts) {
  return fed([opt] { return workload::make_word_count(opt); }, line_rate,
             std::move(starts));
}

TopologyFn queue_fed(const workload::LogStreamOptions& opt, double line_rate,
                     std::vector<double> starts) {
  return fed([opt] { return workload::make_log_stream(opt); }, line_rate,
             std::move(starts));
}

RunSpec pinned_overload(double gamma, int tasks, TopologyFn topology) {
  RunSpec spec;
  spec.label = "T-Storm";
  spec.tstorm = true;
  spec.core.gamma = gamma;
  spec.pin.emplace();
  for (int t = 0; t < tasks; ++t) (*spec.pin)[t] = 0;  // node 0, slot 0
  spec.make_topology = std::move(topology);
  return spec;
}

RunSpec overload_word_count() {
  workload::WordCountOptions opt;
  opt.max_pending = 0;        // no spout backpressure, as in the paper's run
  opt.emit_interval = 0.004;  // reader pull cap ~500 lines/s total
  // 2+5+5+5 tasks + 10 ackers = 27.
  return pinned_overload(2.0, 27, queue_fed(opt, 200.0, {0.0, 60.0}));
}

void storm_vs_tstorm(const TopologyFn& topology,
                     const std::vector<Panel>& panels, bool quick,
                     Report& report) {
  const auto spec = [&](std::string label, bool tstorm, double gamma,
                        double steady_from) {
    RunSpec s;
    s.label = std::move(label);
    s.tstorm = tstorm;
    s.core.gamma = gamma;
    s.duration = quick ? 360.0 : 1000.0;
    s.steady_from = quick ? 240.0 : steady_from;
    s.make_topology = topology;
    return s;
  };
  std::vector<RunResult> tstorm;
  RunSpec storm = spec("Storm", false, 1.0, panels.front().steady_from);
  for (const Panel& p : panels) {
    std::ostringstream label;
    label << "T-Storm g=" << p.gamma;
    tstorm.push_back(run(spec(label.str(), true, p.gamma, p.steady_from)));
    storm.also_from.push_back(tstorm.back().steady_from);
  }
  const RunResult storm_run = run(storm);
  for (std::size_t i = 0; i < panels.size(); ++i) {
    const RunResult base = storm_run.over(tstorm[i].steady_from);
    print_comparison(panels[i].title, {base, tstorm[i]});
    print_node_timeline(tstorm[i]);
    const std::string prefix = std::string(1, static_cast<char>('a' + i)) + ".";
    report.run(base, prefix);
    report.run(tstorm[i], prefix);
  }
}

namespace {

/// Speedup of b over a in percent (positive = b faster).
double speedup_pct(double a_ms, double b_ms) {
  if (!(a_ms > 0) || std::isnan(b_ms)) return std::nan("");
  return 100.0 * (1.0 - b_ms / a_ms);
}

}  // namespace

void print_comparison(const std::string& title,
                      const std::vector<RunResult>& runs) {
  const double stabilized_from = runs.front().steady_from;
  std::cout << "\n== " << title << " ==\n";
  std::cout << "Avg. tuple processing time (ms) per 1-minute window:\n";
  std::vector<metrics::SeriesColumn> cols;
  cols.reserve(runs.size());
  for (const auto& r : runs) cols.push_back({r.label, &r.proc_ms});
  metrics::print_series_table(std::cout, cols, runs.front().duration);

  std::cout << "\nSummary (measurements after " << stabilized_from
            << " s):\n";
  const double base = runs.front().steady_mean_ms();
  for (const auto& r : runs) {
    const double mean = r.steady_mean_ms();
    std::cout << "  " << std::setw(24) << std::left << r.label
              << std::right << "avg " << std::setw(10)
              << metrics::format_ms(mean) << " ms"
              << "   nodes " << std::setw(2) << r.final_nodes()
              << "   energy " << std::setw(6)
              << metrics::format_ms(r.kwh, 2) << " kWh"
              << "   p99 " << std::setw(9)
              << metrics::format_ms(r.p99_ms) << " ms"
              << "   completed " << std::setw(9) << r.completed
              << "   failed " << std::setw(6) << r.failed;
    if (&r != &runs.front()) {
      std::cout << "   speedup vs " << runs.front().label << " "
                << metrics::format_ms(speedup_pct(base, mean), 1) << "%";
    }
    std::cout << "\n";
  }
}

void print_failures(const RunResult& r) {
  std::cout << "\nFailed tuples per 1-minute window (" << r.label << "):\n";
  std::cout << std::setw(10) << "time(s)" << std::setw(16) << "failed"
            << '\n';
  for (const auto& w : r.failures.windows()) {
    if (w.start + 60.0 > r.duration + 1e-9) break;
    std::cout << std::setw(10) << static_cast<long long>(w.start + 60.0)
              << std::setw(16) << w.count << '\n';
  }
}

void print_node_timeline(const RunResult& r) {
  std::cout << "\nWorker nodes in use over time (" << r.label << "):\n  ";
  int last = -1;
  bool first = true;
  for (const auto& [t, n] : r.nodes) {
    if (n != last) {
      if (!first) std::cout << ", ";
      std::cout << "t=" << static_cast<long long>(t) << "s #Nodes=" << n;
      last = n;
      first = false;
    }
  }
  std::cout << "\n";
}

namespace {

/// Shortest text that reads back as exactly `v`; null for NaN and inf.
std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  const auto end = std::to_chars(buf, buf + sizeof buf, v).ptr;
  return std::string(buf, end);
}

void write_fields(std::ostream& os,
                  const std::vector<std::pair<std::string, std::string>>& f) {
  os << "{";
  for (std::size_t i = 0; i < f.size(); ++i) {
    // std::quoted escapes '"' and '\\' as JSON does.
    os << (i == 0 ? "\n" : ",\n") << "      " << std::quoted(f[i].first)
       << ": " << f[i].second;
  }
  os << (f.empty() ? "}" : "\n    }");
}

}  // namespace

void Report::sim(const std::string& key, double value) {
  sim_.emplace_back(key, json_number(value));
}

void Report::sim(const std::string& key, const std::vector<double>& values) {
  std::string list = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    list += (i == 0 ? "" : ", ") + json_number(values[i]);
  }
  sim_.emplace_back(key, list + "]");
}

void Report::wall(const std::string& key, double value) {
  wall_.emplace_back(key, json_number(value));
}

void Report::run(const RunResult& r, const std::string& prefix) {
  const std::string p = prefix + r.label + ".";
  sim(p + "avg_ms", r.steady_mean_ms());
  sim(p + "p50_ms", r.p50_ms);
  sim(p + "p99_ms", r.p99_ms);
  sim(p + "completed", static_cast<double>(r.completed));
  sim(p + "failed", static_cast<double>(r.failed));
  sim(p + "dropped", static_cast<double>(r.dropped));
  sim(p + "replayed", static_cast<double>(r.replayed));
  sim(p + "kwh", r.kwh);
  if (!std::isnan(r.internode_tps)) sim(p + "internode_tps", r.internode_tps);
  // Per-minute series: entry i covers [60 i, 60 (i + 1)) s.
  std::vector<double> proc;
  std::vector<double> failures;
  std::vector<double> nodes;
  for (const auto& w : r.proc_ms.windows()) {
    proc.push_back(w.count > 0 ? w.mean() : std::nan(""));
  }
  for (const auto& w : r.failures.windows()) {
    failures.push_back(static_cast<double>(w.count));
  }
  for (const auto& [t, n] : r.nodes) nodes.push_back(n);
  sim(p + "proc_ms", proc);
  sim(p + "failures", failures);
  sim(p + "nodes_every_10s", nodes);
}

void Report::write_json(std::ostream& os) const {
  os << "{\n    \"sim\": ";
  write_fields(os, sim_);
  os << ",\n    \"wall\": ";
  write_fields(os, wall_);
  os << "\n  }";
}

}  // namespace tstorm::bench
