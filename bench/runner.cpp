// The bench runner: every experiment of the paper's evaluation (Figs. 2-10),
// the ablations, and the engine, flow-control and recovery benches are
// entries of one table behind this main.
//
//   bench_runner [--quick] [--out FILE] [ENTRY...]
//
// With no ENTRY every entry runs, in table order. Each entry prints its
// section to stdout under a "[name]" header, and its wall time to stderr.
// --quick shortens every run; the golden file holds the simulated fields
// of that length. --out writes one JSON object:
//   {"quick": bool, "entries": {name: {"sim": {...}, "wall": {...}}}}
// The exit status is 0 when every entry's self-check passed, 1 when one
// failed, and 2 (after printing the usage) on a bad argument.
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <string_view>
#include <vector>

#include "harness.h"

namespace tstorm::bench {

int fig02_placement_impact(bool quick, Report& report);
int fig03_overload_impact(bool quick, Report& report);
int fig05_throughput_test(bool quick, Report& report);
int fig06_word_count(bool quick, Report& report);
int fig08_log_stream(bool quick, Report& report);
int fig09_overload_wordcount(bool quick, Report& report);
int fig10_overload_logstream(bool quick, Report& report);
int ablation_estimators(bool quick, Report& report);
int ablation_gamma_sweep(bool quick, Report& report);
int ablation_multi_topology(bool quick, Report& report);
int ablation_node_failure(bool quick, Report& report);
int ablation_reassignment(bool quick, Report& report);
int ablation_resource_aware(bool quick, Report& report);
int ablation_scheduler_comparison(bool quick, Report& report);
int ablation_search_quality(bool quick, Report& report);
int ablation_skew(bool quick, Report& report);
int core_event_bench(bool quick, Report& report);
int flow_bench(bool quick, Report& report);
int recovery_bench(bool quick, Report& report);

}  // namespace tstorm::bench

namespace {

using tstorm::bench::Report;

struct Entry {
  std::string_view name;
  int (*run)(bool quick, Report& report);
};

constexpr Entry kEntries[] = {
    {"fig02_placement_impact", &tstorm::bench::fig02_placement_impact},
    {"fig03_overload_impact", &tstorm::bench::fig03_overload_impact},
    {"fig05_throughput_test", &tstorm::bench::fig05_throughput_test},
    {"fig06_word_count", &tstorm::bench::fig06_word_count},
    {"fig08_log_stream", &tstorm::bench::fig08_log_stream},
    {"fig09_overload_wordcount", &tstorm::bench::fig09_overload_wordcount},
    {"fig10_overload_logstream", &tstorm::bench::fig10_overload_logstream},
    {"ablation_estimators", &tstorm::bench::ablation_estimators},
    {"ablation_gamma_sweep", &tstorm::bench::ablation_gamma_sweep},
    {"ablation_multi_topology", &tstorm::bench::ablation_multi_topology},
    {"ablation_node_failure", &tstorm::bench::ablation_node_failure},
    {"ablation_reassignment", &tstorm::bench::ablation_reassignment},
    {"ablation_resource_aware", &tstorm::bench::ablation_resource_aware},
    {"ablation_scheduler_comparison",
     &tstorm::bench::ablation_scheduler_comparison},
    {"ablation_search_quality", &tstorm::bench::ablation_search_quality},
    {"ablation_skew", &tstorm::bench::ablation_skew},
    {"core_event_bench", &tstorm::bench::core_event_bench},
    {"flow_bench", &tstorm::bench::flow_bench},
    {"recovery_bench", &tstorm::bench::recovery_bench},
};

int usage() {
  std::cerr << "usage: bench_runner [--quick] [--out FILE] [ENTRY...]\n"
               "entries:";
  for (const Entry& e : kEntries) std::cerr << ' ' << e.name;
  std::cerr << '\n';
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  const char* out_path = nullptr;
  std::vector<const Entry*> selected;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      const auto* e = std::find_if(
          std::begin(kEntries), std::end(kEntries),
          [&](const Entry& entry) { return entry.name == arg; });
      if (e == std::end(kEntries)) return usage();
      if (std::find(selected.begin(), selected.end(), e) == selected.end()) {
        selected.push_back(e);
      }
    }
  }
  if (selected.empty()) {
    for (const Entry& e : kEntries) selected.push_back(&e);
  }

  int status = 0;
  std::vector<Report> reports(selected.size());
  for (std::size_t i = 0; i < selected.size(); ++i) {
    const Entry& e = *selected[i];
    std::cout << "[" << e.name << "]\n";
    const auto t0 = std::chrono::steady_clock::now();
    const int rc = e.run(quick, reports[i]);
    std::cout.flush();
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    reports[i].wall("entry_wall_s", wall);
    std::cerr << "[" << e.name << "] " << (rc == 0 ? "ok" : "FAILED")
              << " in " << wall << " s wall\n";
    if (rc != 0) status = 1;
  }

  if (out_path != nullptr) {
    std::ofstream out(out_path);
    out << "{\n\"quick\": " << (quick ? "true" : "false")
        << ",\n\"entries\": {";
    for (std::size_t i = 0; i < selected.size(); ++i) {
      out << (i == 0 ? "\n" : ",\n") << "  \"" << selected[i]->name
          << "\": ";
      reports[i].write_json(out);
    }
    out << "\n}\n}\n";
    if (!out) {
      std::cerr << "cannot write " << out_path << '\n';
      return 1;
    }
  }
  return status;
}
