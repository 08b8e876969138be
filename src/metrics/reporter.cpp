#include "metrics/reporter.h"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <ostream>
#include <sstream>

namespace tstorm::metrics {
namespace {

std::size_t max_windows(const std::vector<SeriesColumn>& cols,
                        sim::Time until) {
  std::size_t n = 0;
  for (const auto& c : cols) {
    if (c.series == nullptr) continue;
    const auto width = c.series->window_width();
    const auto horizon = static_cast<std::size_t>(until / width);
    n = std::max(n, std::min(c.series->windows().size(), horizon));
  }
  return n;
}

}  // namespace

std::string format_ms(double v, int precision) {
  if (std::isnan(v)) return "-";
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

void print_series_table(std::ostream& os,
                        const std::vector<SeriesColumn>& cols,
                        sim::Time until) {
  if (cols.empty()) return;
  os << std::setw(10) << "time(s)";
  for (const auto& c : cols) os << std::setw(16) << c.label;
  os << '\n';
  const std::size_t n = max_windows(cols, until);
  for (std::size_t i = 0; i < n; ++i) {
    bool any = false;
    std::ostringstream row;
    double start = 0;
    for (const auto& c : cols) {
      const auto& ws = c.series->windows();
      if (i < ws.size() && ws[i].count > 0) {
        any = true;
        start = ws[i].start + c.series->window_width();
        row << std::setw(16) << format_ms(ws[i].mean());
      } else {
        if (i < ws.size()) start = ws[i].start + c.series->window_width();
        row << std::setw(16) << "-";
      }
    }
    if (!any) continue;
    os << std::setw(10) << static_cast<long long>(start) << row.str() << '\n';
  }
}

void write_series_csv(std::ostream& os, const std::vector<SeriesColumn>& cols,
                      sim::Time until) {
  os << "time_s";
  for (const auto& c : cols) os << ',' << c.label;
  os << '\n';
  const std::size_t n = max_windows(cols, until);
  for (std::size_t i = 0; i < n; ++i) {
    double start = 0;
    std::ostringstream row;
    for (const auto& c : cols) {
      const auto& ws = c.series->windows();
      if (i < ws.size()) {
        start = ws[i].start + c.series->window_width();
        row << ',';
        if (ws[i].count > 0) row << format_ms(ws[i].mean());
      } else {
        row << ',';
      }
    }
    os << static_cast<long long>(start) << row.str() << '\n';
  }
}

void print_decision_summary(std::ostream& os, const obs::ProvenanceLog& log,
                            std::size_t tail) {
  os << "scheduling decisions: " << log.total_recorded() << " recorded ("
     << log.size() << " retained), " << log.published_total()
     << " published\n";
  static constexpr obs::DecisionOutcome kOutcomes[] = {
      obs::DecisionOutcome::kPublished,
      obs::DecisionOutcome::kEmptyInput,
      obs::DecisionOutcome::kIncompleteAssignment,
      obs::DecisionOutcome::kNoChange,
      obs::DecisionOutcome::kNoWin,
      obs::DecisionOutcome::kApplyRejected,
  };
  os << "  by outcome:";
  for (const auto outcome : kOutcomes) {
    const std::size_t n = log.count(outcome);
    if (n > 0) os << ' ' << obs::to_string(outcome) << '=' << n;
  }
  os << '\n';
  const auto& records = log.records();
  const std::size_t start =
      records.size() > tail ? records.size() - tail : 0;
  for (std::size_t i = start; i < records.size(); ++i) {
    os << "  " << obs::format_decision(records[i]) << '\n';
  }
}

void print_tuple_trace_summary(std::ostream& os,
                               const obs::TupleTraceCollector& tuples) {
  os << "tuple traces: " << tuples.sampled_total() << " roots sampled, "
     << tuples.finished().size() << " finished retained, " << tuples.active()
     << " active";
  if (tuples.spans_truncated() > 0) {
    os << ", " << tuples.spans_truncated() << " spans truncated";
  }
  os << '\n';
  std::size_t completed = 0;
  double latency = 0, queue = 0, exec = 0, network = 0, ack = 0;
  for (const auto& root : tuples.finished()) {
    if (root.completed) ++completed;
    latency += root.end_time - root.emit_time;
    queue += root.queue_wait_s;
    exec += root.execute_s;
    network += root.network_s;
    ack += root.ack_wait_s;
  }
  const auto n = static_cast<double>(tuples.finished().size());
  if (n == 0) return;
  os << "  completed " << completed << " / timed out "
     << (tuples.finished().size() - completed) << '\n';
  os << "  mean per root (ms): end-to-end "
     << format_ms(latency / n * 1e3) << ", queue-wait "
     << format_ms(queue / n * 1e3) << ", execute "
     << format_ms(exec / n * 1e3) << ", network "
     << format_ms(network / n * 1e3) << ", ack-wait "
     << format_ms(ack / n * 1e3) << '\n';
}

}  // namespace tstorm::metrics
