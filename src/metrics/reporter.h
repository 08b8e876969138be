// Text/CSV reporters used by the bench harness to print the same series the
// paper plots: running time vs. average processing time, per scheduler.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "metrics/timeseries.h"
#include "obs/provenance.h"
#include "obs/tuple_trace.h"

namespace tstorm::metrics {

/// One plotted line (e.g. "Storm", "T-Storm").
struct SeriesColumn {
  std::string label;
  const WindowedSeries* series = nullptr;
};

/// Prints aligned columns: window start time, then one mean per column
/// ("-" where a column has no observations in that window).
void print_series_table(std::ostream& os, const std::vector<SeriesColumn>& cols,
                        sim::Time until);

/// Same data as CSV (for re-plotting the figures).
void write_series_csv(std::ostream& os, const std::vector<SeriesColumn>& cols,
                      sim::Time until);

/// Formats a double with fixed precision, "-" for NaN.
std::string format_ms(double v, int precision = 2);

/// --- Observability summaries. ---

/// Scheduling decisions: totals by outcome and trigger, then the most
/// recent `tail` records as one line each (why the scheduler last acted —
/// or declined to).
void print_decision_summary(std::ostream& os, const obs::ProvenanceLog& log,
                            std::size_t tail = 5);

/// Sampled tuple traces: how many roots were traced, completion split, and
/// the mean end-to-end latency breakdown (queue wait / execute / network /
/// ack wait) over finished roots — the Fig. 3 "where does latency come
/// from" answer, per run.
void print_tuple_trace_summary(std::ostream& os,
                               const obs::TupleTraceCollector& tuples);

}  // namespace tstorm::metrics
