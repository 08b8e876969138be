// Log-scale latency histogram with percentile queries. Fixed memory,
// O(1) insert — suitable for millions of tuple completions per run. Bins
// span 1 µs to 1000 s of processing time with ~4.4 % relative resolution.
#pragma once

#include <array>
#include <cstdint>

namespace tstorm::metrics {

class LatencyHistogram {
 public:
  static constexpr int kBins = 512;
  static constexpr double kMinMs = 1e-3;  // 1 microsecond
  static constexpr double kMaxMs = 1e6;   // 1000 seconds

  void add(double ms);

  /// Value (ms) at the given percentile in [0, 100]; 0 when empty. The
  /// result is the upper edge of the bin containing the requested rank.
  [[nodiscard]] double percentile(double p) const;

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double mean() const {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }
  [[nodiscard]] double max() const { return max_; }

  /// The samples added since `earlier`, a copy of this histogram taken
  /// before them: the bin-wise difference, so percentiles over a window
  /// need no second histogram. Its max() is the upper edge of the highest
  /// bin the window filled (no larger than this histogram's max), as the
  /// bins do not keep exact values.
  [[nodiscard]] LatencyHistogram since(const LatencyHistogram& earlier) const;

 private:
  static int bin_for(double ms);
  static double bin_upper_edge(int bin);

  std::array<std::uint64_t, kBins> bins_{};
  std::uint64_t count_ = 0;
  double sum_ = 0;
  double max_ = 0;
};

}  // namespace tstorm::metrics
