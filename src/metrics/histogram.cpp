#include "metrics/histogram.h"

#include <algorithm>
#include <cmath>

namespace tstorm::metrics {

namespace {
const double kLogMin = std::log(LatencyHistogram::kMinMs);
const double kLogMax = std::log(LatencyHistogram::kMaxMs);
}  // namespace

int LatencyHistogram::bin_for(double ms) {
  if (ms <= kMinMs) return 0;
  if (ms >= kMaxMs) return kBins - 1;
  const double f = (std::log(ms) - kLogMin) / (kLogMax - kLogMin);
  return std::clamp(static_cast<int>(f * kBins), 0, kBins - 1);
}

double LatencyHistogram::bin_upper_edge(int bin) {
  const double f = static_cast<double>(bin + 1) / kBins;
  return std::exp(kLogMin + f * (kLogMax - kLogMin));
}

void LatencyHistogram::add(double ms) {
  ++bins_[static_cast<std::size_t>(bin_for(ms))];
  ++count_;
  sum_ += ms;
  max_ = std::max(max_, ms);
}

double LatencyHistogram::percentile(double p) const {
  if (count_ == 0) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  const auto rank = static_cast<std::uint64_t>(
      std::ceil(p / 100.0 * static_cast<double>(count_)));
  std::uint64_t seen = 0;
  for (int b = 0; b < kBins; ++b) {
    seen += bins_[static_cast<std::size_t>(b)];
    if (seen >= rank && seen > 0) return bin_upper_edge(b);
  }
  return bin_upper_edge(kBins - 1);
}

LatencyHistogram LatencyHistogram::since(
    const LatencyHistogram& earlier) const {
  LatencyHistogram out;
  for (int b = 0; b < kBins; ++b) {
    const auto i = static_cast<std::size_t>(b);
    out.bins_[i] = bins_[i] - earlier.bins_[i];
    if (out.bins_[i] > 0) out.max_ = std::min(max_, bin_upper_edge(b));
  }
  out.count_ = count_ - earlier.count_;
  out.sum_ = sum_ - earlier.sum_;
  return out;
}

}  // namespace tstorm::metrics
