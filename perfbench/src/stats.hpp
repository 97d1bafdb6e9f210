// Statistics shared by every workload: median, quartiles (the same
// "exclusive" method as Python's statistics.quantiles, so a spread printed
// here matches one recomputed from a list of runs), nearest-rank
// percentiles, and the reporting rule for tail percentiles: a percentile is
// reported only when at least kMinTail samples lie beyond it, and never
// from fewer than kMinTailSamples samples — below that a "p99" is not a
// tail, just the largest few values.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>
#include <stdexcept>
#include <vector>

namespace perfbench {

inline constexpr std::size_t kMinTail = 10;
inline constexpr std::size_t kMinTailSamples = 40;

/// Median of `v` (mean of the two middle values for an even count).
/// Throws on an empty input: a metric with no samples is a bug upstream.
inline double median(std::vector<double> v) {
  if (v.empty()) throw std::invalid_argument("median of no samples");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// Quartiles Q1, Q2, Q3 by linear interpolation on rank (n + 1) * i / 4,
/// clamped to the sample range — Python's statistics.quantiles(v, n=4).
/// Needs at least two samples.
struct Quartiles {
  double q1 = 0, q2 = 0, q3 = 0;
  /// Interquartile distance as a share of the median (0 when the median is 0).
  [[nodiscard]] double relative_spread() const {
    return q2 == 0 ? 0.0 : (q3 - q1) / std::fabs(q2);
  }
};

inline Quartiles quartiles(std::vector<double> v) {
  if (v.size() < 2) throw std::invalid_argument("quartiles need two samples");
  std::sort(v.begin(), v.end());
  const long ld = static_cast<long>(v.size());
  const long m = ld + 1;
  double q[3];
  for (long i = 1; i <= 3; ++i) {
    long j = i * m / 4;
    j = std::clamp(j, 1L, ld - 1);
    const long delta = i * m - j * 4;
    q[i - 1] = (v[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
                v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
               4.0;
  }
  return Quartiles{q[0], q[1], q[2]};
}

/// Index (0-based, into the sorted samples) of the nearest-rank p-th
/// percentile: the smallest value with at least p·n samples at or below it.
inline std::size_t nearest_rank_index(std::size_t n, double p) {
  if (n == 0) throw std::invalid_argument("percentile of no samples");
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n) - 1;
}

/// Samples strictly beyond the nearest-rank p-th percentile's position.
inline std::size_t samples_beyond(std::size_t n, double p) {
  return n - 1 - nearest_rank_index(n, p);
}

/// The reporting rule: p may be reported from n samples only when n is at
/// least kMinTailSamples and at least kMinTail samples lie beyond it.
inline bool tail_reportable(std::size_t n, double p) {
  return n >= kMinTailSamples && samples_beyond(n, p) >= kMinTail;
}

/// A latency distribution as it is printed: median, the p99 when the rule
/// allows it, and the sample count that goes next to both.
struct LatencySummary {
  std::size_t count = 0;
  double p50 = 0;
  std::optional<double> p99;
};

inline LatencySummary summarize(std::vector<double> v) {
  LatencySummary s;
  s.count = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  s.p50 = median(v);
  if (tail_reportable(v.size(), 0.99)) s.p99 = v[nearest_rank_index(v.size(), 0.99)];
  return s;
}

}  // namespace perfbench
