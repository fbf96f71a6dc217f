#pragma once

// Latency statistics for the request summary `parpde_cli serve` prints
// (p50/p99/mean/max of the per-request latencies). Header-only, so the
// tools target needs no extra library.

#include <algorithm>
#include <cstdint>
#include <vector>

namespace parpde::bench {

// Nearest-rank percentile (q in [0, 1]) over a by-value copy of the samples:
// idx = clamp(q*n - 0.5) after sorting.
inline double percentile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const auto n = static_cast<double>(xs.size());
  const auto idx = static_cast<std::size_t>(
      std::min(n - 1.0, std::max(0.0, q * n - 0.5)));
  return xs[idx];
}

struct LatencySummary {
  std::uint64_t count = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  double mean = 0.0;
  double max = 0.0;
};

inline LatencySummary summarize_latencies(const std::vector<double>& xs) {
  LatencySummary s;
  s.count = static_cast<std::uint64_t>(xs.size());
  if (xs.empty()) return s;
  double sum = 0.0;
  for (const double v : xs) {
    sum += v;
    s.max = std::max(s.max, v);
  }
  s.mean = sum / static_cast<double>(xs.size());
  s.p50 = percentile(xs, 0.50);
  s.p99 = percentile(xs, 0.99);
  return s;
}

}  // namespace parpde::bench
