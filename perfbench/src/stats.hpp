#pragma once
/// \file stats.hpp
/// Exact order statistics over raw samples (no histogram buckets).

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

/// Nearest-rank quantile: the smallest sample with at least a share
/// \p q of the samples at or below it.  0 for an empty sample.
inline double exact_quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const std::size_t n = v.size();
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  std::nth_element(v.begin(), v.begin() + (rank - 1), v.end());
  return v[rank - 1];
}

/// Number of samples strictly above the nearest-rank \p q quantile's
/// rank — a percentile is reported as supported when this is >= 10.
inline std::size_t samples_beyond(std::size_t n, double q) {
  const std::size_t rank = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(n))), 1,
      n ? n : 1);
  return n > rank ? n - rank : 0;
}

struct Summary {
  std::size_t count = 0;
  double p25 = 0.0, p50 = 0.0, p75 = 0.0, p99 = 0.0;
  std::size_t beyond_p99 = 0;
};

inline Summary summarize(const std::vector<double>& v) {
  Summary s;
  s.count = v.size();
  s.p25 = exact_quantile(v, 0.25);
  s.p50 = exact_quantile(v, 0.50);
  s.p75 = exact_quantile(v, 0.75);
  s.p99 = exact_quantile(v, 0.99);
  s.beyond_p99 = samples_beyond(v.size(), 0.99);
  return s;
}

inline double median(std::vector<double> v) { return exact_quantile(std::move(v), 0.5); }

}  // namespace perfbench
