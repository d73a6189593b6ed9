// Streaming statistics accumulators used by the simulators and benches.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

namespace logp::util {

/// Welford-style streaming accumulator: count, mean, variance, min, max.
/// Numerically stable; O(1) space.
class RunningStat {
 public:
  void add(double x);

  std::int64_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const;  ///< population variance; 0 if fewer than 2 samples
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return sum_; }

  /// Merge another accumulator into this one (parallel-combine rule).
  void merge(const RunningStat& other);

 private:
  std::int64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Fixed-width histogram over [lo, hi); samples outside the range are
/// clamped into the first/last bin. Supports percentile queries, which the
/// saturation study uses for tail latency.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x);
  std::int64_t total() const { return total_; }

  /// Value at quantile q in [0,1], linearly interpolated within the bin.
  double quantile(double q) const;

  const std::vector<std::int64_t>& bins() const { return counts_; }
  double bin_lo(std::size_t i) const { return lo_ + width_ * double(i); }

 private:
  double lo_, hi_, width_;
  std::vector<std::int64_t> counts_;
  std::int64_t total_ = 0;
};

}  // namespace logp::util
