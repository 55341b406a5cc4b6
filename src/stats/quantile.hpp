// Quantile computation: exact (on a sample vector) and streaming (the P²
// algorithm) variants.  Profiles in the paper are percentile tables, so the
// exact path is the workhorse; the streaming estimator supports the online
// adapter's supervision counters without retaining samples.
#pragma once

#include <array>
#include <cstddef>
#include <vector>

namespace janus {

/// Exact quantile with linear interpolation (the "linear"/type-7 convention
/// used by numpy.percentile, which the paper's pandas pipeline relies on).
/// `q` in [0, 1].  Throws on empty input or q outside [0, 1].
double quantile_sorted(const std::vector<double>& sorted, double q);

/// The ranks quantile_sorted reads on n >= 2 sorted samples s, and the
/// weight between them: the q-quantile is s[lo] + frac * (s[hi] - s[lo]).
struct QuantileRanks {
  std::size_t lo = 0;
  std::size_t hi = 0;
  double frac = 0.0;
};
QuantileRanks quantile_ranks(std::size_t n, double q);

/// Copies + sorts, then delegates to quantile_sorted.
double quantile(std::vector<double> samples, double q);

/// Percentile helper: p in [0, 100].
double percentile_sorted(const std::vector<double>& sorted, double p);

/// P² (Jain & Chlamtac) streaming quantile estimator: O(1) memory, no
/// sample retention.  Approximate; used for monitoring, not for profiles.
class P2Quantile {
 public:
  /// `q` in (0, 1).
  explicit P2Quantile(double q);

  void add(double x);
  /// Estimate of the q-quantile; exact while fewer than 5 samples seen.
  double value() const;
  std::size_t count() const noexcept { return count_; }

 private:
  double q_;
  std::size_t count_ = 0;
  std::array<double, 5> heights_{};
  std::array<double, 5> positions_{};
  std::array<double, 5> desired_{};
  std::array<double, 5> increments_{};
};

}  // namespace janus
