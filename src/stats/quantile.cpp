#include "stats/quantile.hpp"

#include <algorithm>
#include <cmath>

#include "common/types.hpp"

namespace janus {

double quantile_sorted(const std::vector<double>& sorted, double q) {
  require(!sorted.empty(), "quantile of empty sample");
  require(q >= 0.0 && q <= 1.0, "quantile q outside [0,1]");
  if (sorted.size() == 1) return sorted.front();
  const QuantileRanks r = quantile_ranks(sorted.size(), q);
  return sorted[r.lo] + r.frac * (sorted[r.hi] - sorted[r.lo]);
}

QuantileRanks quantile_ranks(std::size_t n, double q) {
  const double pos = q * static_cast<double>(n - 1);
  QuantileRanks r;
  r.lo = static_cast<std::size_t>(std::floor(pos));
  r.hi = std::min(r.lo + 1, n - 1);
  r.frac = pos - static_cast<double>(r.lo);
  return r;
}

double quantile(std::vector<double> samples, double q) {
  std::sort(samples.begin(), samples.end());
  return quantile_sorted(samples, q);
}

double percentile_sorted(const std::vector<double>& sorted, double p) {
  require(p >= 0.0 && p <= 100.0, "percentile outside [0,100]");
  return quantile_sorted(sorted, p / 100.0);
}

P2Quantile::P2Quantile(double q) : q_(q) {
  require(q > 0.0 && q < 1.0, "P2Quantile q outside (0,1)");
  desired_ = {1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0};
  increments_ = {0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0};
  positions_ = {1.0, 2.0, 3.0, 4.0, 5.0};
}

void P2Quantile::add(double x) {
  if (count_ < 5) {
    heights_[count_++] = x;
    if (count_ == 5) std::sort(heights_.begin(), heights_.end());
    return;
  }
  ++count_;

  // Locate the cell containing x and clamp extremes.
  std::size_t k = 0;
  if (x < heights_[0]) {
    heights_[0] = x;
    k = 0;
  } else if (x >= heights_[4]) {
    heights_[4] = x;
    k = 3;
  } else {
    while (k < 3 && x >= heights_[k + 1]) ++k;
  }

  for (std::size_t i = k + 1; i < 5; ++i) positions_[i] += 1.0;
  for (std::size_t i = 0; i < 5; ++i) desired_[i] += increments_[i];

  // Adjust the interior markers with the parabolic (fallback linear) rule.
  for (std::size_t i = 1; i <= 3; ++i) {
    const double d = desired_[i] - positions_[i];
    const double below = positions_[i] - positions_[i - 1];
    const double above = positions_[i + 1] - positions_[i];
    if ((d >= 1.0 && above > 1.0) || (d <= -1.0 && below > 1.0)) {
      const double sign = d >= 0 ? 1.0 : -1.0;
      const double np = positions_[i] + sign;
      // Piecewise-parabolic prediction.
      double nh = heights_[i] +
                  sign / (positions_[i + 1] - positions_[i - 1]) *
                      ((below + sign) * (heights_[i + 1] - heights_[i]) / above +
                       (above - sign) * (heights_[i] - heights_[i - 1]) / below);
      if (nh <= heights_[i - 1] || nh >= heights_[i + 1]) {
        // Degenerate parabola: fall back to linear interpolation.
        const std::size_t j = sign > 0 ? i + 1 : i - 1;
        nh = heights_[i] +
             sign * (heights_[j] - heights_[i]) / (positions_[j] - positions_[i]);
      }
      heights_[i] = nh;
      positions_[i] = np;
    }
  }
}

double P2Quantile::value() const {
  if (count_ == 0) return 0.0;
  if (count_ < 5) {
    std::array<double, 5> copy = heights_;
    // Insertion sort over at most 4 observed values.  std::sort's inlined
    // introsort trips GCC 12's -Warray-bounds false positive here under
    // -fsanitize=address, and a 4-element sort does not need it anyway.
    for (std::size_t i = 1; i < count_; ++i) {
      const double v = copy[i];
      std::size_t j = i;
      for (; j > 0 && copy[j - 1] > v; --j) copy[j] = copy[j - 1];
      copy[j] = v;
    }
    const double pos = q_ * static_cast<double>(count_ - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const auto hi = std::min(lo + 1, count_ - 1);
    return copy[lo] + (pos - static_cast<double>(lo)) * (copy[hi] - copy[lo]);
  }
  return heights_[2];
}

}  // namespace janus
