#include "stats/empirical.hpp"

#include <algorithm>
#include <cmath>

#include "common/types.hpp"
#include "stats/quantile.hpp"

namespace janus {

EmpiricalDistribution::EmpiricalDistribution(std::vector<double> samples)
    : sorted_(std::move(samples)) {
  require(!sorted_.empty(), "EmpiricalDistribution needs >= 1 sample");
  std::sort(sorted_.begin(), sorted_.end());
  // Welford over the sorted data (order does not matter for the moments).
  double mean = 0.0, m2 = 0.0;
  std::size_t n = 0;
  for (double x : sorted_) {
    ++n;
    const double d = x - mean;
    mean += d / static_cast<double>(n);
    m2 += d * (x - mean);
  }
  mean_ = mean;
  m2_ = m2;
}

double EmpiricalDistribution::min() const {
  require(!empty(), "min of empty distribution");
  return sorted_.front();
}

double EmpiricalDistribution::max() const {
  require(!empty(), "max of empty distribution");
  return sorted_.back();
}

double EmpiricalDistribution::mean() const {
  require(!empty(), "mean of empty distribution");
  return mean_;
}

double EmpiricalDistribution::stddev() const {
  require(!empty(), "stddev of empty distribution");
  if (sorted_.size() < 2) return 0.0;
  return std::sqrt(m2_ / static_cast<double>(sorted_.size() - 1));
}

double EmpiricalDistribution::percentile(double p) const {
  return percentile_sorted(sorted_, p);
}

double EmpiricalDistribution::cdf(double x) const {
  if (empty()) return 0.0;
  const auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
  return static_cast<double>(it - sorted_.begin()) /
         static_cast<double>(sorted_.size());
}

double EmpiricalDistribution::fraction_above(double x) const {
  return 1.0 - cdf(x);
}

void EmpiricalDistribution::merge(const EmpiricalDistribution& other) {
  *this = merge_all({this, &other});
}

EmpiricalDistribution EmpiricalDistribution::merge_all(
    const std::vector<const EmpiricalDistribution*>& parts) {
  // One cursor per non-empty part, keyed by its next sample; the heap's top
  // is the smallest (value, part).
  struct Head {
    double value;
    std::size_t part;
    std::size_t pos;
  };
  const auto later = [](const Head& a, const Head& b) {
    return a.value > b.value || (a.value == b.value && a.part > b.part);
  };
  EmpiricalDistribution out;
  std::vector<Head> heap;
  std::size_t total = 0;
  for (std::size_t p = 0; p < parts.size(); ++p) {
    const EmpiricalDistribution& part = *parts[p];
    if (part.empty()) continue;
    heap.push_back({part.sorted_.front(), p, 0});
    if (total == 0) {
      out.mean_ = part.mean_;
      out.m2_ = part.m2_;
    } else {
      const double na = static_cast<double>(total);
      const double nb = static_cast<double>(part.sorted_.size());
      const double delta = part.mean_ - out.mean_;
      out.mean_ += delta * nb / (na + nb);
      out.m2_ += part.m2_ + delta * delta * na * nb / (na + nb);
    }
    total += part.sorted_.size();
  }
  out.sorted_.reserve(total);
  std::make_heap(heap.begin(), heap.end(), later);
  while (heap.size() > 1) {
    std::pop_heap(heap.begin(), heap.end(), later);
    Head& head = heap.back();
    out.sorted_.push_back(head.value);
    const std::vector<double>& run = parts[head.part]->sorted_;
    if (++head.pos < run.size()) {
      head.value = run[head.pos];
      std::push_heap(heap.begin(), heap.end(), later);
    } else {
      heap.pop_back();
    }
  }
  if (!heap.empty()) {  // the last run left: its tail is already in order
    const Head& head = heap.front();
    const std::vector<double>& run = parts[head.part]->sorted_;
    out.sorted_.insert(out.sorted_.end(),
                       run.begin() + static_cast<std::ptrdiff_t>(head.pos),
                       run.end());
  }
  return out;
}

std::vector<std::pair<double, double>> EmpiricalDistribution::cdf_series(
    std::size_t points) const {
  std::vector<std::pair<double, double>> out;
  if (empty() || points == 0) return out;
  out.reserve(points);
  for (std::size_t i = 0; i < points; ++i) {
    const double q = points == 1
                         ? 1.0
                         : static_cast<double>(i) / static_cast<double>(points - 1);
    out.emplace_back(quantile_sorted(sorted_, q), q);
  }
  return out;
}

}  // namespace janus
