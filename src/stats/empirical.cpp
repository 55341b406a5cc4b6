#include "stats/empirical.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>

#include "common/types.hpp"
#include "stats/quantile.hpp"

namespace janus {
namespace {

constexpr std::uint64_t kSignBit = std::uint64_t{1} << 63;

/// Order-preserving key of a double: the keys' unsigned order is the
/// doubles' ascending order (for non-NaN values), with -0.0 below +0.0.
/// A bijection, so from_key(sort_key(x)) has x's bits.
std::uint64_t sort_key(double x) noexcept {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &x, sizeof bits);
  return (bits & kSignBit) != 0 ? ~bits : bits | kSignBit;
}

double from_key(std::uint64_t key) noexcept {
  const std::uint64_t bits = (key & kSignBit) != 0 ? key ^ kSignBit : ~key;
  double x = 0.0;
  std::memcpy(&x, &bits, sizeof x);
  return x;
}

/// Rows shorter than this sort with std::sort on the same key: below it,
/// clearing and scanning the radix passes' digit counters costs more than
/// the comparisons save (the two cross between 64 and 128 samples on
/// lognormal latencies), and a dense fleet of tiny tenants sorts one row
/// per tenant.
constexpr std::size_t kRadixMinSamples = 128;
constexpr unsigned kDigitBits = 8;
constexpr std::size_t kDigits = 64 / kDigitBits;
constexpr std::size_t kBuckets = std::size_t{1} << kDigitBits;
using DigitCounts = std::array<std::size_t, kBuckets>;

// While it sorts, a row holds keys in place of doubles: the radix passes
// ping-pong between the samples' own storage and one scratch buffer of n
// slots, and these move a key's 8 bytes in and out of a slot unconverted.
std::uint64_t load_key(const double* slot) noexcept {
  std::uint64_t key = 0;
  std::memcpy(&key, slot, sizeof key);
  return key;
}
void store_key(double* slot, std::uint64_t key) noexcept {
  std::memcpy(slot, &key, sizeof key);
}

/// Sorts `xs` in place by sort_key; throws on a NaN sample.
void sort_samples(std::vector<double>& xs) {
  require(std::none_of(xs.begin(), xs.end(),
                       [](double x) { return std::isnan(x); }),
          "EmpiricalDistribution sample is NaN");
  const std::size_t n = xs.size();
  if (n < kRadixMinSamples) {
    std::sort(xs.begin(), xs.end(),
              [](double a, double b) { return sort_key(a) < sort_key(b); });
    return;
  }
  double* data = xs.data();
  // Every digit's histogram in one read of the input, which leaves the
  // keys in the samples' storage.
  std::array<DigitCounts, kDigits> counts{};
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t key = sort_key(data[i]);
    store_key(data + i, key);
    for (std::size_t d = 0; d < kDigits; ++d) {
      ++counts[d][(key >> (d * kDigitBits)) & (kBuckets - 1)];
    }
  }
  // Left uninitialized: every pass writes all n slots before any is read.
  const std::unique_ptr<double[]> scratch(new double[n]);
  double* src = data;
  double* dst = scratch.get();
  for (std::size_t d = 0; d < kDigits; ++d) {
    const auto shift = static_cast<unsigned>(d * kDigitBits);
    DigitCounts& next = counts[d];
    // A digit every key shares leaves the order as it is.
    if (next[(load_key(src) >> shift) & (kBuckets - 1)] == n) continue;
    std::size_t slot = 0;
    for (std::size_t& count : next) {
      const std::size_t here = count;
      count = slot;
      slot += here;
    }
    // Stable, so keys equal in this digit keep the lower digits' order.
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t key = load_key(src + i);
      store_key(dst + next[(key >> shift) & (kBuckets - 1)]++, key);
    }
    std::swap(src, dst);
  }
  for (std::size_t i = 0; i < n; ++i) data[i] = from_key(load_key(src + i));
}

}  // namespace

EmpiricalDistribution::EmpiricalDistribution(std::vector<double> samples)
    : sorted_(std::move(samples)) {
  require(!sorted_.empty(), "EmpiricalDistribution needs >= 1 sample");
  sort_samples(sorted_);
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
  // One cursor per non-empty part, keyed by its next sample's sort key; the
  // heap's top is the smallest.  Equal keys are bit-identical samples, so
  // which part wins a tie does not show in the output.
  struct Head {
    std::uint64_t key;
    std::size_t part;
    std::size_t pos;
  };
  const auto later = [](const Head& a, const Head& b) { return a.key > b.key; };
  EmpiricalDistribution out;
  std::vector<Head> heap;
  std::size_t total = 0;
  for (std::size_t p = 0; p < parts.size(); ++p) {
    const EmpiricalDistribution& part = *parts[p];
    if (part.empty()) continue;
    heap.push_back({sort_key(part.sorted_.front()), p, 0});
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
    const std::vector<double>& run = parts[head.part]->sorted_;
    out.sorted_.push_back(run[head.pos]);
    if (++head.pos < run.size()) {
      head.key = sort_key(run[head.pos]);
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

double EmpiricalDistribution::percentile_of(
    const std::vector<const EmpiricalDistribution*>& parts, double p) {
  require(p >= 0.0 && p <= 100.0, "percentile outside [0,100]");
  std::size_t n = 0;
  std::uint64_t lo_key = ~std::uint64_t{0};
  std::uint64_t hi_key = 0;
  for (const EmpiricalDistribution* part : parts) {
    if (part->empty()) continue;
    n += part->size();
    lo_key = std::min(lo_key, sort_key(part->sorted_.front()));
    hi_key = std::max(hi_key, sort_key(part->sorted_.back()));
  }
  require(n > 0, "quantile of empty sample");
  if (n == 1) return from_key(lo_key);  // quantile_sorted's shortcut

  const auto key_below = [](std::uint64_t key, double x) {
    return key < sort_key(x);
  };
  // Samples whose key is <= `key`, over every part.
  const auto count_le = [&](std::uint64_t key) {
    std::size_t count = 0;
    for (const EmpiricalDistribution* part : parts) {
      const std::vector<double>& run = part->sorted_;
      if (run.empty() || sort_key(run.front()) > key) continue;
      if (sort_key(run.back()) <= key) {
        count += run.size();
        continue;
      }
      count += static_cast<std::size_t>(
          std::upper_bound(run.begin(), run.end(), key, key_below) -
          run.begin());
    }
    return count;
  };
  const QuantileRanks r = quantile_ranks(n, p / 100.0);
  // The sample at rank lo of the merged order has the smallest key with
  // more than lo samples at or below it.
  while (lo_key < hi_key) {
    const std::uint64_t mid = lo_key + (hi_key - lo_key) / 2;
    if (count_le(mid) > r.lo) {
      hi_key = mid;
    } else {
      lo_key = mid + 1;
    }
  }
  const double at_lo = from_key(lo_key);
  // Rank hi holds the same sample unless rank lo ends its run of equal
  // samples; then it holds the smallest sample above it in any part.
  double at_hi = at_lo;
  if (count_le(lo_key) <= r.hi) {
    std::uint64_t next = ~std::uint64_t{0};
    for (const EmpiricalDistribution* part : parts) {
      const std::vector<double>& run = part->sorted_;
      const auto above =
          std::upper_bound(run.begin(), run.end(), lo_key, key_below);
      if (above != run.end()) next = std::min(next, sort_key(*above));
    }
    at_hi = from_key(next);
  }
  return at_lo + r.frac * (at_hi - at_lo);
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
