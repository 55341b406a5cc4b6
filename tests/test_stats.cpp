// Tests for src/stats: quantiles, empirical distributions, histograms,
// parametric samplers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "stats/distributions.hpp"
#include "stats/empirical.hpp"
#include "stats/histogram.hpp"
#include "stats/quantile.hpp"
#include "stats/summary.hpp"

namespace janus {
namespace {

// ------------------------------------------------------------- quantile --
TEST(Quantile, SingleElement) {
  EXPECT_DOUBLE_EQ(quantile({5.0}, 0.0), 5.0);
  EXPECT_DOUBLE_EQ(quantile({5.0}, 1.0), 5.0);
}

TEST(Quantile, LinearInterpolationMatchesNumpyType7) {
  // numpy.percentile([1,2,3,4], 25) == 1.75
  EXPECT_DOUBLE_EQ(quantile({1, 2, 3, 4}, 0.25), 1.75);
  EXPECT_DOUBLE_EQ(quantile({1, 2, 3, 4}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(quantile({1, 2, 3, 4}, 1.0), 4.0);
}

TEST(Quantile, UnsortedInputIsSorted) {
  EXPECT_DOUBLE_EQ(quantile({4, 1, 3, 2}, 0.5), 2.5);
}

TEST(Quantile, EmptyThrows) {
  EXPECT_THROW(quantile({}, 0.5), std::invalid_argument);
}

TEST(Quantile, OutOfRangeQThrows) {
  EXPECT_THROW(quantile({1.0}, -0.1), std::invalid_argument);
  EXPECT_THROW(quantile({1.0}, 1.1), std::invalid_argument);
}

TEST(Quantile, PercentileHelper) {
  const std::vector<double> v{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(percentile_sorted(v, 50.0), 3.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(v, 100.0), 5.0);
}

class QuantileMonotoneTest : public ::testing::TestWithParam<int> {};

TEST_P(QuantileMonotoneTest, MonotoneInQ) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  std::vector<double> v;
  for (int i = 0; i < 500; ++i) v.push_back(rng.lognormal(0.0, 1.0));
  std::sort(v.begin(), v.end());
  double prev = quantile_sorted(v, 0.0);
  for (double q = 0.05; q <= 1.0; q += 0.05) {
    const double cur = quantile_sorted(v, q);
    EXPECT_GE(cur, prev);
    prev = cur;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QuantileMonotoneTest,
                         ::testing::Values(1, 2, 3, 4, 5));

// ------------------------------------------------------------------- p2 --
class P2AccuracyTest : public ::testing::TestWithParam<double> {};

TEST_P(P2AccuracyTest, TracksExactQuantileOnLognormal) {
  const double q = GetParam();
  Rng rng(99);
  P2Quantile est(q);
  std::vector<double> exact;
  for (int i = 0; i < 20000; ++i) {
    const double x = rng.lognormal(0.0, 0.5);
    est.add(x);
    exact.push_back(x);
  }
  const double truth = quantile(std::move(exact), q);
  EXPECT_NEAR(est.value(), truth, truth * 0.06);
}

INSTANTIATE_TEST_SUITE_P(Quantiles, P2AccuracyTest,
                         ::testing::Values(0.1, 0.25, 0.5, 0.75, 0.9, 0.99));

TEST(P2Quantile, ExactBelowFiveSamples) {
  P2Quantile est(0.5);
  est.add(3.0);
  est.add(1.0);
  est.add(2.0);
  EXPECT_DOUBLE_EQ(est.value(), 2.0);
}

TEST(P2Quantile, RejectsDegenerateQ) {
  EXPECT_THROW(P2Quantile(0.0), std::invalid_argument);
  EXPECT_THROW(P2Quantile(1.0), std::invalid_argument);
}

// ------------------------------------------------------------ empirical --
TEST(Empirical, BasicStats) {
  EmpiricalDistribution d({1, 2, 3, 4, 5});
  EXPECT_DOUBLE_EQ(d.min(), 1.0);
  EXPECT_DOUBLE_EQ(d.max(), 5.0);
  EXPECT_DOUBLE_EQ(d.mean(), 3.0);
  EXPECT_NEAR(d.stddev(), std::sqrt(2.5), 1e-12);
}

TEST(Empirical, CdfStepBehaviour) {
  EmpiricalDistribution d({1, 2, 3, 4});
  EXPECT_DOUBLE_EQ(d.cdf(0.5), 0.0);
  EXPECT_DOUBLE_EQ(d.cdf(2.0), 0.5);
  EXPECT_DOUBLE_EQ(d.cdf(10.0), 1.0);
  EXPECT_DOUBLE_EQ(d.fraction_above(2.0), 0.5);
}

TEST(Empirical, PercentileMatchesQuantile) {
  EmpiricalDistribution d({1, 2, 3, 4});
  EXPECT_DOUBLE_EQ(d.percentile(25.0), 1.75);
}

TEST(Empirical, CdfSeriesIsMonotone) {
  Rng rng(3);
  std::vector<double> v;
  for (int i = 0; i < 300; ++i) v.push_back(rng.uniform());
  EmpiricalDistribution d(std::move(v));
  const auto series = d.cdf_series(50);
  ASSERT_EQ(series.size(), 50u);
  for (std::size_t i = 1; i < series.size(); ++i) {
    EXPECT_GE(series[i].first, series[i - 1].first);
    EXPECT_GE(series[i].second, series[i - 1].second);
  }
  EXPECT_DOUBLE_EQ(series.back().second, 1.0);
}

TEST(Empirical, EmptyConstructionThrows) {
  EXPECT_THROW(EmpiricalDistribution(std::vector<double>{}),
               std::invalid_argument);
}

TEST(EmpiricalMerge, EqualsSinglePass) {
  Rng rng(11);
  std::vector<double> all, first, second;
  for (int i = 0; i < 600; ++i) {
    const double x = rng.lognormal(0.0, 0.7);
    all.push_back(x);
    (i < 250 ? first : second).push_back(x);
  }
  EmpiricalDistribution whole(all);
  EmpiricalDistribution a(first), b(second);
  a.merge(b);
  ASSERT_EQ(a.size(), whole.size());
  EXPECT_EQ(a.sorted_samples(), whole.sorted_samples());  // exact
  EXPECT_NEAR(a.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(a.stddev(), whole.stddev(), 1e-9);
  EXPECT_DOUBLE_EQ(a.percentile(99.0), whole.percentile(99.0));
}

TEST(EmpiricalMerge, Commutative) {
  EmpiricalDistribution lhs({1, 3, 5});
  lhs.merge(EmpiricalDistribution({2, 4, 6}));
  EmpiricalDistribution rhs({2, 4, 6});
  rhs.merge(EmpiricalDistribution({1, 3, 5}));
  EXPECT_EQ(lhs.sorted_samples(), rhs.sorted_samples());
  EXPECT_NEAR(lhs.mean(), rhs.mean(), 1e-12);
  EXPECT_NEAR(lhs.stddev(), rhs.stddev(), 1e-12);
}

TEST(EmpiricalMerge, Associative) {
  const std::vector<double> xs{1, 2}, ys{3, 4}, zs{5, 6};
  // (x + y) + z
  EmpiricalDistribution left(xs);
  left.merge(EmpiricalDistribution(ys));
  left.merge(EmpiricalDistribution(zs));
  // x + (y + z)
  EmpiricalDistribution inner(ys);
  inner.merge(EmpiricalDistribution(zs));
  EmpiricalDistribution right(xs);
  right.merge(inner);
  EXPECT_EQ(left.sorted_samples(), right.sorted_samples());
  EXPECT_NEAR(left.mean(), right.mean(), 1e-12);
  EXPECT_NEAR(left.stddev(), right.stddev(), 1e-12);
}

TEST(EmpiricalMerge, EmptyIsIdentity) {
  EmpiricalDistribution a({1, 2, 3}), empty;
  a.merge(empty);
  EXPECT_EQ(a.size(), 3u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  empty.merge(a);
  EXPECT_EQ(empty.size(), 3u);
  EXPECT_DOUBLE_EQ(empty.mean(), 2.0);
  EXPECT_DOUBLE_EQ(empty.stddev(), a.stddev());
}

/// The pairwise merge merge_all must reproduce: std::merge (ties from the
/// left) and Chan's update, as merge() computed it before merge_all.
EmpiricalDistribution reference_merge(const EmpiricalDistribution& a,
                                      const EmpiricalDistribution& b) {
  if (b.empty()) return a;
  if (a.empty()) return b;
  std::vector<double> merged(a.size() + b.size());
  std::merge(a.sorted_samples().begin(), a.sorted_samples().end(),
             b.sorted_samples().begin(), b.sorted_samples().end(),
             merged.begin());
  const double na = static_cast<double>(a.size());
  const double nb = static_cast<double>(b.size());
  const double delta = b.moment_mean() - a.moment_mean();
  return EmpiricalDistribution::from_sorted(
      std::move(merged), a.moment_mean() + delta * nb / (na + nb),
      a.moment_m2() + (b.moment_m2() + delta * delta * na * nb / (na + nb)));
}

void expect_same_distribution(const EmpiricalDistribution& got,
                              const EmpiricalDistribution& want) {
  EXPECT_EQ(got.sorted_samples(), want.sorted_samples());
  EXPECT_EQ(got.moment_mean(), want.moment_mean());
  EXPECT_EQ(got.moment_m2(), want.moment_m2());
}

TEST(EmpiricalMerge, MergeAllEqualsLeftToRightFold) {
  Rng rng(23);
  // 1 and 7 parts (not a power of two), with empty parts and values that
  // repeat across parts (drawn from a coarse grid).
  for (const std::size_t count : {std::size_t{1}, std::size_t{7}}) {
    SCOPED_TRACE(count);
    std::vector<EmpiricalDistribution> parts;
    for (std::size_t p = 0; p < count; ++p) {
      const int n = (p % 3 == 1) ? 0 : 50 + static_cast<int>(p) * 37;
      std::vector<double> xs;
      for (int i = 0; i < n; ++i) {
        xs.push_back(i % 2 == 0 ? std::floor(rng.uniform() * 20.0) / 4.0
                                : rng.lognormal(0.0, 0.7));
      }
      parts.push_back(xs.empty() ? EmpiricalDistribution()
                                 : EmpiricalDistribution(std::move(xs)));
    }
    std::vector<const EmpiricalDistribution*> ptrs;
    EmpiricalDistribution folded;
    EmpiricalDistribution reference;
    for (const EmpiricalDistribution& part : parts) {
      ptrs.push_back(&part);
      folded.merge(part);
      reference = reference_merge(reference, part);
    }
    const EmpiricalDistribution all = EmpiricalDistribution::merge_all(ptrs);
    expect_same_distribution(all, folded);
    expect_same_distribution(all, reference);
  }
  // No parts, or only empty ones: the empty distribution.
  EXPECT_TRUE(EmpiricalDistribution::merge_all({}).empty());
  const EmpiricalDistribution empty;
  EXPECT_TRUE(EmpiricalDistribution::merge_all({&empty, &empty}).empty());
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(),
                                   a.size() * sizeof(double)) == 0);
}

/// A latency-like sample that is often a coarse grid value (so values
/// repeat within and across parts), sometimes negative, now and then
/// infinite.
double mixed_sample(Rng& rng) {
  const double u = rng.uniform();
  if (u < 0.01) return std::numeric_limits<double>::infinity();
  if (u < 0.02) return -std::numeric_limits<double>::infinity();
  if (u < 0.45) return std::floor(rng.uniform() * 20.0) / 4.0 - 1.0;
  if (u < 0.6) return -rng.lognormal(0.0, 0.7);
  return rng.lognormal(0.0, 0.7);
}

TEST(EmpiricalMerge, PercentileOfMatchesMergeAll) {
  Rng rng(31);
  std::vector<double> ps = {0.0, 0.1, 1.0, 50.0, 99.0, 99.9, 100.0};
  for (int i = 0; i < 8; ++i) ps.push_back(rng.uniform() * 100.0);
  for (const std::size_t count :
       {std::size_t{1}, std::size_t{2}, std::size_t{7}, std::size_t{64}}) {
    for (int trial = 0; trial < 6; ++trial) {
      SCOPED_TRACE(::testing::Message() << count << " parts, trial " << trial);
      // Sizes from 0 to 2000: every shape draws its own, with empty parts,
      // single samples and short rows (std::sort) next to radix-sorted ones.
      std::vector<EmpiricalDistribution> parts;
      for (std::size_t p = 0; p < count; ++p) {
        const std::int64_t shape = rng.uniform_int(0, 4);
        const std::int64_t n = shape == 0   ? 0
                               : shape == 1 ? 1
                               : shape == 2 ? rng.uniform_int(2, 40)
                                            : rng.uniform_int(0, 2000);
        std::vector<double> xs;
        for (std::int64_t j = 0; j < n; ++j) xs.push_back(mixed_sample(rng));
        parts.push_back(xs.empty() ? EmpiricalDistribution()
                                   : EmpiricalDistribution(std::move(xs)));
      }
      std::vector<const EmpiricalDistribution*> ptrs;
      for (const EmpiricalDistribution& part : parts) ptrs.push_back(&part);
      const EmpiricalDistribution all = EmpiricalDistribution::merge_all(ptrs);
      if (all.empty()) {
        EXPECT_THROW(EmpiricalDistribution::percentile_of(ptrs, 50.0),
                     std::invalid_argument);
        continue;
      }
      for (const double p : ps) {
        const double want = all.percentile(p);
        const double got = EmpiricalDistribution::percentile_of(ptrs, p);
        EXPECT_TRUE(same_bits(got, want))
            << "p=" << p << ": got " << got << ", want " << want;
      }
    }
  }
  // N = 0, and p outside [0, 100], throw as percentile() does.
  const EmpiricalDistribution empty;
  EXPECT_THROW(EmpiricalDistribution::percentile_of({}, 50.0),
               std::invalid_argument);
  EXPECT_THROW(EmpiricalDistribution::percentile_of({&empty, &empty}, 50.0),
               std::invalid_argument);
  const EmpiricalDistribution one({2.0});
  EXPECT_THROW(EmpiricalDistribution::percentile_of({&one}, 100.5),
               std::invalid_argument);
  // A single infinite sample: the single-sample shortcut, not inf - inf.
  const EmpiricalDistribution inf({std::numeric_limits<double>::infinity()});
  EXPECT_EQ(EmpiricalDistribution::percentile_of({&empty, &inf}, 50.0),
            std::numeric_limits<double>::infinity());
}

TEST(Empirical, RadixSortMatchesStdSort) {
  Rng rng(41);
  const double denorm = std::numeric_limits<double>::denorm_min();
  for (const std::size_t n :
       {std::size_t{1}, std::size_t{127}, std::size_t{128}, std::size_t{129},
        std::size_t{5000}, std::size_t{150000}}) {
    // Mixed data, and data whose high key digits are constant (positive
    // values in [1, 2) share sign and exponent), so the sort skips passes.
    for (const bool narrow : {false, true}) {
      SCOPED_TRACE(::testing::Message() << n << (narrow ? " narrow" : ""));
      std::vector<double> xs;
      for (std::size_t i = 0; i < n; ++i) {
        double x = narrow ? 1.0 + std::floor(rng.uniform() * 4096.0) / 4096.0
                          : mixed_sample(rng);
        if (!narrow && i % 97 == 5) x = (i % 2 == 0 ? 3.0 : -3.0) * denorm;
        if (!narrow && i % 89 == 7) x = 0.0;
        xs.push_back(x);
      }
      std::vector<double> want = xs;
      std::sort(want.begin(), want.end());
      // The reference moments: Welford over std::sort's order.
      double mean = 0.0, m2 = 0.0;
      for (std::size_t i = 0; i < want.size(); ++i) {
        const double d = want[i] - mean;
        mean += d / static_cast<double>(i + 1);
        m2 += d * (want[i] - mean);
      }
      const EmpiricalDistribution ref =
          EmpiricalDistribution::from_sorted(want, mean, m2);
      const EmpiricalDistribution got(std::move(xs));
      EXPECT_TRUE(same_bits(got.sorted_samples(), want));
      EXPECT_TRUE(same_bits(got.mean(), ref.mean()));
      EXPECT_TRUE(same_bits(got.stddev(), ref.stddev()));
    }
  }
  // n = 0 is rejected, as before.
  EXPECT_THROW(EmpiricalDistribution(std::vector<double>{}),
               std::invalid_argument);
  // Signed zeros, which std::sort leaves in either order: -0.0 first.
  for (const std::size_t n : {std::size_t{4}, std::size_t{600}}) {
    std::vector<double> zeros;
    for (std::size_t i = 0; i < n; ++i) {
      zeros.push_back(i % 2 == 0 ? 0.0 : -0.0);
    }
    const EmpiricalDistribution d(std::move(zeros));
    EXPECT_TRUE(std::signbit(d.sorted_samples().front()));
    EXPECT_TRUE(std::signbit(d.sorted_samples()[n / 2 - 1]));
    EXPECT_FALSE(std::signbit(d.sorted_samples()[n / 2]));
  }
}

TEST(Empirical, RejectsNaNSamples) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // Short rows (std::sort) and long ones (radix), NaN first, inside, last.
  for (const std::size_t n : {std::size_t{1}, std::size_t{3},
                              std::size_t{700}}) {
    for (const std::size_t at : {std::size_t{0}, n / 2, n - 1}) {
      std::vector<double> xs(n, 1.5);
      xs[at] = at % 2 == 0 ? nan : -nan;
      EXPECT_THROW(EmpiricalDistribution(std::move(xs)), std::invalid_argument)
          << n << " samples, NaN at " << at;
    }
  }
}

// ------------------------------------------------------------ histogram --
TEST(Histogram, CountsBucketsAndOverflow) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);
  h.add(9.99);
  h.add(-1.0);
  h.add(10.0);
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.bin_count(0), 1u);
  EXPECT_EQ(h.bin_count(9), 1u);
}

TEST(Histogram, BinEdges) {
  Histogram h(0.0, 10.0, 5);
  EXPECT_DOUBLE_EQ(h.bin_lo(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(0), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_lo(4), 8.0);
}

TEST(Histogram, InvalidConstructionThrows) {
  EXPECT_THROW(Histogram(1.0, 1.0, 10), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
}

TEST(Histogram, RenderContainsBars) {
  Histogram h(0.0, 2.0, 2);
  h.add_n(0.5, 10);
  const std::string out = h.render(10);
  EXPECT_NE(out.find("##########"), std::string::npos);
}

TEST(HistogramMerge, CountsAdd) {
  Histogram a(0.0, 10.0, 10), b(0.0, 10.0, 10);
  a.add(0.5);
  a.add(-1.0);
  b.add(0.7);
  b.add(12.0);
  b.add(9.5);
  a.merge(b);
  EXPECT_EQ(a.total(), 5u);
  EXPECT_EQ(a.bin_count(0), 2u);
  EXPECT_EQ(a.bin_count(9), 1u);
  EXPECT_EQ(a.underflow(), 1u);
  EXPECT_EQ(a.overflow(), 1u);
}

TEST(HistogramMerge, CommutativeAndAssociative) {
  const auto filled = [](std::initializer_list<double> xs) {
    Histogram h(0.0, 5.0, 5);
    for (double x : xs) h.add(x);
    return h;
  };
  const auto equal = [](const Histogram& x, const Histogram& y) {
    if (x.total() != y.total() || x.underflow() != y.underflow() ||
        x.overflow() != y.overflow()) {
      return false;
    }
    for (std::size_t i = 0; i < x.bins(); ++i) {
      if (x.bin_count(i) != y.bin_count(i)) return false;
    }
    return true;
  };
  Histogram ab = filled({0.5, 1.5});
  ab.merge(filled({2.5}));
  Histogram ba = filled({2.5});
  ba.merge(filled({0.5, 1.5}));
  EXPECT_TRUE(equal(ab, ba));

  Histogram left = filled({0.5});
  left.merge(filled({1.5}));
  left.merge(filled({2.5}));
  Histogram inner = filled({1.5});
  inner.merge(filled({2.5}));
  Histogram right = filled({0.5});
  right.merge(inner);
  EXPECT_TRUE(equal(left, right));
}

TEST(HistogramMerge, LayoutMismatchThrows) {
  Histogram a(0.0, 10.0, 10);
  EXPECT_THROW(a.merge(Histogram(0.0, 10.0, 5)), std::invalid_argument);
  EXPECT_THROW(a.merge(Histogram(0.0, 9.0, 10)), std::invalid_argument);
  EXPECT_THROW(a.merge(Histogram(1.0, 10.0, 10)), std::invalid_argument);
}

// -------------------------------------------------------------- summary --
TEST(Summary, WelfordMatchesDirect) {
  Summary s;
  const std::vector<double> xs{1, 2, 3, 4, 5, 6};
  for (double x : xs) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_NEAR(s.variance(), 3.5, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 6.0);
  EXPECT_DOUBLE_EQ(s.sum(), 21.0);
}

TEST(Summary, MergeEqualsSinglePass) {
  Summary a, b, whole;
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal();
    whole.add(x);
    (i < 400 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_NEAR(a.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), whole.variance(), 1e-9);
}

TEST(Summary, MergeWithEmpty) {
  Summary a, empty;
  a.add(1.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 1u);
}

// -------------------------------------------------------- distributions --
TEST(InverseNormal, KnownValues) {
  EXPECT_NEAR(inverse_normal_cdf(0.5), 0.0, 1e-8);
  EXPECT_NEAR(inverse_normal_cdf(0.975), 1.959964, 1e-4);
  EXPECT_NEAR(inverse_normal_cdf(0.99), 2.326348, 1e-4);
  EXPECT_NEAR(inverse_normal_cdf(0.01), -2.326348, 1e-4);
}

TEST(InverseNormal, RejectsBoundary) {
  EXPECT_THROW(inverse_normal_cdf(0.0), std::invalid_argument);
  EXPECT_THROW(inverse_normal_cdf(1.0), std::invalid_argument);
}

TEST(LogNormal, QuantileMatchesSamples) {
  const LogNormal d(2.0, 0.4);
  Rng rng(77);
  std::vector<double> xs;
  for (int i = 0; i < 40000; ++i) xs.push_back(d.sample(rng));
  std::sort(xs.begin(), xs.end());
  EXPECT_NEAR(percentile_sorted(xs, 50.0), d.quantile(0.5), 0.05);
  EXPECT_NEAR(percentile_sorted(xs, 99.0), d.quantile(0.99),
              d.quantile(0.99) * 0.05);
}

TEST(LogNormal, SigmaForRatioInverts) {
  const double sigma = LogNormal::sigma_for_p99_over_p50(2.17);
  const LogNormal d(1.0, sigma);
  EXPECT_NEAR(d.quantile(0.99) / d.quantile(0.5), 2.17, 1e-9);
}

TEST(LogNormal, ZeroSigmaIsDegenerate) {
  const LogNormal d(3.0, 0.0);
  EXPECT_DOUBLE_EQ(d.quantile(0.01), 3.0);
  EXPECT_DOUBLE_EQ(d.quantile(0.99), 3.0);
}

TEST(LogNormal, RejectsBadParams) {
  EXPECT_THROW(LogNormal(0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(LogNormal(1.0, -0.1), std::invalid_argument);
  EXPECT_THROW(LogNormal::sigma_for_p99_over_p50(0.9), std::invalid_argument);
}

TEST(BoundedPareto, SamplesWithinBounds) {
  const BoundedPareto d(1.0, 100.0, 1.2);
  Rng rng(9);
  for (int i = 0; i < 5000; ++i) {
    const double x = d.sample(rng);
    EXPECT_GE(x, 1.0);
    EXPECT_LE(x, 100.0);
  }
}

TEST(BoundedPareto, QuantileEndpoints) {
  const BoundedPareto d(2.0, 50.0, 1.5);
  EXPECT_NEAR(d.quantile(0.0), 2.0, 1e-9);
  EXPECT_NEAR(d.quantile(1.0), 50.0, 1e-6);
}

TEST(BoundedPareto, HeavyTailSkew) {
  const BoundedPareto d(1.0, 1000.0, 1.1);
  // Median far below midpoint for a heavy tail.
  EXPECT_LT(d.quantile(0.5), 10.0);
}

TEST(Zipf, ProbabilitiesDecreaseAndSumToOne) {
  const Zipf z(100, 1.1);
  double total = 0.0, prev = 1.0;
  for (std::size_t r = 0; r < 100; ++r) {
    const double p = z.probability(r);
    EXPECT_LE(p, prev + 1e-12);
    prev = p;
    total += p;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Zipf, RankZeroMostFrequent) {
  const Zipf z(50, 1.2);
  Rng rng(21);
  std::vector<int> counts(50, 0);
  for (int i = 0; i < 20000; ++i) ++counts[z.sample(rng)];
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[0], counts[49]);
}

}  // namespace
}  // namespace janus
