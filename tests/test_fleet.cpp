// Tests for src/fleet: arrival processes, the autoscaling cluster node
// pool, the epoch control plane, and the sharded multi-tenant fleet
// runner's determinism + aggregation contracts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "fleet/arrivals.hpp"
#include "fleet/cluster.hpp"
#include "fleet/control.hpp"
#include "fleet/fleet.hpp"
#include "fleet/policies.hpp"
#include "model/trace_synth.hpp"
#include "model/workloads.hpp"
#include "sim/engine.hpp"

namespace janus {
namespace {

// ------------------------------------------------------------- arrivals --
std::vector<Seconds> arrival_times(const ArrivalSpec& spec, int count,
                                   std::uint64_t seed) {
  auto process = make_arrivals(spec);
  Rng rng(seed);
  std::vector<Seconds> times;
  Seconds t = 0.0;
  for (int i = 0; i < count; ++i) {
    t = process->next(t, rng);
    times.push_back(t);
  }
  return times;
}

TEST(Arrivals, PoissonMeanRateConverges) {
  ArrivalSpec spec;
  spec.rate = 25.0;
  const auto times = arrival_times(spec, 20000, 7);
  const double observed = 20000.0 / times.back();
  EXPECT_NEAR(observed, 25.0, 25.0 * 0.05);
}

TEST(Arrivals, SequencesAreMonotoneAndDeterministic) {
  for (const ArrivalKind kind :
       {ArrivalKind::Poisson, ArrivalKind::Mmpp, ArrivalKind::Diurnal}) {
    ArrivalSpec spec;
    spec.kind = kind;
    spec.rate = 10.0;
    spec.burst_rate = 40.0;
    const auto a = arrival_times(spec, 2000, 42);
    const auto b = arrival_times(spec, 2000, 42);
    EXPECT_EQ(a, b) << to_string(kind);
    for (std::size_t i = 1; i < a.size(); ++i) {
      ASSERT_GT(a[i], a[i - 1]) << to_string(kind);
    }
    EXPECT_NE(a, arrival_times(spec, 2000, 43)) << to_string(kind);
  }
}

TEST(Arrivals, MmppMeanRateBetweenBaseAndBurst) {
  ArrivalSpec spec;
  spec.kind = ArrivalKind::Mmpp;
  spec.rate = 10.0;
  spec.burst_rate = 60.0;
  spec.base_dwell_s = 20.0;
  spec.burst_dwell_s = 4.0;
  const auto times = arrival_times(spec, 40000, 3);
  const double observed = 40000.0 / times.back();
  EXPECT_GT(observed, 10.0);
  EXPECT_LT(observed, 60.0);
  // Stationary mean: (10*20 + 60*4) / 24 = 18.33...; the estimator only
  // sees ~90 dwell cycles, so give it CLT headroom.
  EXPECT_NEAR(observed, spec.mean_rate(), spec.mean_rate() * 0.25);
}

TEST(Arrivals, MmppIsBurstier) {
  // Squared coefficient of variation of interarrivals: 1 for Poisson,
  // > 1 for a bursty MMPP at the same mean rate.
  const auto cv2 = [](const std::vector<Seconds>& times) {
    std::vector<double> gaps;
    for (std::size_t i = 1; i < times.size(); ++i) {
      gaps.push_back(times[i] - times[i - 1]);
    }
    double mean = 0.0;
    for (double g : gaps) mean += g;
    mean /= static_cast<double>(gaps.size());
    double var = 0.0;
    for (double g : gaps) var += (g - mean) * (g - mean);
    var /= static_cast<double>(gaps.size() - 1);
    return var / (mean * mean);
  };
  ArrivalSpec poisson;
  poisson.rate = 20.0;
  ArrivalSpec mmpp;
  mmpp.kind = ArrivalKind::Mmpp;
  mmpp.rate = 5.0;
  mmpp.burst_rate = 80.0;
  mmpp.base_dwell_s = 10.0;
  mmpp.burst_dwell_s = 2.0;
  EXPECT_NEAR(cv2(arrival_times(poisson, 30000, 9)), 1.0, 0.15);
  EXPECT_GT(cv2(arrival_times(mmpp, 30000, 9)), 1.5);
}

TEST(Arrivals, DiurnalTracksRateCurve) {
  ArrivalSpec spec;
  spec.kind = ArrivalKind::Diurnal;
  spec.rate = 20.0;
  spec.period_s = 100.0;
  spec.amplitude = 0.9;
  const auto times = arrival_times(spec, 40000, 5);
  // Count arrivals in the rising half vs the falling half of each period:
  // sin > 0 on [0, T/2), < 0 on [T/2, T).
  std::size_t high = 0, low = 0;
  for (Seconds t : times) {
    const double phase = std::fmod(t, spec.period_s) / spec.period_s;
    (phase < 0.5 ? high : low) += 1;
  }
  EXPECT_GT(static_cast<double>(high),
            1.5 * static_cast<double>(low));  // peak half dominates
  // Long-run mean still ~rate.
  EXPECT_NEAR(40000.0 / times.back(), 20.0, 20.0 * 0.10);
}

TEST(Arrivals, TraceReplaysAndLoopsDeterministically) {
  ArrivalSpec spec;
  spec.kind = ArrivalKind::Trace;
  spec.trace_gaps = {1.0, 2.0, 3.0};
  auto process = make_arrivals(spec);
  Rng rng(1);
  std::vector<Seconds> times;
  Seconds t = 0.0;
  for (int i = 0; i < 7; ++i) times.push_back(t = process->next(t, rng));
  // The 3-gap trace loops: 1,2,3 | 1,2,3 | 1 ...
  const std::vector<Seconds> expected = {1.0, 3.0, 6.0, 7.0, 9.0, 12.0, 13.0};
  EXPECT_EQ(times, expected);
  // The trace defines its own rate: 3 arrivals per 6 seconds.
  EXPECT_DOUBLE_EQ(spec.mean_rate(), 0.5);
  EXPECT_EQ(process->kind(), ArrivalKind::Trace);
  EXPECT_EQ(arrival_kind_from_string("trace"), ArrivalKind::Trace);
}

TEST(Arrivals, TraceValidation) {
  ArrivalSpec empty;
  empty.kind = ArrivalKind::Trace;
  EXPECT_THROW(make_arrivals(empty), std::invalid_argument);
  ArrivalSpec zero;
  zero.kind = ArrivalKind::Trace;
  zero.trace_gaps = {0.5, 0.0};
  EXPECT_THROW(make_arrivals(zero), std::invalid_argument);
  ArrivalSpec negative;
  negative.kind = ArrivalKind::Trace;
  negative.trace_gaps = {0.5, -1.0};
  EXPECT_THROW(make_arrivals(negative), std::invalid_argument);
}

TEST(Arrivals, SynthesizedInterarrivalTrace) {
  const auto gaps = synthesize_interarrivals(5000, 25.0, 42);
  ASSERT_EQ(gaps.size(), 5000u);
  double total = 0.0;
  for (double gap : gaps) {
    ASSERT_GT(gap, 0.0);
    total += gap;
  }
  // Rescaling makes the loop's long-run rate exact, not approximate.
  EXPECT_NEAR(5000.0 / total, 25.0, 1e-9);
  EXPECT_EQ(gaps, synthesize_interarrivals(5000, 25.0, 42));
  EXPECT_NE(gaps, synthesize_interarrivals(5000, 25.0, 43));
  // Heavier-tailed than exponential: max gap far above the mean.
  const double max_gap = *std::max_element(gaps.begin(), gaps.end());
  EXPECT_GT(max_gap, 10.0 / 25.0);
  EXPECT_THROW(synthesize_interarrivals(0, 25.0, 1), std::invalid_argument);
  EXPECT_THROW(synthesize_interarrivals(10, 0.0, 1), std::invalid_argument);
}

TEST(Arrivals, SpecValidation) {
  ArrivalSpec bad;
  bad.rate = 0.0;
  EXPECT_THROW(make_arrivals(bad), std::invalid_argument);
  ArrivalSpec mmpp;
  mmpp.kind = ArrivalKind::Mmpp;
  mmpp.rate = 10.0;
  mmpp.burst_rate = 5.0;  // below base
  EXPECT_THROW(make_arrivals(mmpp), std::invalid_argument);
  ArrivalSpec diurnal;
  diurnal.kind = ArrivalKind::Diurnal;
  diurnal.amplitude = 1.5;
  EXPECT_THROW(make_arrivals(diurnal), std::invalid_argument);
  EXPECT_EQ(arrival_kind_from_string("mmpp"), ArrivalKind::Mmpp);
  EXPECT_THROW(arrival_kind_from_string("pareto"), std::invalid_argument);
}

TEST(Arrivals, FlashCrowdMultipliesRateInsideWindow) {
  ArrivalSpec spec;
  spec.rate = 20.0;
  spec.flash_k = 5.0;
  spec.flash_t0_s = 50.0;
  spec.flash_t1_s = 100.0;
  const auto times = arrival_times(spec, 30000, 11);
  int inside = 0;
  for (Seconds t : times) {
    if (t >= 50.0 && t < 100.0) ++inside;
  }
  // 50 s at 20/s x 5 = ~5000 arrivals inside the window.
  EXPECT_NEAR(inside, 5000, 5000 * 0.10);
  // The plan stays blind: mean_rate() excludes the window by design.
  EXPECT_DOUBLE_EQ(spec.mean_rate(), 20.0);
}

TEST(Arrivals, FlashComposesWithEveryKindMonotoneDeterministic) {
  for (const ArrivalKind kind :
       {ArrivalKind::Poisson, ArrivalKind::Mmpp, ArrivalKind::Diurnal,
        ArrivalKind::Trace}) {
    ArrivalSpec spec;
    spec.kind = kind;
    spec.rate = 10.0;
    spec.burst_rate = 40.0;
    if (kind == ArrivalKind::Trace) spec.trace_gaps = {0.05, 0.2, 0.11};
    spec.flash_k = 8.0;
    spec.flash_t0_s = 5.0;
    spec.flash_t1_s = 9.0;
    const auto a = arrival_times(spec, 3000, 42);
    EXPECT_EQ(a, arrival_times(spec, 3000, 42)) << to_string(kind);
    for (std::size_t i = 1; i < a.size(); ++i) {
      ASSERT_GT(a[i], a[i - 1]) << to_string(kind);
    }
    // The warp is the identity before t0: the pre-window prefix matches
    // the base process exactly.
    ArrivalSpec base = spec;
    base.flash_k = 1.0;
    const auto b = arrival_times(base, 3000, 42);
    for (std::size_t i = 0; i < a.size() && a[i] < 5.0; ++i) {
      ASSERT_DOUBLE_EQ(a[i], b[i]) << to_string(kind);
    }
  }
}

TEST(Arrivals, FlashSpecValidation) {
  ArrivalSpec spec;
  spec.flash_k = 0.0;
  EXPECT_THROW(make_arrivals(spec), std::invalid_argument);
  spec.flash_k = -2.0;
  EXPECT_THROW(make_arrivals(spec), std::invalid_argument);
  spec.flash_k = 3.0;  // window required once armed
  spec.flash_t0_s = 10.0;
  spec.flash_t1_s = 10.0;
  EXPECT_THROW(make_arrivals(spec), std::invalid_argument);
  spec.flash_t1_s = 20.0;
  EXPECT_NO_THROW(make_arrivals(spec));
  // K < 1 is a brown-out, equally legal.
  spec.flash_k = 0.25;
  EXPECT_NO_THROW(make_arrivals(spec));
}

// -------------------------------------------------------------- cluster --
TEST(Cluster, PacksGroupOntoOneNodeWhenItFits) {
  ClusterCapacity cluster({4, 10000});
  const auto placed = cluster.place_group(5, 2000);
  ASSERT_EQ(placed.size(), 5u);
  for (int node : placed) EXPECT_EQ(node, placed[0]);
  EXPECT_DOUBLE_EQ(ClusterCapacity::mean_coresidency(placed), 5.0);
  EXPECT_EQ(cluster.used_mc(placed[0]), 10000);
}

TEST(Cluster, SpillsToSecondNodeAtCapacity) {
  ClusterCapacity cluster({4, 10000});
  const auto placed = cluster.place_group(7, 2000);
  // 5 pods fill a node, 2 spill: coresidency (5*5 + 2*2) / 7.
  EXPECT_NEAR(ClusterCapacity::mean_coresidency(placed), 29.0 / 7.0, 1e-12);
  EXPECT_EQ(cluster.overcommitted_pods(), 0);
}

TEST(Cluster, SeparateGroupsAvoidEachOther) {
  ClusterCapacity cluster({4, 10000});
  const auto a = cluster.place_group(2, 3000);
  const auto b = cluster.place_group(2, 3000);
  // Group b fits on an empty node, so it does not share with group a.
  EXPECT_NE(a[0], b[0]);
}

TEST(Cluster, OvercommitsLeastUsedNodeWhenSaturated) {
  ClusterCapacity cluster({2, 4000});
  cluster.place_group(2, 4000);  // both nodes full
  const auto placed = cluster.place_group(1, 4000);
  ASSERT_EQ(placed.size(), 1u);
  EXPECT_EQ(cluster.overcommitted_pods(), 1);
  EXPECT_GT(cluster.utilization(), 1.0);
}

TEST(Cluster, ValidationAndAccessors) {
  EXPECT_THROW(ClusterCapacity({0, 1000}), std::invalid_argument);
  EXPECT_THROW(ClusterCapacity({2, 0}), std::invalid_argument);
  ClusterCapacity cluster({2, 1000});
  EXPECT_THROW(cluster.place_group(1, 0), std::invalid_argument);
  EXPECT_THROW(cluster.used_mc(9), std::invalid_argument);
  EXPECT_DOUBLE_EQ(cluster.utilization(), 0.0);
}

TEST(Cluster, EmptyPlacementsAreWellDefined) {
  // Regression: an empty assignment has no co-resident pods (0, not the
  // old 1.0), and zero-pod placements are legal — callers no longer have
  // to special-case idle stages.
  EXPECT_DOUBLE_EQ(ClusterCapacity::mean_coresidency({}), 0.0);
  ClusterCapacity cluster({2, 1000});
  EXPECT_TRUE(cluster.place_group(0, 500).empty());
  // A zero-pod group does not even need a pod size.
  EXPECT_TRUE(cluster.place_group(0, 0).empty());
  EXPECT_DOUBLE_EQ(cluster.utilization(), 0.0);
  EXPECT_EQ(cluster.overcommitted_pods(), 0);
  // ...but growing a sizeless group later is an error, not a free lunch.
  const int group = cluster.add_group(0, 0);
  EXPECT_THROW(cluster.resize_group(group, 2), std::invalid_argument);
}

TEST(Cluster, FailNodeRepacksDisplacedPods) {
  ClusterCapacity cluster({3, 10000});
  const int a = cluster.add_group(5, 2000);  // fills node 0
  const int b = cluster.add_group(2, 3000);  // node 1
  const int victim = cluster.assignment(a)[0];
  const auto out = cluster.fail_node(victim);
  EXPECT_EQ(out.displaced, 5);
  EXPECT_EQ(out.stranded, 0);
  EXPECT_EQ(cluster.nodes(), 2);
  EXPECT_EQ(cluster.stranded_pods(), 0);
  // All five pods survived the failure; the surviving assignments were
  // renumbered, so every index is a valid node again.
  ASSERT_EQ(cluster.assignment(a).size(), 5u);
  for (int node : cluster.assignment(a)) {
    ASSERT_GE(node, 0);
    ASSERT_LT(node, 2);
  }
  ASSERT_EQ(cluster.assignment(b).size(), 2u);
  // Same call sequence, same outcome: determinism of the re-pack.
  ClusterCapacity replay({3, 10000});
  const int ra = replay.add_group(5, 2000);
  replay.add_group(2, 3000);
  replay.fail_node(victim);
  EXPECT_EQ(replay.assignment(ra), cluster.assignment(a));
}

TEST(Cluster, FailNodeWithOnlyZeroPodGroupsIsPlainRetirement) {
  ClusterCapacity cluster({2, 1000});
  cluster.add_group(0, 0);  // group exists, hosts nothing anywhere
  const auto out = cluster.fail_node(1);
  EXPECT_EQ(out.displaced, 0);
  EXPECT_EQ(out.stranded, 0);
  EXPECT_EQ(cluster.nodes(), 1);
  EXPECT_EQ(cluster.stranded_pods(), 0);
}

TEST(Cluster, FailLastNodeStrandsInsteadOfAsserting) {
  ClusterCapacity cluster({1, 10000});
  const int group = cluster.add_group(3, 2000);
  const auto out = cluster.fail_node(0);
  EXPECT_EQ(out.displaced, 0);  // nowhere to re-pack
  EXPECT_EQ(out.stranded, 3);
  EXPECT_EQ(cluster.nodes(), 0);
  EXPECT_EQ(cluster.stranded_pods(), 3);
  EXPECT_TRUE(cluster.assignment(group).empty());
  // Utilization of a nodeless cluster is defined (0), not a divide-by-zero.
  EXPECT_DOUBLE_EQ(cluster.utilization(), 0.0);
  // Growing a group with no nodes left strands the new pods too.
  cluster.resize_group(group, 2);
  EXPECT_TRUE(cluster.assignment(group).empty());
  EXPECT_EQ(cluster.stranded_pods(), 5);
  EXPECT_THROW(cluster.fail_node(0), std::invalid_argument);
}

TEST(Cluster, ResizeGroupGrowsAndShrinks) {
  ClusterCapacity cluster({4, 10000});
  const int group = cluster.add_group(5, 2000);  // exactly one full node
  EXPECT_DOUBLE_EQ(cluster.group_coresidency(group), 5.0);
  cluster.resize_group(group, 7);  // two pods spill to a second node
  EXPECT_NEAR(cluster.group_coresidency(group), 29.0 / 7.0, 1e-12);
  cluster.resize_group(group, 5);  // spills unwind before the packed core
  EXPECT_DOUBLE_EQ(cluster.group_coresidency(group), 5.0);
  EXPECT_EQ(cluster.used_mc(cluster.assignment(group)[0]), 10000);
  cluster.resize_group(group, 0);
  EXPECT_TRUE(cluster.assignment(group).empty());
  EXPECT_DOUBLE_EQ(cluster.utilization(), 0.0);
  cluster.resize_group(group, 3);  // regrow from empty
  EXPECT_DOUBLE_EQ(cluster.group_coresidency(group), 3.0);
}

TEST(Cluster, AutoscaleOrdersNodesWithLatency) {
  ClusterCapacity cluster({2, 10000});
  cluster.add_group(9, 2000);  // 18000 / 20000 = 90% allocated
  AutoscaleConfig cfg;
  cfg.enabled = true;
  cfg.scale_out_latency_epochs = 2;
  cfg.max_step_nodes = 8;
  // Step 1: over the band -> order the deficit (want ceil(18/7) = 3 nodes).
  ClusterCapacity::ScaleEvent ev = cluster.autoscale_step(cfg);
  EXPECT_EQ(ev.ordered, 1);
  EXPECT_EQ(ev.added, 0);
  EXPECT_EQ(cluster.nodes(), 2);
  EXPECT_EQ(cluster.pending_nodes(), 1);
  // Step 2: order still in flight; the pending node stops a double-buy.
  ev = cluster.autoscale_step(cfg);
  EXPECT_EQ(ev.ordered, 0);
  EXPECT_EQ(ev.added, 0);
  // Step 3: the order matures — scale-out latency paid in full.
  ev = cluster.autoscale_step(cfg);
  EXPECT_EQ(ev.added, 1);
  EXPECT_EQ(cluster.nodes(), 3);
  EXPECT_EQ(cluster.pending_nodes(), 0);
}

TEST(Cluster, AutoscaleZeroLatencyAddsImmediately) {
  ClusterCapacity cluster({1, 10000});
  cluster.add_group(4, 2000);  // 80%
  AutoscaleConfig cfg;
  cfg.enabled = true;
  cfg.scale_out_latency_epochs = 0;
  const auto ev = cluster.autoscale_step(cfg);
  EXPECT_EQ(ev.ordered, 0);
  EXPECT_EQ(ev.added, 1);
  EXPECT_EQ(cluster.nodes(), 2);
}

TEST(Cluster, ScaleInRepacksDisplacedGroupsDeterministically) {
  const auto run_once = [] {
    ClusterCapacity cluster({4, 10000});
    std::vector<int> groups;
    for (int g = 0; g < 4; ++g) groups.push_back(cluster.add_group(1, 1000));
    AutoscaleConfig cfg;
    cfg.enabled = true;  // 4000 / 40000 = 10% -> deep below the band
    const auto ev = cluster.autoscale_step(cfg);
    std::vector<std::vector<int>> assignments;
    for (int g : groups) assignments.push_back(cluster.assignment(g));
    return std::make_tuple(ev.removed, ev.displaced_pods, cluster.nodes(),
                           assignments);
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a, b);  // deterministic: same victims, same repacking
  EXPECT_GT(std::get<0>(a), 0);
  EXPECT_GT(std::get<1>(a), 0);  // occupied nodes went away -> pods moved
  // Every group still has its pod, on a surviving node.
  for (const auto& assignment : std::get<3>(a)) {
    ASSERT_EQ(assignment.size(), 1u);
    EXPECT_LT(assignment[0], std::get<2>(a));
    EXPECT_GE(assignment[0], 0);
  }
  // Scale-in respects the floor and the utilization band.
  EXPECT_GE(std::get<2>(a), 1);
}

/// ClusterCapacity's packing before pack_pods and release_pods reused a
/// scratch buffer and the overcommit scan became a min over keys: the old
/// pack_pods, release_pods and remove_one_node verbatim, inside just
/// enough of the pool to replay add_group, resize_group, fail_node and
/// autoscale_step.  The oracle for Cluster.PackingMatchesReference.
class ReferenceCluster {
 public:
  explicit ReferenceCluster(ClusterConfig config) : config_(config) {
    used_.assign(static_cast<std::size_t>(config.nodes), 0);
  }

  int nodes() const { return static_cast<int>(used_.size()); }
  Millicores used_mc(int node) const {
    return used_[static_cast<std::size_t>(node)];
  }
  int group_count() const { return static_cast<int>(groups_.size()); }
  const std::vector<int>& assignment(int group) const {
    return groups_[static_cast<std::size_t>(group)].nodes;
  }
  int overcommitted_pods() const { return overcommitted_; }
  int stranded_pods() const { return stranded_; }

  int add_group(int count, Millicores pod_mc) {
    Group group;
    group.pod_mc = pod_mc;
    groups_.push_back(std::move(group));
    pack_pods(groups_.back(), count);
    return static_cast<int>(groups_.size()) - 1;
  }

  void resize_group(int group, int count) {
    Group& g = groups_[static_cast<std::size_t>(group)];
    const int current = static_cast<int>(g.nodes.size());
    if (count > current) {
      pack_pods(g, count - current);
    } else if (count < current) {
      release_pods(g, current - count);
    }
  }

  ClusterCapacity::RemoveOutcome fail_node(int victim) {
    std::vector<int> displaced(groups_.size(), 0);
    for (std::size_t g = 0; g < groups_.size(); ++g) {
      Group& group = groups_[g];
      for (std::size_t i = group.nodes.size(); i > 0; --i) {
        if (group.nodes[i - 1] == victim) {
          group.nodes.erase(group.nodes.begin() +
                            static_cast<std::ptrdiff_t>(i - 1));
          used_[static_cast<std::size_t>(victim)] -= group.pod_mc;
          ++displaced[g];
        }
      }
    }
    used_.erase(used_.begin() + victim);
    for (Group& group : groups_) {
      for (int& n : group.nodes) {
        if (n > victim) --n;
      }
    }
    ClusterCapacity::RemoveOutcome out;
    for (std::size_t g = 0; g < groups_.size(); ++g) {
      if (displaced[g] == 0) continue;
      const int placed = pack_pods(groups_[g], displaced[g]);
      out.displaced += placed;
      out.stranded += displaced[g] - placed;
    }
    return out;
  }

  ClusterCapacity::ScaleEvent autoscale_step(const AutoscaleConfig& cfg) {
    ClusterCapacity::ScaleEvent event;
    for (auto& order : orders_) --order.first;
    for (std::size_t i = 0; i < orders_.size();) {
      if (orders_[i].first <= 0) {
        used_.insert(used_.end(), static_cast<std::size_t>(orders_[i].second),
                     0);
        event.added += orders_[i].second;
        orders_.erase(orders_.begin() + static_cast<std::ptrdiff_t>(i));
      } else {
        ++i;
      }
    }
    if (!cfg.enabled) return event;
    const double u = utilization();
    int pending = 0;
    for (const auto& order : orders_) pending += order.second;
    const int total = nodes() + pending;
    if (u > cfg.scale_out_utilization && total < cfg.max_nodes) {
      double used_total = 0.0;
      for (Millicores m : used_) used_total += static_cast<double>(m);
      const int want = static_cast<int>(std::ceil(
          used_total / (cfg.scale_out_utilization *
                        static_cast<double>(config_.node_capacity_mc))));
      const int deficit =
          std::min({want - total, cfg.max_step_nodes, cfg.max_nodes - total});
      if (deficit > 0) {
        if (cfg.scale_out_latency_epochs <= 0) {
          used_.insert(used_.end(), static_cast<std::size_t>(deficit), 0);
          event.added += deficit;
        } else {
          orders_.emplace_back(cfg.scale_out_latency_epochs, deficit);
          event.ordered = deficit;
        }
      }
    } else if (u < cfg.scale_in_utilization) {
      while (event.removed < cfg.max_step_nodes && nodes() > cfg.min_nodes &&
             utilization() < cfg.scale_in_utilization) {
        event.displaced_pods += remove_one_node();
        ++event.removed;
      }
    }
    return event;
  }

 private:
  struct Group {
    Millicores pod_mc = 0;
    std::vector<int> nodes;
  };

  double utilization() const {
    if (used_.empty()) return 0.0;
    double total = 0.0;
    for (Millicores u : used_) total += static_cast<double>(u);
    return total / (static_cast<double>(config_.node_capacity_mc) *
                    static_cast<double>(used_.size()));
  }

  // ---- Verbatim from the pre-scratch ClusterCapacity (logging dropped).
  int pack_pods(Group& group, int count) {
    if (count > 0 && used_.empty()) {
      stranded_ += count;
      return 0;
    }
    const Millicores pod_mc = group.pod_mc;
    std::vector<int> per_node(used_.size(), 0);
    for (int n : group.nodes) ++per_node[static_cast<std::size_t>(n)];
    for (int p = 0; p < count; ++p) {
      int best = -1;
      for (std::size_t n = 0; n < used_.size(); ++n) {
        if (used_[n] + pod_mc > config_.node_capacity_mc) continue;
        if (best < 0 ||
            per_node[n] > per_node[static_cast<std::size_t>(best)] ||
            (per_node[n] == per_node[static_cast<std::size_t>(best)] &&
             used_[n] < used_[static_cast<std::size_t>(best)])) {
          best = static_cast<int>(n);
        }
      }
      if (best < 0) {
        best = 0;
        for (std::size_t n = 1; n < used_.size(); ++n) {
          if (used_[n] < used_[static_cast<std::size_t>(best)]) {
            best = static_cast<int>(n);
          }
        }
        ++overcommitted_;
      }
      used_[static_cast<std::size_t>(best)] += pod_mc;
      ++per_node[static_cast<std::size_t>(best)];
      group.nodes.push_back(best);
    }
    return count;
  }

  void release_pods(Group& group, int count) {
    std::vector<int> per_node(used_.size(), 0);
    for (int n : group.nodes) ++per_node[static_cast<std::size_t>(n)];
    for (int p = 0; p < count; ++p) {
      int victim = -1;
      for (std::size_t n = 0; n < used_.size(); ++n) {
        if (per_node[n] == 0) continue;
        if (victim < 0 ||
            per_node[n] <= per_node[static_cast<std::size_t>(victim)]) {
          victim = static_cast<int>(n);
        }
      }
      require(victim >= 0, "release_pods: group has no pods left");
      used_[static_cast<std::size_t>(victim)] -= group.pod_mc;
      --per_node[static_cast<std::size_t>(victim)];
      for (std::size_t i = group.nodes.size(); i > 0; --i) {
        if (group.nodes[i - 1] == victim) {
          group.nodes.erase(group.nodes.begin() +
                            static_cast<std::ptrdiff_t>(i - 1));
          break;
        }
      }
    }
  }

  int remove_one_node() {
    int victim = 0;
    for (std::size_t n = 1; n < used_.size(); ++n) {
      if (used_[n] <= used_[static_cast<std::size_t>(victim)]) {
        victim = static_cast<int>(n);
      }
    }
    const ClusterCapacity::RemoveOutcome out = fail_node(victim);
    return out.displaced + out.stranded;
  }
  // ---- End of the verbatim copy.

  ClusterConfig config_;
  std::vector<Millicores> used_;
  std::vector<Group> groups_;
  std::vector<std::pair<int, int>> orders_;
  int overcommitted_ = 0;
  int stranded_ = 0;
};

/// Asserts that `cluster` and the reference agree on every placement and
/// tally, and that the co-residency read matches the reference placement.
void expect_same_packing(const ClusterCapacity& cluster,
                         const ReferenceCluster& ref, const std::string& at) {
  ASSERT_EQ(cluster.nodes(), ref.nodes()) << at;
  for (int n = 0; n < ref.nodes(); ++n) {
    ASSERT_EQ(cluster.used_mc(n), ref.used_mc(n)) << at << ", node " << n;
  }
  ASSERT_EQ(cluster.group_count(), ref.group_count()) << at;
  for (int g = 0; g < ref.group_count(); ++g) {
    ASSERT_EQ(cluster.assignment(g), ref.assignment(g)) << at << ", group "
                                                        << g;
    ASSERT_EQ(cluster.group_coresidency(g),
              ClusterCapacity::mean_coresidency(ref.assignment(g)))
        << at << ", group " << g;
  }
  ASSERT_EQ(cluster.overcommitted_pods(), ref.overcommitted_pods()) << at;
  ASSERT_EQ(cluster.stranded_pods(), ref.stranded_pods()) << at;
}

TEST(Cluster, PackingMatchesReference) {
  // Small nodes and mixed pod sizes: sequences cross from roomy packing
  // into saturation (overcommit), shrink groups, fail nodes down to an
  // empty pool (stranding) and autoscale back out.
  constexpr Millicores kPodSizes[] = {500, 1800, 4000, 9000};
  int overcommitted = 0;
  int stranded = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    Rng rng(seed);
    const ClusterConfig config{static_cast<int>(rng.uniform_int(1, 6)),
                               20000};
    ClusterCapacity cluster(config);
    ReferenceCluster ref(config);
    AutoscaleConfig scale;
    scale.enabled = true;
    scale.max_nodes = 12;
    scale.max_step_nodes = 3;
    scale.scale_out_latency_epochs = static_cast<int>(rng.uniform_int(0, 2));
    for (int op = 0; op < 300; ++op) {
      const std::string at =
          "seed " + std::to_string(seed) + ", op " + std::to_string(op);
      const std::int64_t kind = rng.uniform_int(0, 9);
      if (kind <= 3 || ref.group_count() == 0) {
        const int count = static_cast<int>(rng.uniform_int(0, 14));
        const Millicores pod_mc = kPodSizes[rng.uniform_int(0, 3)];
        ASSERT_EQ(cluster.add_group(count, pod_mc),
                  ref.add_group(count, pod_mc))
            << at;
      } else if (kind <= 7) {
        const int group =
            static_cast<int>(rng.uniform_int(0, ref.group_count() - 1));
        const int count = static_cast<int>(rng.uniform_int(0, 20));
        cluster.resize_group(group, count);
        ref.resize_group(group, count);
      } else if (kind == 8 && ref.nodes() > 0) {
        const int node = static_cast<int>(rng.uniform_int(0, ref.nodes() - 1));
        const ClusterCapacity::RemoveOutcome got = cluster.fail_node(node);
        const ClusterCapacity::RemoveOutcome want = ref.fail_node(node);
        ASSERT_EQ(got.displaced, want.displaced) << at;
        ASSERT_EQ(got.stranded, want.stranded) << at;
      } else {
        const ClusterCapacity::ScaleEvent got = cluster.autoscale_step(scale);
        const ClusterCapacity::ScaleEvent want = ref.autoscale_step(scale);
        ASSERT_EQ(got.ordered, want.ordered) << at;
        ASSERT_EQ(got.added, want.added) << at;
        ASSERT_EQ(got.removed, want.removed) << at;
        ASSERT_EQ(got.displaced_pods, want.displaced_pods) << at;
      }
      ASSERT_NO_FATAL_FAILURE(expect_same_packing(cluster, ref, at));
    }
    overcommitted += cluster.overcommitted_pods();
    stranded += cluster.stranded_pods();
  }
  // The sequences reached both fallbacks, not just roomy packing.
  EXPECT_GT(overcommitted, 0);
  EXPECT_GT(stranded, 0);
}

// ---------------------------------------------------------------- fleet --
FleetConfig small_fleet(int shards) {
  FleetConfig config;
  config.tenants = make_tenant_mix(5, 150, 8.0, ArrivalKind::Poisson,
                                   /*mixed_kinds=*/true);
  config.shards = shards;
  config.seed = 99;
  return config;
}

TEST(Fleet, BitIdenticalAcrossShardCounts) {
  const FleetResult one = run_fleet(small_fleet(1));
  for (int shards : {2, 3, 8}) {
    const FleetResult many = run_fleet(small_fleet(shards));
    ASSERT_EQ(many.tenants.size(), one.tenants.size());
    for (std::size_t t = 0; t < one.tenants.size(); ++t) {
      EXPECT_EQ(one.tenants[t].e2e.sorted_samples(),
                many.tenants[t].e2e.sorted_samples())
          << "tenant " << t << " at " << shards << " shards";
      EXPECT_DOUBLE_EQ(one.tenants[t].violation_rate,
                       many.tenants[t].violation_rate);
      EXPECT_DOUBLE_EQ(one.tenants[t].mean_cpu_mc,
                       many.tenants[t].mean_cpu_mc);
    }
    EXPECT_EQ(one.fleet_e2e().sorted_samples(),
              many.fleet_e2e().sorted_samples());
    EXPECT_DOUBLE_EQ(one.fleet_p99, many.fleet_p99);
    EXPECT_DOUBLE_EQ(one.fleet_violation_rate, many.fleet_violation_rate);
    EXPECT_DOUBLE_EQ(one.fleet_mean_cpu_mc, many.fleet_mean_cpu_mc);
    for (std::size_t i = 0; i < one.fleet_hist.bins(); ++i) {
      EXPECT_EQ(one.fleet_hist.bin_count(i), many.fleet_hist.bin_count(i));
    }
  }
}

TEST(Fleet, AggregatesAcrossTenants) {
  const FleetResult result = run_fleet(small_fleet(2));
  ASSERT_EQ(result.tenants.size(), 5u);
  EXPECT_EQ(result.total_requests, 5u * 150u);
  EXPECT_EQ(result.fleet_e2e().size(), result.total_requests);
  EXPECT_EQ(result.fleet_hist.total(), result.total_requests);
  std::size_t expected_violations = 0;
  for (const auto& tr : result.tenants) {
    EXPECT_EQ(tr.requests, 150);
    EXPECT_GE(tr.coresidency, 1.0);
    expected_violations += static_cast<std::size_t>(
        std::lround(tr.violation_rate * tr.requests));
  }
  EXPECT_NEAR(result.fleet_violation_rate,
              static_cast<double>(expected_violations) /
                  static_cast<double>(result.total_requests),
              1e-9);
  // The merged distribution brackets every tenant's percentiles.
  for (const auto& tr : result.tenants) {
    EXPECT_GE(result.fleet_e2e().max(), tr.e2e.max());
    EXPECT_LE(result.fleet_e2e().min(), tr.e2e.min());
  }
}

TEST(Fleet, ContentionRaisesLatencyForHeavyTenants) {
  // Same workload at 10x the arrival rate packs ~10x the pods, so the
  // cluster feedback must slow the heavy tenant down.
  FleetConfig config;
  TenantSpec light;
  light.workload = "ia";
  light.requests = 150;
  light.arrivals.rate = 1.0;
  TenantSpec heavy = light;
  heavy.arrivals.rate = 40.0;
  config.tenants = {light, heavy};
  config.seed = 7;
  const FleetResult result = run_fleet(config);
  EXPECT_GT(result.tenants[1].coresidency, result.tenants[0].coresidency);
  EXPECT_GT(result.tenants[1].e2e_p50, result.tenants[0].e2e_p50);
}

TEST(Fleet, JsonContainsFleetAndTenantRows) {
  FleetConfig config = small_fleet(2);
  config.tenants[1].name = "tenant \"b\"";  // names are free-form: escape
  const FleetResult result = run_fleet(config);
  const std::string json = result.to_json();
  EXPECT_NE(json.find("\"fleet\""), std::string::npos);
  EXPECT_NE(json.find("\"ia-0\""), std::string::npos);
  EXPECT_NE(json.find("\"tenant \\\"b\\\"\""), std::string::npos);
  EXPECT_NE(json.find("\"violation_rate\""), std::string::npos);
  EXPECT_NE(json.find("\"shards\": 2"), std::string::npos);
}

TEST(Fleet, RejectsBadConfig) {
  FleetConfig empty;
  EXPECT_THROW(run_fleet(empty), std::invalid_argument);
  FleetConfig bad = small_fleet(0);
  EXPECT_THROW(run_fleet(bad), std::invalid_argument);
  FleetConfig unknown = small_fleet(1);
  unknown.tenants[0].workload = "nope";
  EXPECT_THROW(run_fleet(unknown), std::invalid_argument);
  // The fleet is open-loop only: a zero-rate (or otherwise invalid)
  // arrival spec must fail up front, not degrade to a closed loop.
  FleetConfig stalled = small_fleet(1);
  stalled.tenants[0].arrivals.rate = 0.0;
  EXPECT_THROW(run_fleet(stalled), std::invalid_argument);
  FleetConfig dwell = small_fleet(1);
  dwell.tenants[0].arrivals.kind = ArrivalKind::Mmpp;
  dwell.tenants[0].arrivals.base_dwell_s = 0.0;
  dwell.tenants[0].arrivals.burst_dwell_s = 0.0;
  dwell.tenants[0].arrivals.burst_rate = 1e9;  // keep burst >= base valid
  EXPECT_THROW(run_fleet(dwell), std::invalid_argument);
}

// ------------------------------------------------------- control plane --
FleetConfig epoch_fleet(int shards) {
  FleetConfig config = small_fleet(shards);
  config.epoch_s = 5.0;  // ~150 reqs at ~8/s => several barriers per run
  config.cluster.nodes = 6;
  config.autoscale.enabled = true;
  config.autoscale.scale_out_latency_epochs = 1;
  return config;
}

TEST(Fleet, EpochFeedbackBitIdenticalAcrossShards) {
  const FleetResult one = run_fleet(epoch_fleet(1));
  ASSERT_GT(one.epochs, 1);  // the control loop actually ran
  for (int shards : {2, 4, 8}) {
    const FleetResult many = run_fleet(epoch_fleet(shards));
    for (std::size_t t = 0; t < one.tenants.size(); ++t) {
      EXPECT_EQ(one.tenants[t].e2e.sorted_samples(),
                many.tenants[t].e2e.sorted_samples())
          << "tenant " << t << " at " << shards << " shards";
      EXPECT_DOUBLE_EQ(one.tenants[t].coresidency,
                       many.tenants[t].coresidency);
    }
    EXPECT_EQ(one.fleet_e2e().sorted_samples(),
              many.fleet_e2e().sorted_samples());
    EXPECT_DOUBLE_EQ(one.fleet_p99, many.fleet_p99);
    EXPECT_DOUBLE_EQ(one.fleet_violation_rate, many.fleet_violation_rate);
    // The merged epoch state is a pure function of (epoch, seed, tenants):
    // the whole audit trail must match bit-for-bit, not just the metrics.
    ASSERT_EQ(one.epoch_log.size(), many.epoch_log.size());
    for (std::size_t e = 0; e < one.epoch_log.size(); ++e) {
      const EpochSnapshot& x = one.epoch_log[e];
      const EpochSnapshot& y = many.epoch_log[e];
      EXPECT_DOUBLE_EQ(x.sim_time, y.sim_time);
      EXPECT_EQ(x.nodes, y.nodes);
      EXPECT_EQ(x.pending_nodes, y.pending_nodes);
      EXPECT_DOUBLE_EQ(x.utilization, y.utilization);
      EXPECT_EQ(x.nodes_ordered, y.nodes_ordered);
      EXPECT_EQ(x.nodes_added, y.nodes_added);
      EXPECT_EQ(x.nodes_removed, y.nodes_removed);
      EXPECT_EQ(x.groups_resized, y.groups_resized);
      EXPECT_EQ(x.displaced_pods, y.displaced_pods);
    }
    EXPECT_EQ(one.final_nodes, many.final_nodes);
    EXPECT_EQ(one.nodes_added, many.nodes_added);
    EXPECT_EQ(one.nodes_removed, many.nodes_removed);
  }
}

TEST(Fleet, EpochInfinityMatchesStaticPlanPipeline) {
  // Differential check of the refactor: with epoch_s = kNoEpochs (the
  // default), run_fleet must reproduce the pre-control-plane plan-once
  // pipeline bit-for-bit.  Replicate that pipeline by hand — Little's-law
  // pods, one-shot bin-packing, frozen StaticCoLocation — and compare
  // every request sample.
  const FleetConfig config = small_fleet(1);
  const FleetResult fleet = run_fleet(config);
  EXPECT_EQ(fleet.epochs, 0);
  EXPECT_TRUE(fleet.epoch_log.empty());

  ClusterCapacity cluster(config.cluster);
  for (std::size_t t = 0; t < config.tenants.size(); ++t) {
    const TenantSpec& spec = config.tenants[t];
    const WorkloadSpec workload = workload_by_name(spec.workload);
    const auto models = workload.chain_models();

    RunConfig rc;
    rc.slo = spec.slo > 0.0 ? spec.slo : workload.slo(spec.concurrency);
    rc.concurrency = spec.concurrency;
    rc.requests = spec.requests;
    // The per-tenant seed derivation run_fleet documents: fleet seed and
    // tenant index only.
    rc.seed = SplitMix64(config.seed ^
                         (0x9e3779b97f4a7c15ULL * (t + 1)))
                  .next();
    rc.open_loop_rate = spec.arrivals.rate;
    rc.arrivals = spec.arrivals;
    rc.platform = config.platform;
    rc.colocation_is_default = false;

    const double rate = spec.arrivals.mean_rate();
    std::vector<CoLocationDistribution> per_stage;
    double coresidency_sum = 0.0;
    for (const auto& model : models) {
      const Seconds stage_s =
          model.exec_time(spec.size_mc, spec.concurrency, 1.0, 1.0);
      const int pods =
          std::max(1, static_cast<int>(std::ceil(rate * stage_s)));
      const auto placed = cluster.place_group(pods, spec.size_mc);
      const double co = ClusterCapacity::mean_coresidency(placed);
      coresidency_sum += co;
      per_stage.push_back(CoLocationDistribution::concentrated(co));
    }
    const StaticCoLocation provider(per_stage);
    rc.colocation_provider = &provider;

    SimEngine engine;
    PlatformConfig pc = rc.platform;
    pc.seed = rc.seed ^ 0x9e3779b97f4a7c15ULL;
    Platform platform(engine, pc, models, rc.interference);
    FixedSizingPolicy policy(
        "fixed", std::vector<Millicores>(models.size(), spec.size_mc));
    RunResult out;
    serve_workload(engine, platform, workload, policy, rc, out);
    engine.run();

    EXPECT_EQ(fleet.tenants[t].e2e.sorted_samples(),
              out.e2e_distribution().sorted_samples())
        << "tenant " << t;
    EXPECT_DOUBLE_EQ(fleet.tenants[t].violation_rate, out.violation_rate());
    EXPECT_DOUBLE_EQ(fleet.tenants[t].mean_cpu_mc, out.mean_cpu());
    EXPECT_DOUBLE_EQ(
        fleet.tenants[t].coresidency,
        coresidency_sum / static_cast<double>(models.size()));
  }
}

TEST(Fleet, EpochFeedbackShiftsInterferenceDraws) {
  // A finite epoch closes the loop: observed pod counts replace the plan
  // estimates, so the draws — and the metrics — must actually move.
  const FleetResult frozen = run_fleet(small_fleet(2));
  FleetConfig live = small_fleet(2);
  live.epoch_s = 5.0;
  const FleetResult fed = run_fleet(live);
  ASSERT_GT(fed.epochs, 0);
  EXPECT_NE(frozen.fleet_e2e().sorted_samples(),
            fed.fleet_e2e().sorted_samples());
  // Same request count either way: the control plane reshapes latency,
  // never loses traffic.
  EXPECT_EQ(frozen.total_requests, fed.total_requests);
}

TEST(Fleet, AutoscaleGrowsUnderLoadAndAccountsNodes) {
  FleetConfig config;
  config.tenants = make_tenant_mix(4, 400, 30.0, ArrivalKind::Poisson,
                                   /*mixed_kinds=*/false);
  config.seed = 11;
  config.shards = 2;
  config.cluster.nodes = 2;  // deliberately undersized
  config.epoch_s = 3.0;
  config.autoscale.enabled = true;
  config.autoscale.scale_out_latency_epochs = 1;
  const FleetResult result = run_fleet(config);
  ASSERT_GT(result.epochs, 0);
  EXPECT_GT(result.nodes_added, 0);
  EXPECT_EQ(result.final_nodes,
            2 + result.nodes_added - result.nodes_removed);
  // The audit trail carries the scale-out: some epoch ordered nodes.
  bool ordered = false;
  for (const auto& snap : result.epoch_log) {
    ordered = ordered || snap.nodes_ordered > 0 || snap.nodes_added > 0;
  }
  EXPECT_TRUE(ordered);
}

TEST(Fleet, TraceTenantsReplayThroughTheFleet) {
  FleetConfig config = small_fleet(2);
  for (auto& tenant : config.tenants) {
    tenant.arrivals.kind = ArrivalKind::Trace;
    tenant.arrivals.trace_gaps = synthesize_interarrivals(
        256, tenant.arrivals.rate, config.seed);
  }
  const FleetResult a = run_fleet(config);
  EXPECT_EQ(a.total_requests, 5u * 150u);
  for (const auto& tenant : a.tenants) {
    EXPECT_EQ(tenant.arrivals, ArrivalKind::Trace);
  }
  // Shard-count invariance holds for replayed traces too.
  config.shards = 3;
  const FleetResult b = run_fleet(config);
  EXPECT_EQ(a.fleet_e2e().sorted_samples(), b.fleet_e2e().sorted_samples());
}

TEST(Fleet, TenantMixIsHeterogeneous) {
  const auto mix =
      make_tenant_mix(8, 100, 10.0, ArrivalKind::Poisson, /*mixed=*/true);
  ASSERT_EQ(mix.size(), 8u);
  bool saw_va = false, saw_mmpp = false, saw_diurnal = false;
  for (const auto& t : mix) {
    saw_va = saw_va || t.workload == "va";
    saw_mmpp = saw_mmpp || t.arrivals.kind == ArrivalKind::Mmpp;
    saw_diurnal = saw_diurnal || t.arrivals.kind == ArrivalKind::Diurnal;
  }
  EXPECT_TRUE(saw_va);
  EXPECT_TRUE(saw_mmpp);
  EXPECT_TRUE(saw_diurnal);
  EXPECT_NE(mix[0].arrivals.rate, mix[1].arrivals.rate);
}

// ------------------------------------------------------ sizing policies --

/// Fleet-test-grade synthesis: small enough that every policy-mix test
/// stays in the tens of milliseconds, deterministic like any other config.
PolicyCatalogConfig tiny_catalog_config() {
  PolicyCatalogConfig cfg;
  cfg.profile_samples = 300;
  cfg.budget_step = 10;
  return cfg;
}

/// Adversarial mixed-policy fleet under the live control plane: every
/// policy family present, two tenants additionally reacting to the epoch
/// feed through the contention decorator.
FleetConfig policy_mix_fleet(int shards) {
  FleetConfig config;
  config.tenants = make_tenant_mix(
      6, 120, 8.0, ArrivalKind::Poisson, /*mixed_kinds=*/true,
      {"janus", "orion", "mean_based", "fixed", "optimal", "grandslam+"});
  config.tenants[0].contention_alpha = 0.3;
  config.tenants[3].contention_alpha = 0.3;
  config.shards = shards;
  config.seed = 77;
  config.epoch_s = 5.0;
  config.cluster.nodes = 6;
  config.autoscale.enabled = true;
  config.policy_catalog = tiny_catalog_config();
  return config;
}

TEST(FleetPolicies, NameRegistryIsClosed) {
  for (const auto& name : fleet_policy_names()) {
    EXPECT_TRUE(is_fleet_policy(name)) << name;
  }
  EXPECT_FALSE(is_fleet_policy("Janus"));  // names are exact, no fuzz
  EXPECT_FALSE(is_fleet_policy(""));
  EXPECT_FALSE(is_fleet_policy("grandslam++"));
  // The error-message list names every policy exactly once.
  const std::string list = fleet_policy_list();
  for (const auto& name : fleet_policy_names()) {
    EXPECT_NE(list.find(name), std::string::npos) << name;
  }
}

TEST(FleetPolicies, UnknownPolicyRejectedUpFront) {
  FleetConfig config = small_fleet(1);
  config.tenants[0].policy = "nope";
  try {
    run_fleet(config);
    FAIL() << "unknown policy must throw";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("nope"), std::string::npos);
    EXPECT_NE(what.find("valid:"), std::string::npos);
    EXPECT_NE(what.find("janus"), std::string::npos);
  }
  // make_tenant_mix validates the round-robin list the same way.
  EXPECT_THROW(make_tenant_mix(2, 10, 1.0, ArrivalKind::Poisson, false,
                               {"janus", "bogus"}),
               std::invalid_argument);
}

TEST(FleetPolicies, MixBitIdenticalAcrossShardCountsAndReruns) {
  const FleetResult one = run_fleet(policy_mix_fleet(1));
  ASSERT_GT(one.epochs, 1);  // the live control plane actually ran
  const FleetResult again = run_fleet(policy_mix_fleet(1));
  EXPECT_EQ(one.fleet_e2e().sorted_samples(),
            again.fleet_e2e().sorted_samples());
  for (int shards : {2, 4, 8}) {
    const FleetResult many = run_fleet(policy_mix_fleet(shards));
    ASSERT_EQ(many.tenants.size(), one.tenants.size());
    for (std::size_t t = 0; t < one.tenants.size(); ++t) {
      EXPECT_EQ(one.tenants[t].e2e.sorted_samples(),
                many.tenants[t].e2e.sorted_samples())
          << one.tenants[t].policy << " tenant " << t << " at " << shards
          << " shards";
      EXPECT_DOUBLE_EQ(one.tenants[t].mean_cpu_mc, many.tenants[t].mean_cpu_mc);
      EXPECT_DOUBLE_EQ(one.tenants[t].violation_rate,
                       many.tenants[t].violation_rate);
    }
    EXPECT_EQ(one.fleet_e2e().sorted_samples(),
              many.fleet_e2e().sorted_samples());
    EXPECT_DOUBLE_EQ(one.fleet_p99, many.fleet_p99);
    // The epoch audit trail is part of the bit-identical set.
    ASSERT_EQ(one.epoch_log.size(), many.epoch_log.size());
    for (std::size_t e = 0; e < one.epoch_log.size(); ++e) {
      EXPECT_EQ(one.epoch_log[e].nodes, many.epoch_log[e].nodes);
      EXPECT_EQ(one.epoch_log[e].groups_resized,
                many.epoch_log[e].groups_resized);
      EXPECT_EQ(one.epoch_log[e].displaced_pods,
                many.epoch_log[e].displaced_pods);
      EXPECT_DOUBLE_EQ(one.epoch_log[e].utilization,
                       many.epoch_log[e].utilization);
    }
  }
}

TEST(FleetPolicies, CatalogSynthesizesOncePerWorkloadPolicy) {
  PolicyCatalog catalog(tiny_catalog_config());
  FleetConfig config = policy_mix_fleet(2);
  config.catalog = &catalog;
  (void)run_fleet(config);
  const PolicyCatalogStats after_first = catalog.stats();
  // Two workloads in the mix, each profiled exactly once.
  EXPECT_EQ(after_first.profiles_built, 2);
  EXPECT_GE(after_first.bundles_built, 1);
  // A second run — any shard count — reuses every artifact.
  config.shards = 4;
  (void)run_fleet(config);
  EXPECT_EQ(catalog.stats().profiles_built, after_first.profiles_built);
  EXPECT_EQ(catalog.stats().bundles_built, after_first.bundles_built);
  EXPECT_EQ(catalog.stats().orion_solved, after_first.orion_solved);
  // Shared read-only bundles: same immutable object for the same key.
  const WorkloadSpec ia = make_ia();
  EXPECT_EQ(catalog.bundle(ia, 1, Exploration::HeadOnly).get(),
            catalog.bundle(ia, 1, Exploration::HeadOnly).get());
}

TEST(FleetPolicies, PolicyChangesTenantBehavior) {
  // Same fleet, one tenant flipped fixed -> janus: that tenant's CPU
  // profile must change (the policy is actually consulted), everyone
  // else's randomness must not shift.
  FleetConfig fixed_fleet = small_fleet(2);
  fixed_fleet.policy_catalog = tiny_catalog_config();
  FleetConfig janus_fleet = fixed_fleet;
  janus_fleet.tenants[0].policy = "janus";
  const FleetResult a = run_fleet(fixed_fleet);
  const FleetResult b = run_fleet(janus_fleet);
  EXPECT_NE(a.tenants[0].mean_cpu_mc, b.tenants[0].mean_cpu_mc);
  EXPECT_EQ(b.tenants[0].policy, "janus");
}

TEST(FleetPolicies, PlanSizesFollowThePolicy) {
  PolicyCatalog catalog(tiny_catalog_config());
  const WorkloadSpec ia = make_ia();
  const std::size_t stages = ia.chain_models().size();
  const auto fixed = catalog.plan_sizes("fixed", ia, 3.0, 1, 1700);
  EXPECT_EQ(fixed, std::vector<Millicores>(stages, 1700));
  // Early binding: the plan is the allocation itself.
  const auto orion = catalog.plan_sizes("orion", ia, 3.0, 1, 1700);
  ASSERT_EQ(orion.size(), stages);
  for (Millicores k : orion) {
    EXPECT_GE(k, kDefaultKmin);
    EXPECT_LE(k, kDefaultKmax);
  }
  // Late binding: deterministic, on the grid, and repeatable.
  const auto janus = catalog.plan_sizes("janus", ia, 3.0, 1, 1700);
  EXPECT_EQ(janus, catalog.plan_sizes("janus", ia, 3.0, 1, 1700));
  ASSERT_EQ(janus.size(), stages);
  EXPECT_THROW(catalog.plan_sizes("nope", ia, 3.0, 1, 1700),
               std::invalid_argument);
}

TEST(FleetPolicies, ContentionAwareScalesWithCoresidency) {
  auto base = [] {
    return std::make_unique<FixedSizingPolicy>(
        "fixed", std::vector<Millicores>{2000, 2000});
  };
  const RequestDraw draw;  // fixed policies ignore the draw
  const CoLocationDistribution alone_dist =
      CoLocationDistribution::concentrated(1.0);
  const CoLocationDistribution three = CoLocationDistribution::concentrated(3.0);
  const CoLocationDistribution six = CoLocationDistribution::concentrated(6.0);
  EpochFeed calm(2, /*live=*/true);
  calm.set_stage(0, alone_dist);
  calm.set_stage(1, alone_dist);
  ContentionAwarePolicy alone(base(), calm, 0.5);
  EXPECT_EQ(alone.size_for_stage(0, 0.0, draw), 2000);  // no contention

  EpochFeed packed(2, /*live=*/true);
  packed.set_stage(0, three);
  packed.set_stage(1, six);
  ContentionAwarePolicy scaled(base(), packed, 0.5);
  // 2000 * (1 + 0.5 * 2) = 4000, clamped to Kmax.
  EXPECT_EQ(scaled.size_for_stage(0, 0.0, draw), 3000);
  EXPECT_EQ(scaled.size_for_stage(1, 0.0, draw), 3000);
  ContentionAwarePolicy gentle(base(), packed, 0.1);
  // 2000 * (1 + 0.1 * 2) = 2400: proportional, not saturated.
  EXPECT_EQ(gentle.size_for_stage(0, 0.0, draw), 2400);
  // A base already past kmax is never shrunk — zero contention must be a
  // no-op for any base allocation.
  auto big = std::make_unique<FixedSizingPolicy>(
      "fixed", std::vector<Millicores>{4000, 4000});
  ContentionAwarePolicy oversized(std::move(big), calm, 0.1);
  EXPECT_EQ(oversized.size_for_stage(0, 0.0, draw), 4000);
  EXPECT_TRUE(gentle.late_binding());
  EXPECT_EQ(gentle.name(), "fixed");  // reporting keeps the base name
  EXPECT_THROW(ContentionAwarePolicy(nullptr, packed, 0.5),
               std::invalid_argument);
  EXPECT_THROW(ContentionAwarePolicy(base(), packed, -0.1),
               std::invalid_argument);
}

// ---------------------------------------------- slices and streaming --
void expect_fleet_equal(const FleetResult& one, const FleetResult& many) {
  ASSERT_EQ(many.tenants.size(), one.tenants.size());
  for (std::size_t t = 0; t < one.tenants.size(); ++t) {
    EXPECT_EQ(one.tenants[t].e2e.sorted_samples(),
              many.tenants[t].e2e.sorted_samples())
        << "tenant " << t;
    EXPECT_DOUBLE_EQ(one.tenants[t].violation_rate,
                     many.tenants[t].violation_rate);
    EXPECT_DOUBLE_EQ(one.tenants[t].mean_cpu_mc, many.tenants[t].mean_cpu_mc);
    EXPECT_DOUBLE_EQ(one.tenants[t].coresidency, many.tenants[t].coresidency);
  }
  EXPECT_EQ(one.fleet_e2e().sorted_samples(),
            many.fleet_e2e().sorted_samples());
  EXPECT_DOUBLE_EQ(one.fleet_p99, many.fleet_p99);
  EXPECT_DOUBLE_EQ(one.fleet_violation_rate, many.fleet_violation_rate);
  EXPECT_DOUBLE_EQ(one.fleet_mean_cpu_mc, many.fleet_mean_cpu_mc);
  EXPECT_EQ(one.obs.events_executed, many.obs.events_executed);
  EXPECT_EQ(one.obs.counters.invocations, many.obs.counters.invocations);
  EXPECT_EQ(one.obs.counters.cold_starts, many.obs.counters.cold_starts);
  EXPECT_EQ(one.epochs, many.epochs);
  EXPECT_EQ(one.final_nodes, many.final_nodes);
  EXPECT_EQ(one.nodes_added, many.nodes_added);
  ASSERT_EQ(one.epoch_log.size(), many.epoch_log.size());
  for (std::size_t e = 0; e < one.epoch_log.size(); ++e) {
    EXPECT_EQ(one.epoch_log[e].nodes, many.epoch_log[e].nodes);
    EXPECT_EQ(one.epoch_log[e].groups_resized,
              many.epoch_log[e].groups_resized);
    EXPECT_DOUBLE_EQ(one.epoch_log[e].utilization,
                     many.epoch_log[e].utilization);
  }
  ASSERT_EQ(one.obs.timeline.size(), many.obs.timeline.size());
  for (std::size_t i = 0; i < one.obs.timeline.size(); ++i) {
    EXPECT_EQ(one.obs.timeline[i].tenant, many.obs.timeline[i].tenant);
    EXPECT_EQ(one.obs.timeline[i].epoch, many.obs.timeline[i].epoch);
    EXPECT_EQ(one.obs.timeline[i].stage, many.obs.timeline[i].stage);
    EXPECT_EQ(one.obs.timeline[i].observed_peak_busy,
              many.obs.timeline[i].observed_peak_busy);
    EXPECT_EQ(one.obs.timeline[i].allocated_pods,
              many.obs.timeline[i].allocated_pods);
    EXPECT_EQ(one.obs.timeline[i].completed, many.obs.timeline[i].completed);
    EXPECT_EQ(one.obs.timeline[i].violations,
              many.obs.timeline[i].violations);
  }
}

TEST(Fleet, SliceWorkersAndMergeMatchWholeRun) {
  // File-based sharding: independent run_fleet_slice calls (each plans
  // the whole fleet, simulates a slice), blobs through the codec, one
  // merge — bit-identical to run_fleet.
  const FleetConfig config = small_fleet(2);
  const FleetResult whole = run_fleet(config);
  std::vector<FleetSliceOutcome> slices;
  slices.push_back(decode_slice(encode_slice(run_fleet_slice(config, 0, 2))));
  slices.push_back(decode_slice(encode_slice(run_fleet_slice(config, 2, 5))));
  const FleetResult merged = merge_fleet_slices(config, std::move(slices));
  expect_fleet_equal(whole, merged);
  // Per-shard balance belongs to run_fleet; the slice codec carries none.
  EXPECT_EQ(whole.obs.shard_events.size(), 2u);
  EXPECT_TRUE(merged.obs.shard_events.empty());
  EXPECT_TRUE(merged.obs.shard_busy_seconds.empty());

  // Gaps, overlaps, or a foreign seed must be rejected.
  std::vector<FleetSliceOutcome> gap;
  gap.push_back(run_fleet_slice(config, 0, 2));
  gap.push_back(run_fleet_slice(config, 3, 5));
  EXPECT_THROW(merge_fleet_slices(config, std::move(gap)),
               std::invalid_argument);
  FleetConfig other = config;
  other.seed = config.seed + 1;
  std::vector<FleetSliceOutcome> foreign;
  foreign.push_back(run_fleet_slice(other, 0, 5));
  EXPECT_THROW(merge_fleet_slices(config, std::move(foreign)),
               std::invalid_argument);
  // Live barriers need the whole fleet in one run_fleet call.
  FleetConfig live = config;
  live.epoch_s = 5.0;
  EXPECT_THROW(run_fleet_slice(live, 0, 2), std::invalid_argument);
}

TEST(Fleet, StreamingMergeKeepsScalarMetricsBitIdentical) {
  // The streaming fold drops per-tenant rows and exact order statistics;
  // everything else — totals, rates, histogram, control plane, counters,
  // timeline, chaos record — must match the default path bit for bit, at
  // any shard count.  Three shards do not divide the five tenants evenly,
  // so the per-shard fold partials differ in size.  Under chaos, tenants
  // that retired at an earlier barrier may be picked for preemption.
  for (const bool chaos : {false, true}) {
    SCOPED_TRACE(chaos ? "chaos all" : "calm");
    FleetConfig config = small_fleet(2);
    config.epoch_s = 5.0;
    config.autoscale.enabled = true;
    config.obs.timeline = true;
    if (chaos) {
      config.chaos = chaos_config_from_spec("all");
      config.chaos.preempt_per_epoch = 0.5;
    }
    const FleetResult dense = run_fleet(config);
    if (chaos) {
      EXPECT_GT(dense.chaos.preempted_pods, 0);
      EXPECT_GT(dense.chaos.requeued_invocations, 0u);
    }
    for (int shards : {1, 2, 3}) {
      SCOPED_TRACE(shards);
      config.shards = shards;
      config.stream_metrics = true;
      const FleetResult lean = run_fleet(config);
      EXPECT_TRUE(lean.streamed);
      EXPECT_TRUE(lean.tenants.empty());
      EXPECT_EQ(lean.fleet_e2e().size(), 0u);
      EXPECT_EQ(lean.total_requests, dense.total_requests);
      EXPECT_EQ(lean.fleet_violation_rate, dense.fleet_violation_rate);
      EXPECT_EQ(lean.fleet_mean_cpu_mc, dense.fleet_mean_cpu_mc);
      EXPECT_EQ(lean.sim_end_s, dense.sim_end_s);
      ASSERT_EQ(lean.fleet_hist.bins(), dense.fleet_hist.bins());
      for (std::size_t i = 0; i < dense.fleet_hist.bins(); ++i) {
        EXPECT_EQ(lean.fleet_hist.bin_count(i), dense.fleet_hist.bin_count(i));
      }
      EXPECT_EQ(lean.obs.counters.invocations, dense.obs.counters.invocations);
      EXPECT_EQ(lean.obs.counters.cold_starts, dense.obs.counters.cold_starts);
      EXPECT_EQ(lean.obs.events_executed, dense.obs.events_executed);
      EXPECT_EQ(lean.epochs, dense.epochs);
      EXPECT_EQ(lean.final_nodes, dense.final_nodes);
      ASSERT_EQ(lean.epoch_log.size(), dense.epoch_log.size());
      ASSERT_EQ(lean.obs.timeline.size(), dense.obs.timeline.size());
      // Histogram-interpolated percentiles sit inside the right bin.
      EXPECT_NEAR(lean.fleet_p50, dense.fleet_p50,
                  (config.hist_max_s / static_cast<double>(config.hist_bins)));
      EXPECT_EQ(lean.chaos_enabled, dense.chaos_enabled);
      EXPECT_EQ(lean.chaos.node_failures, dense.chaos.node_failures);
      EXPECT_EQ(lean.chaos.displaced_pods, dense.chaos.displaced_pods);
      EXPECT_EQ(lean.chaos.stranded_pods, dense.chaos.stranded_pods);
      EXPECT_EQ(lean.chaos.preemption_bursts, dense.chaos.preemption_bursts);
      EXPECT_EQ(lean.chaos.preempted_pods, dense.chaos.preempted_pods);
      EXPECT_EQ(lean.chaos.storms, dense.chaos.storms);
      EXPECT_EQ(lean.chaos.flash_windows, dense.chaos.flash_windows);
      EXPECT_EQ(lean.chaos.requeued_invocations,
                dense.chaos.requeued_invocations);
      ASSERT_EQ(lean.chaos_log.size(), dense.chaos_log.size());
      for (std::size_t e = 0; e < dense.chaos_log.size(); ++e) {
        const ChaosEvent& x = lean.chaos_log[e];
        const ChaosEvent& y = dense.chaos_log[e];
        EXPECT_EQ(x.family, y.family);
        EXPECT_EQ(x.epoch, y.epoch);
        EXPECT_EQ(x.sim_time, y.sim_time);
        EXPECT_EQ(x.tenant, y.tenant);
        EXPECT_EQ(x.node, y.node);
        EXPECT_EQ(x.pods, y.pods);
        EXPECT_EQ(x.stranded, y.stranded);
        EXPECT_EQ(x.magnitude, y.magnitude);
        EXPECT_EQ(x.until_s, y.until_s);
      }
    }
  }
}

TEST(Fleet, TenantCoresidencyReportsTheFinalPacking) {
  // A row's co-residency is the final packing's: Σ over stages (in stage
  // order) of max(1, the last barrier's group co-residency), / stages.
  // Tenants fold at the first barrier after they finish, so a value read
  // at fold time would describe an earlier packing: staggered request
  // counts make tenants finish several barriers apart while the
  // autoscaler keeps repacking.
  FleetConfig config = epoch_fleet(2);
  for (std::size_t t = 0; t < config.tenants.size(); ++t) {
    config.tenants[t].requests = 30 + 60 * static_cast<int>(t);
  }
  config.obs.timeline = true;
  const FleetResult r = run_fleet(config);
  ASSERT_GE(r.epochs, 2);
  ASSERT_EQ(r.tenants.size(), config.tenants.size());
  const int last = r.obs.timeline.back().epoch;
  for (std::size_t t = 0; t < r.tenants.size(); ++t) {
    SCOPED_TRACE(t);
    double total = 0.0;
    std::size_t stages = 0;
    for (const TimelineRow& row : r.obs.timeline) {
      if (row.epoch != last || row.tenant != t) continue;
      total += std::max(1.0, row.coresidency);
      ++stages;
    }
    ASSERT_GT(stages, 0u);
    EXPECT_EQ(r.tenants[t].coresidency,
              total / static_cast<double>(stages));
  }
}

TEST(Fleet, LateInvalidTenantRejectedBeforeShardsRun) {
  // The plan validates every tenant before any shard starts, so a bad
  // spec at the very end of a large static fleet fails run_fleet with the
  // validator's own message (and never leaves a shard waiting on a
  // packing that will not come), at any shard count and either merge.
  FleetConfig config;
  config.tenants =
      make_tenant_mix(20000, 2, 8.0, ArrivalKind::Poisson, /*mixed=*/false);
  ArrivalSpec nan_rate = config.tenants.back().arrivals;
  nan_rate.rate = std::nan("");
  ArrivalSpec bad_dwell = config.tenants.back().arrivals;
  bad_dwell.kind = ArrivalKind::Mmpp;
  bad_dwell.base_dwell_s = 0.0;
  for (const ArrivalSpec& bad : {nan_rate, bad_dwell}) {
    std::string want;
    try {
      validate_arrivals(bad);
    } catch (const std::invalid_argument& e) {
      want = e.what();
    }
    ASSERT_FALSE(want.empty());
    config.tenants.back().arrivals = bad;
    for (int shards : {1, 3}) {
      for (bool stream : {false, true}) {
        config.shards = shards;
        config.stream_metrics = stream;
        try {
          (void)run_fleet(config);
          ADD_FAILURE() << "bad last tenant accepted at " << shards
                        << " shards";
        } catch (const std::invalid_argument& e) {
          EXPECT_EQ(e.what(), want) << shards << " shards";
        }
      }
    }
  }
}

/// What pass 1 alone asks of a fresh catalog: one plan_sizes call per
/// tenant, exactly as the fleet plan sizes it.
PolicyCatalogStats plan_only_stats(const FleetConfig& config) {
  PolicyCatalog catalog(tiny_catalog_config());
  for (const TenantSpec& spec : config.tenants) {
    const WorkloadSpec workload = workload_by_name(spec.workload);
    const Seconds slo =
        spec.slo > 0.0 ? spec.slo : workload.slo(spec.concurrency);
    (void)catalog.plan_sizes(spec.policy, workload, slo, spec.concurrency,
                             spec.size_mc);
  }
  return catalog.stats();
}

TEST(Fleet, OverlappedPlanWithColdCatalog) {
  // Static shards build tenants while the caller thread still packs later
  // ones.  With a cold catalog, every artifact a shard's make_policy reads
  // must already exist when pass 1 ends, and the contention decorator
  // reads each tenant's feed as soon as the watermark passes it.  Results
  // must not depend on the shard count or the slicing; under TSan this is
  // also the race oracle for the watermark.
  FleetConfig config;
  config.tenants = make_tenant_mix(
      600, 12, 6.0, ArrivalKind::Poisson, /*mixed_kinds=*/true,
      {"janus", "orion", "mean_based", "grandslam+", "fixed"});
  for (TenantSpec& spec : config.tenants) spec.contention_alpha = 0.25;
  config.seed = 91;
  config.cluster.nodes = 8;
  const PolicyCatalogStats plan_only = plan_only_stats(config);
  const auto expect_plan_only = [&](const PolicyCatalog& catalog,
                                    const std::string& run) {
    EXPECT_EQ(catalog.stats().profiles_built, plan_only.profiles_built) << run;
    EXPECT_EQ(catalog.stats().bundles_built, plan_only.bundles_built) << run;
    EXPECT_EQ(catalog.stats().bundles_loaded, plan_only.bundles_loaded)
        << run;
    EXPECT_EQ(catalog.stats().orion_solved, plan_only.orion_solved) << run;
  };

  std::vector<FleetResult> runs;
  for (int shards : {1, 2, 3}) {
    PolicyCatalog catalog(tiny_catalog_config());
    config.catalog = &catalog;
    config.shards = shards;
    runs.push_back(run_fleet(config));
    expect_plan_only(catalog, std::to_string(shards) + " shards");
  }
  ASSERT_EQ(runs[0].tenants.size(), config.tenants.size());
  for (std::size_t r = 1; r < runs.size(); ++r) {
    expect_fleet_equal(runs[0], runs[r]);
  }

  // Slice workers: the first starts from a cold catalog, the second
  // shares it, and neither adds to what the plan built.
  PolicyCatalog catalog(tiny_catalog_config());
  config.catalog = &catalog;
  config.shards = 2;
  std::vector<FleetSliceOutcome> slices;
  slices.push_back(run_fleet_slice(config, 0, 250));
  slices.push_back(run_fleet_slice(config, 250, 600));
  expect_plan_only(catalog, "slices");
  expect_fleet_equal(runs[0], merge_fleet_slices(config, std::move(slices)));
}

TEST(Fleet, StreamedMatchesDenseAcrossShards) {
  // 4100 tenants on the tenant-major static path: each shard recycles one
  // calendar across more than 4096 tenants.  Neither the recycling, the
  // shard count nor the streaming fold may show in any scalar.
  FleetConfig config;
  config.tenants = make_tenant_mix(4100, 2, 10.0, ArrivalKind::Poisson,
                                   /*mixed_kinds=*/false);
  config.seed = 77;
  config.cluster.nodes = 4;
  config.cluster.node_capacity_mc = 2000000000;
  config.shards = 1;
  const FleetResult dense = run_fleet(config);
  for (int shards : {1, 3}) {
    for (const bool stream : {false, true}) {
      config.shards = shards;
      config.stream_metrics = stream;
      const FleetResult r = run_fleet(config);
      EXPECT_EQ(r.total_requests, dense.total_requests);
      EXPECT_EQ(r.fleet_violation_rate, dense.fleet_violation_rate);
      EXPECT_EQ(r.fleet_mean_cpu_mc, dense.fleet_mean_cpu_mc);
      ASSERT_EQ(r.fleet_hist.bins(), dense.fleet_hist.bins());
      for (std::size_t i = 0; i < dense.fleet_hist.bins(); ++i) {
        EXPECT_EQ(r.fleet_hist.bin_count(i), dense.fleet_hist.bin_count(i));
      }
      EXPECT_EQ(r.obs.counters.invocations, dense.obs.counters.invocations);
      EXPECT_EQ(r.obs.counters.cold_starts, dense.obs.counters.cold_starts);
      EXPECT_EQ(r.obs.events_executed, dense.obs.events_executed);
      EXPECT_EQ(r.sim_end_s, dense.sim_end_s);
    }
  }
}

TEST(Fleet, EpochAndStreamValidation) {
  FleetConfig config = small_fleet(1);
  // NaN must not read as "no barriers": the control plane accepts only
  // epoch_s > 0.
  for (const double bad : {std::nan(""), 0.0, -5.0}) {
    config.epoch_s = bad;
    EXPECT_THROW(run_fleet(config), std::invalid_argument);
  }
  config.epoch_s = kNoEpochs;
  config.stream_metrics = true;
  config.obs.trace = true;  // streaming releases the state tracing needs
  EXPECT_THROW(run_fleet(config), std::invalid_argument);
}

TEST(FleetPolicies, CatalogLoadsCommittedHintsBundles) {
  // Cross-process hints reuse: tables written with the canonical
  // filenames load instead of synthesizing, and — because the CSV round
  // trip is exact — produce bit-identical fleet results.
  PolicyCatalog source(tiny_catalog_config());
  const WorkloadSpec ia = make_ia();
  const auto bundle = source.bundle(ia, 1, Exploration::HeadOnly);
  const std::string dir = ::testing::TempDir();
  for (std::size_t j = 0; j < bundle->suffix_tables.size(); ++j) {
    std::ofstream out(
        dir + "/" + hints_bundle_filename(ia.name, 1, Exploration::HeadOnly, j),
        std::ios::binary);
    ASSERT_TRUE(out.good());
    out << bundle->suffix_tables[j].to_csv();
  }

  PolicyCatalogConfig loading = tiny_catalog_config();
  loading.hints_dir = dir;
  PolicyCatalog loader(loading);
  const auto loaded = loader.bundle(ia, 1, Exploration::HeadOnly);
  EXPECT_EQ(loader.stats().bundles_loaded, 1);
  EXPECT_EQ(loader.stats().bundles_built, 0);
  EXPECT_EQ(loader.stats().profiles_built, 0);  // loading skips profiling
  ASSERT_EQ(loaded->suffix_tables.size(), bundle->suffix_tables.size());
  for (std::size_t j = 0; j < bundle->suffix_tables.size(); ++j) {
    EXPECT_EQ(loaded->suffix_tables[j].to_csv(),
              bundle->suffix_tables[j].to_csv());
  }

  // An all-janus IA fleet through each catalog: identical results.
  FleetConfig config;
  config.tenants = make_tenant_mix(3, 120, 8.0, ArrivalKind::Poisson, false,
                                   {"janus"});
  for (auto& tenant : config.tenants) tenant.workload = "ia";
  config.seed = 31;
  PolicyCatalog synth_cat(tiny_catalog_config());
  PolicyCatalog load_cat(loading);
  FleetConfig a = config;
  a.catalog = &synth_cat;
  FleetConfig b = config;
  b.catalog = &load_cat;
  const FleetResult synth_run = run_fleet(a);
  const FleetResult load_run = run_fleet(b);
  expect_fleet_equal(synth_run, load_run);
  EXPECT_EQ(load_cat.stats().bundles_loaded, 1);
  EXPECT_EQ(load_cat.stats().bundles_built, 0);

  // A workload with no committed tables still synthesizes (fallback).
  const WorkloadSpec va = make_va();
  (void)load_cat.bundle(va, 1, Exploration::HeadOnly);
  EXPECT_EQ(load_cat.stats().bundles_built, 1);
}

TEST(FleetPolicies, HeterogeneousPodSizesPackPerStage) {
  // Policy tenants plan different millicores per stage; the cluster must
  // keep per-group pod sizes (and the control plane must pass them
  // through).
  ControlPlane control(ClusterConfig{4, 8000},
                       ControlConfig{kNoEpochs, AutoscaleConfig{}});
  (void)control.plan_tenant({2, 1, 3}, {1000, 2500, 1500});
  const ClusterCapacity& cluster = control.cluster();
  ASSERT_EQ(cluster.group_count(), 3);
  EXPECT_EQ(cluster.group_pod_mc(0), 1000);
  EXPECT_EQ(cluster.group_pod_mc(1), 2500);
  EXPECT_EQ(cluster.group_pod_mc(2), 1500);
  EXPECT_THROW(control.plan_tenant({1, 1}, {1000}), std::invalid_argument);
  EXPECT_THROW(cluster.group_pod_mc(3), std::invalid_argument);
}

TEST(Control, FeedsShareInternedDistributions) {
  // Stages with the same co-residency point at one interned distribution
  // (per-tenant plan state must not grow a weight vector per stage), and
  // each still reads the packing of its own group.
  ControlPlane control(ClusterConfig{4, 8000},
                       ControlConfig{kNoEpochs, AutoscaleConfig{}});
  const EpochFeed& a = control.plan_tenant({2, 1}, {1000, 1000});
  const EpochFeed& b = control.plan_tenant({2, 1}, {1000, 1000});
  EXPECT_EQ(&a.stage_distribution(0), &b.stage_distribution(0));
  EXPECT_EQ(&a.stage_distribution(1), &b.stage_distribution(1));
  EXPECT_NE(&a.stage_distribution(0), &a.stage_distribution(1));
  EXPECT_DOUBLE_EQ(a.stage_distribution(0).mean(), 2.0);
  EXPECT_DOUBLE_EQ(a.stage_distribution(1).mean(), 1.0);
  EXPECT_EQ(control.tenant_group(1, 1), 3);
}

// --------------------------------------------------------------- golden --
/// Simulated values a fleet run must reproduce bit for bit, recorded as
/// hex-float literals.  The shard-equality tests compare runs with each
/// other, so a change that moved results the same way at every shard count
/// would pass them; these pins do not move with the code.
struct GoldenFleet {
  double violation_rate;
  double mean_cpu_mc;
  double p50;
  double p99;
  std::uint64_t events_executed;
  double sim_end_s;
  int last_nodes;  // the last epoch snapshot's nodes; final_nodes if static
};

void expect_golden(const FleetResult& got, const GoldenFleet& want) {
  const auto hex = [](double v) {
    std::ostringstream os;
    os << std::hexfloat << v;
    return os.str();
  };
  EXPECT_EQ(got.fleet_violation_rate, want.violation_rate)
      << hex(got.fleet_violation_rate);
  EXPECT_EQ(got.fleet_mean_cpu_mc, want.mean_cpu_mc)
      << hex(got.fleet_mean_cpu_mc);
  EXPECT_EQ(got.fleet_p50, want.p50) << hex(got.fleet_p50);
  EXPECT_EQ(got.fleet_p99, want.p99) << hex(got.fleet_p99);
  EXPECT_EQ(got.obs.events_executed, want.events_executed);
  EXPECT_EQ(got.sim_end_s, want.sim_end_s) << hex(got.sim_end_s);
  EXPECT_EQ(got.epoch_log.empty() ? got.final_nodes
                                  : got.epoch_log.back().nodes,
            want.last_nodes);
}

TEST(Fleet, GoldenResultsPinned) {
  PolicyCatalog catalog(tiny_catalog_config());
  FleetConfig live;
  live.tenants = make_tenant_mix(6, 400, 8.0, ArrivalKind::Poisson,
                                 /*mixed_kinds=*/true,
                                 {"janus", "orion", "fixed"});
  for (TenantSpec& tenant : live.tenants) tenant.contention_alpha = 0.25;
  live.seed = 2026;
  live.epoch_s = 15.0;
  live.autoscale.enabled = true;
  live.chaos.node_failures = true;
  live.chaos.preemption = true;
  live.chaos.cold_storms = true;
  live.chaos.flash_crowds = true;
  live.catalog = &catalog;

  FleetConfig fixed;
  fixed.tenants = make_tenant_mix(6, 400, 8.0, ArrivalKind::Poisson,
                                  /*mixed_kinds=*/true,
                                  {"janus", "orion", "fixed"});
  fixed.seed = 2026;
  fixed.catalog = &catalog;

  // Recorded with the live path's tenants sharing one calendar per shard.
  const GoldenFleet live_want{0x1.f777777777777p-4, 0x1.0ec0e147ae148p+13,
                              0x1.602778a0c1ccp+0,  0x1.3f6188d40b7f2p+2,
                              9696,                 0x1.c5f73fcd0aa6dp+5,
                              19};
  const GoldenFleet fixed_want{0x1.e3d70a3d70a3dp-3, 0x1.49aap+12,
                               0x1.d3e7fd0a94274p+0, 0x1.c3934c2071556p+1,
                               9600,                 0x1.07afc069f743p+6,
                               16};
  for (int shards : {1, 3}) {
    SCOPED_TRACE(shards);
    live.shards = shards;
    fixed.shards = shards;
    const FleetResult live_run = run_fleet(live);
    ASSERT_GT(live_run.epochs, 1);
    ASSERT_GT(live_run.chaos_log.size(), 0u);
    {
      SCOPED_TRACE("live");
      expect_golden(live_run, live_want);
    }
    {
      SCOPED_TRACE("static");
      expect_golden(run_fleet(fixed), fixed_want);
    }
  }
}

TEST(Fleet, FleetPercentileIsExact) {
  // The dense fleet percentiles are selected across the tenant rows; they
  // must equal the merged distribution's bit for bit, on the static and the
  // live path, at any shard count.  A streamed run reads the histogram.
  PolicyCatalog catalog(tiny_catalog_config());
  FleetConfig fixed;
  fixed.tenants = make_tenant_mix(6, 400, 8.0, ArrivalKind::Poisson,
                                  /*mixed_kinds=*/true,
                                  {"janus", "orion", "fixed"});
  fixed.seed = 2026;
  fixed.catalog = &catalog;
  FleetConfig live = fixed;
  for (TenantSpec& tenant : live.tenants) tenant.contention_alpha = 0.25;
  live.epoch_s = 15.0;
  live.autoscale.enabled = true;
  live.chaos = chaos_config_from_spec("all");

  std::vector<double> ps = {0.0, 0.1, 1.0, 50.0, 99.0, 99.9, 100.0};
  Rng rng(5);
  for (int i = 0; i < 5; ++i) ps.push_back(rng.uniform() * 100.0);
  const auto same_bits = [](double a, double b) {
    return std::memcmp(&a, &b, sizeof a) == 0;
  };
  for (FleetConfig* config : {&fixed, &live}) {
    for (int shards : {1, 3}) {
      SCOPED_TRACE(::testing::Message()
                   << (config == &live ? "live" : "static") << ", " << shards
                   << " shards");
      config->shards = shards;
      config->stream_metrics = false;
      const FleetResult dense = run_fleet(*config);
      const EmpiricalDistribution merged = dense.fleet_e2e();
      ASSERT_EQ(merged.size(), dense.total_requests);
      for (const double p : ps) {
        EXPECT_TRUE(same_bits(dense.fleet_percentile(p), merged.percentile(p)))
            << "p=" << p;
      }
      EXPECT_TRUE(same_bits(dense.fleet_p50, merged.percentile(50.0)));
      EXPECT_TRUE(same_bits(dense.fleet_p99, merged.percentile(99.0)));

      config->stream_metrics = true;
      const FleetResult lean = run_fleet(*config);
      ASSERT_TRUE(lean.streamed);
      for (const double p : ps) {
        EXPECT_TRUE(
            same_bits(lean.fleet_percentile(p), lean.fleet_hist.percentile(p)))
            << "p=" << p;
      }
      EXPECT_TRUE(same_bits(lean.fleet_p99, lean.fleet_hist.percentile(99.0)));
    }
  }
}

}  // namespace
}  // namespace janus
