// Tests for src/fleet/chaos: the deterministic chaos engine — spec
// parsing, schedule determinism, the Platform preemption/storm mechanics
// it drives, and the fleet-level contracts (chaos on is bit-identical at
// any shard count; chaos off takes zero different branches; the timeline
// and JSON carry the chaos audit trail).
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

#include "fleet/chaos.hpp"
#include "fleet/fleet.hpp"
#include "model/workloads.hpp"
#include "obs/timeline.hpp"
#include "sim/engine.hpp"
#include "sim/platform.hpp"

namespace janus {
namespace {

// ------------------------------------------------------------ spec parse --
TEST(ChaosSpec, ParsesFamilySubsets) {
  const ChaosConfig failures = chaos_config_from_spec("failures");
  EXPECT_TRUE(failures.node_failures);
  EXPECT_FALSE(failures.preemption);
  EXPECT_FALSE(failures.cold_storms);
  EXPECT_FALSE(failures.flash_crowds);
  EXPECT_TRUE(failures.enabled());
  EXPECT_TRUE(failures.needs_epochs());

  const ChaosConfig pair = chaos_config_from_spec("preemption,storms");
  EXPECT_TRUE(pair.preemption);
  EXPECT_TRUE(pair.cold_storms);
  EXPECT_FALSE(pair.node_failures);

  const ChaosConfig flash = chaos_config_from_spec("flash");
  EXPECT_TRUE(flash.flash_crowds);
  EXPECT_TRUE(flash.enabled());
  // Flash crowds alone work on the static path: no barriers needed.
  EXPECT_FALSE(flash.needs_epochs());

  const ChaosConfig all = chaos_config_from_spec("all");
  EXPECT_TRUE(all.node_failures && all.preemption && all.cold_storms &&
              all.flash_crowds);

  const ChaosConfig none = chaos_config_from_spec("none");
  EXPECT_FALSE(none.enabled());
}

TEST(ChaosSpec, RejectsUnknownAndEmptySpecs) {
  EXPECT_THROW(chaos_config_from_spec("bogus"), std::invalid_argument);
  EXPECT_THROW(chaos_config_from_spec("failures,bogus"),
               std::invalid_argument);
  EXPECT_THROW(chaos_config_from_spec(""), std::invalid_argument);
  EXPECT_THROW(chaos_config_from_spec(",,"), std::invalid_argument);
}

// ---------------------------------------------------------------- engine --
TEST(ChaosEngine, ValidatesConfig) {
  const ChaosConfig ok = chaos_config_from_spec("all");
  EXPECT_NO_THROW(ChaosEngine(ok, 1, 1));
  EXPECT_THROW(ChaosEngine(ok, 1, 0), std::invalid_argument);

  ChaosConfig bad = ok;
  bad.node_fail_per_epoch = 1.5;
  EXPECT_THROW(ChaosEngine(bad, 1, 1), std::invalid_argument);
  bad = ok;
  bad.preempt_fraction = 0.0;
  EXPECT_THROW(ChaosEngine(bad, 1, 1), std::invalid_argument);
  bad = ok;
  bad.storm_multiplier = 0.0;
  EXPECT_THROW(ChaosEngine(bad, 1, 1), std::invalid_argument);
  bad = ok;
  bad.storm_epochs = 0;
  EXPECT_THROW(ChaosEngine(bad, 1, 1), std::invalid_argument);
  bad = ok;
  bad.flash_k = 0.0;
  EXPECT_THROW(ChaosEngine(bad, 1, 1), std::invalid_argument);
  bad = ok;
  bad.flash_window_s = 0.0;
  EXPECT_THROW(ChaosEngine(bad, 1, 1), std::invalid_argument);
}

TEST(ChaosEngine, ScheduleIsAPureFunctionOfSeedEpochTenants) {
  const ChaosConfig config = chaos_config_from_spec("all");
  ChaosEngine a(config, 99, 4);
  ChaosEngine b(config, 99, 4);
  ChaosEngine other(config, 100, 4);
  bool any_difference = false;
  for (int epoch = 0; epoch < 50; ++epoch) {
    const auto pa = a.plan_barrier(epoch, 8);
    const auto pb = b.plan_barrier(epoch, 8);
    EXPECT_EQ(pa.failed_nodes, pb.failed_nodes) << "epoch " << epoch;
    EXPECT_EQ(pa.preempt_tenants, pb.preempt_tenants) << "epoch " << epoch;
    EXPECT_DOUBLE_EQ(pa.storm_multiplier, pb.storm_multiplier);
    EXPECT_EQ(pa.storm_started, pb.storm_started);
    const auto po = other.plan_barrier(epoch, 8);
    any_difference = any_difference ||
                     pa.failed_nodes != po.failed_nodes ||
                     pa.preempt_tenants != po.preempt_tenants;
  }
  EXPECT_TRUE(any_difference) << "chaos seed did not change the schedule";
  // Flash windows: keyed per tenant, stable, and inside the configured
  // stagger range.
  ArrivalSpec spec;
  spec.rate = 5.0;
  const ArrivalSpec w1 = a.apply_flash(2, spec);
  const ArrivalSpec w2 = b.apply_flash(2, spec);
  EXPECT_DOUBLE_EQ(w1.flash_t0_s, w2.flash_t0_s);
  EXPECT_DOUBLE_EQ(w1.flash_k, config.flash_k);
  EXPECT_GE(w1.flash_t0_s, config.flash_start_s);
  EXPECT_LT(w1.flash_t0_s, config.flash_start_s + config.flash_spread_s);
  EXPECT_DOUBLE_EQ(w1.flash_t1_s - w1.flash_t0_s, config.flash_window_s);
}

TEST(ChaosEngine, ArmingOneFamilyNeverShiftsAnother) {
  // The barrier rng is consumed in a fixed order regardless of which
  // families are armed: failures-only and all-families must agree on
  // exactly which barriers fail a node.
  ChaosEngine only_failures(chaos_config_from_spec("failures"), 7, 3);
  ChaosEngine everything(chaos_config_from_spec("all"), 7, 3);
  for (int epoch = 0; epoch < 50; ++epoch) {
    EXPECT_EQ(only_failures.plan_barrier(epoch, 10).failed_nodes,
              everything.plan_barrier(epoch, 10).failed_nodes)
        << "epoch " << epoch;
  }
}

TEST(ChaosEngine, RespectsMinNodesFloor) {
  ChaosConfig config = chaos_config_from_spec("failures");
  config.node_fail_per_epoch = 1.0;  // fail at every opportunity
  config.min_nodes = 4;
  ChaosEngine engine(config, 1, 1);
  for (int epoch = 0; epoch < 20; ++epoch) {
    EXPECT_TRUE(engine.plan_barrier(epoch, 4).failed_nodes.empty());
    const auto plan = engine.plan_barrier(epoch, 5);
    ASSERT_EQ(plan.failed_nodes.size(), 1u);
    EXPECT_GE(plan.failed_nodes[0], 0);
    EXPECT_LT(plan.failed_nodes[0], 5);
  }
}

TEST(ChaosEngine, StormsLastStormEpochsBarriers) {
  ChaosConfig config = chaos_config_from_spec("storms");
  config.storm_per_epoch = 1.0;
  config.storm_epochs = 3;
  ChaosEngine engine(config, 1, 1);
  const auto first = engine.plan_barrier(0, 4);
  EXPECT_TRUE(first.storm_started);
  EXPECT_DOUBLE_EQ(first.storm_multiplier, config.storm_multiplier);
  // Two more covered barriers; no new storm starts while one is active.
  for (int epoch = 1; epoch < 3; ++epoch) {
    const auto plan = engine.plan_barrier(epoch, 4);
    EXPECT_FALSE(plan.storm_started) << "epoch " << epoch;
    EXPECT_DOUBLE_EQ(plan.storm_multiplier, config.storm_multiplier);
  }
  // The storm expired; with p = 1 the next barrier starts a fresh one.
  const auto next = engine.plan_barrier(3, 4);
  EXPECT_TRUE(next.storm_started);
}

// ------------------------------------------------- platform mechanics --
PlatformConfig small_platform() {
  PlatformConfig config;
  config.nodes = 2;
  config.pool.prewarm_per_function = 2;
  return config;
}

std::vector<FunctionModel> two_models() {
  return {make_micro_function(ResourceDim::Cpu),
          make_micro_function(ResourceDim::Network)};
}

TEST(PlatformChaos, PreemptedInvocationRetriesAndRepaysExecution) {
  SimEngine engine;
  Platform platform(engine, small_platform(), two_models());
  InvocationOutcome got;
  int completions = 0;
  platform.invoke(0, 2000, 1, 1.0, 1.0, [&](const InvocationOutcome& o) {
    got = o;
    ++completions;
  });
  // The invocation is in flight; kill its pod at the "barrier".
  EXPECT_EQ(platform.preempt_busy(0, 8), 1);
  EXPECT_EQ(platform.preempted_pods(), 1u);
  engine.run();
  // Exactly one completion: the retry re-enters the acquire path and the
  // caller never observes the preemption except through the outcome.
  EXPECT_EQ(completions, 1);
  EXPECT_EQ(got.preempted, 1);
  EXPECT_EQ(platform.requeued(), 1u);
  // The retry is not a new invocation...
  EXPECT_EQ(platform.invocations(), 1u);
  // ...but it re-pays the full execution (same interference draw).
  const double single = two_models()[0].exec_time(2000, 1, 1.0, 1.0);
  EXPECT_DOUBLE_EQ(got.exec_s, 2.0 * single);
}

TEST(PlatformChaos, PreemptBusyOnlyKillsMatchingBusyPods) {
  SimEngine engine;
  Platform platform(engine, small_platform(), two_models());
  // Nothing busy: nothing to kill (and no crash).
  EXPECT_EQ(platform.preempt_busy(0, 4), 0);
  int completions = 0;
  platform.invoke(1, 1000, 1, 1.0, 1.0,
                  [&](const InvocationOutcome&) { ++completions; });
  // Wrong function index: the busy pod belongs to fn 1.
  EXPECT_EQ(platform.preempt_busy(0, 4), 0);
  EXPECT_EQ(platform.preempt_busy(1, 0), 0);  // zero budget
  engine.run();
  EXPECT_EQ(completions, 1);
  EXPECT_EQ(platform.requeued(), 0u);
  EXPECT_THROW(platform.preempt_busy(99, 1), std::invalid_argument);
}

TEST(PlatformChaos, StartupMultiplierScalesWarmAndColdStarts) {
  PlatformConfig config = small_platform();
  config.pool.prewarm_per_function = 0;  // force cold starts
  Seconds calm = -1.0, stormy = -1.0;
  {
    SimEngine engine;
    Platform platform(engine, config, two_models());
    platform.invoke(0, 1000, 1, 1.0, 1.0,
                    [&](const InvocationOutcome& o) { calm = o.startup_s; });
    engine.run();
  }
  {
    SimEngine engine;
    Platform platform(engine, config, two_models());
    platform.set_startup_multiplier(8.0);
    EXPECT_DOUBLE_EQ(platform.startup_multiplier(), 8.0);
    platform.invoke(0, 1000, 1, 1.0, 1.0, [&](const InvocationOutcome& o) {
      stormy = o.startup_s;
    });
    engine.run();
    EXPECT_THROW(platform.set_startup_multiplier(0.0),
                 std::invalid_argument);
  }
  ASSERT_GT(calm, 0.0);
  EXPECT_DOUBLE_EQ(stormy, 8.0 * calm);
}

// ----------------------------------------------------------------- fleet --
FleetConfig chaos_fleet(int shards) {
  FleetConfig config;
  config.tenants = make_tenant_mix(5, 150, 8.0, ArrivalKind::Poisson,
                                   /*mixed_kinds=*/true);
  config.shards = shards;
  config.seed = 99;
  config.epoch_s = 5.0;
  config.cluster.nodes = 6;
  config.chaos = chaos_config_from_spec("all");
  config.chaos.seed = 3;
  // A short run should still inject every family a few times.
  config.chaos.node_fail_per_epoch = 0.5;
  config.chaos.preempt_per_epoch = 0.5;
  config.chaos.storm_per_epoch = 0.5;
  config.chaos.storm_epochs = 1;
  config.chaos.flash_spread_s = 20.0;
  config.chaos.flash_window_s = 10.0;
  return config;
}

void expect_chaos_runs_identical(const FleetResult& one,
                                 const FleetResult& many) {
  ASSERT_EQ(one.tenants.size(), many.tenants.size());
  for (std::size_t t = 0; t < one.tenants.size(); ++t) {
    EXPECT_EQ(one.tenants[t].e2e.sorted_samples(),
              many.tenants[t].e2e.sorted_samples())
        << "tenant " << t;
    EXPECT_DOUBLE_EQ(one.tenants[t].violation_rate,
                     many.tenants[t].violation_rate);
  }
  EXPECT_EQ(one.fleet_e2e().sorted_samples(),
            many.fleet_e2e().sorted_samples());
  EXPECT_DOUBLE_EQ(one.fleet_p99, many.fleet_p99);
  EXPECT_DOUBLE_EQ(one.fleet_violation_rate, many.fleet_violation_rate);
  // The chaos columns of the epoch log are part of the bit-identical set.
  ASSERT_EQ(one.epoch_log.size(), many.epoch_log.size());
  for (std::size_t e = 0; e < one.epoch_log.size(); ++e) {
    const EpochChaos& x = one.epoch_log[e].chaos;
    const EpochChaos& y = many.epoch_log[e].chaos;
    EXPECT_EQ(x.failed_nodes, y.failed_nodes) << "epoch " << e;
    EXPECT_EQ(x.displaced_pods, y.displaced_pods) << "epoch " << e;
    EXPECT_EQ(x.stranded_pods, y.stranded_pods) << "epoch " << e;
    EXPECT_EQ(x.preempted_pods, y.preempted_pods) << "epoch " << e;
    EXPECT_DOUBLE_EQ(x.storm_multiplier, y.storm_multiplier) << "epoch " << e;
    EXPECT_EQ(one.epoch_log[e].nodes, many.epoch_log[e].nodes);
    EXPECT_DOUBLE_EQ(one.epoch_log[e].utilization,
                     many.epoch_log[e].utilization);
  }
  // So is the event log itself.
  ASSERT_EQ(one.chaos_log.size(), many.chaos_log.size());
  for (std::size_t i = 0; i < one.chaos_log.size(); ++i) {
    const ChaosEvent& x = one.chaos_log[i];
    const ChaosEvent& y = many.chaos_log[i];
    EXPECT_EQ(static_cast<int>(x.family), static_cast<int>(y.family));
    EXPECT_EQ(x.epoch, y.epoch);
    EXPECT_DOUBLE_EQ(x.sim_time, y.sim_time);
    EXPECT_EQ(x.tenant, y.tenant);
    EXPECT_EQ(x.node, y.node);
    EXPECT_EQ(x.pods, y.pods);
    EXPECT_EQ(x.stranded, y.stranded);
    EXPECT_DOUBLE_EQ(x.magnitude, y.magnitude);
    EXPECT_DOUBLE_EQ(x.until_s, y.until_s);
  }
  EXPECT_EQ(one.chaos.node_failures, many.chaos.node_failures);
  EXPECT_EQ(one.chaos.displaced_pods, many.chaos.displaced_pods);
  EXPECT_EQ(one.chaos.stranded_pods, many.chaos.stranded_pods);
  EXPECT_EQ(one.chaos.preemption_bursts, many.chaos.preemption_bursts);
  EXPECT_EQ(one.chaos.preempted_pods, many.chaos.preempted_pods);
  EXPECT_EQ(one.chaos.storms, many.chaos.storms);
  EXPECT_EQ(one.chaos.flash_windows, many.chaos.flash_windows);
  EXPECT_EQ(one.chaos.requeued_invocations, many.chaos.requeued_invocations);
}

TEST(ChaosFleet, BitIdenticalAcrossShardCountsAndReruns) {
  const FleetResult one = run_fleet(chaos_fleet(1));
  ASSERT_TRUE(one.chaos_enabled);
  ASSERT_GT(one.epochs, 1);
  // The schedule actually injected something, or the test proves nothing.
  ASSERT_GT(one.chaos.preempted_pods + one.chaos.node_failures +
                one.chaos.storms,
            0);
  expect_chaos_runs_identical(one, run_fleet(chaos_fleet(1)));  // rerun
  for (int shards : {2, 4, 8}) {
    SCOPED_TRACE(shards);
    expect_chaos_runs_identical(one, run_fleet(chaos_fleet(shards)));
  }
}

TEST(ChaosFleet, InjectionCountsMatchAnIndependentReplay) {
  const FleetConfig config = chaos_fleet(1);
  const FleetResult result = run_fleet(config);

  // Replay the schedule with a fresh engine.  Autoscaling is off, so the
  // node count the real run handed plan_barrier is exactly the initial
  // pool minus the failures injected so far.
  ChaosEngine replay(config.chaos, config.seed, config.tenants.size());
  int nodes = config.cluster.nodes;
  int failures = 0, storms = 0;
  std::size_t burst_opportunities = 0;
  for (int epoch = 0; epoch < result.epochs; ++epoch) {
    const auto plan = replay.plan_barrier(epoch, nodes);
    failures += static_cast<int>(plan.failed_nodes.size());
    nodes -= static_cast<int>(plan.failed_nodes.size());
    burst_opportunities += plan.preempt_tenants.size();
    storms += plan.storm_started ? 1 : 0;
  }
  EXPECT_EQ(result.chaos.node_failures, failures);
  EXPECT_EQ(result.final_nodes, nodes);
  EXPECT_EQ(result.chaos.storms, storms);
  // A planned burst is only recorded when the victim had busy pods, so the
  // recorded bursts are a subset of the scheduled opportunities.
  EXPECT_LE(static_cast<std::size_t>(result.chaos.preemption_bursts),
            burst_opportunities);
  // One flash window per tenant, scheduled at plan time (epoch -1).
  EXPECT_EQ(result.chaos.flash_windows,
            static_cast<int>(config.tenants.size()));

  // The stats are the fold of the event log.
  int ev_failures = 0, ev_bursts = 0, ev_storms = 0, ev_flash = 0;
  int ev_displaced = 0, ev_preempted = 0;
  for (const ChaosEvent& ev : result.chaos_log) {
    switch (ev.family) {
      case ChaosFamily::NodeFailure:
        ++ev_failures;
        ev_displaced += ev.pods;
        EXPECT_GE(ev.node, 0);
        break;
      case ChaosFamily::Preemption:
        ++ev_bursts;
        ev_preempted += ev.pods;
        EXPECT_GT(ev.pods, 0);
        break;
      case ChaosFamily::ColdStorm:
        ++ev_storms;
        EXPECT_DOUBLE_EQ(ev.magnitude, config.chaos.storm_multiplier);
        break;
      case ChaosFamily::FlashCrowd:
        ++ev_flash;
        EXPECT_EQ(ev.epoch, -1);
        EXPECT_DOUBLE_EQ(ev.magnitude, config.chaos.flash_k);
        EXPECT_DOUBLE_EQ(ev.until_s - ev.sim_time,
                         config.chaos.flash_window_s);
        break;
    }
  }
  EXPECT_EQ(result.chaos.node_failures, ev_failures);
  EXPECT_EQ(result.chaos.displaced_pods, ev_displaced);
  EXPECT_EQ(result.chaos.preemption_bursts, ev_bursts);
  EXPECT_EQ(result.chaos.preempted_pods, ev_preempted);
  EXPECT_EQ(result.chaos.storms, ev_storms);
  EXPECT_EQ(result.chaos.flash_windows, ev_flash);
  // Every killed pod's in-flight invocation re-queued exactly once.
  EXPECT_EQ(result.chaos.requeued_invocations,
            static_cast<std::uint64_t>(result.chaos.preempted_pods));
}

TEST(ChaosFleet, DisabledLeavesResultCalm) {
  FleetConfig config = chaos_fleet(2);
  config.chaos = chaos_config_from_spec("none");
  const FleetResult calm = run_fleet(config);
  EXPECT_FALSE(calm.chaos_enabled);
  EXPECT_TRUE(calm.chaos_log.empty());
  EXPECT_EQ(calm.chaos.preempted_pods, 0);
  EXPECT_EQ(calm.chaos.node_failures, 0);
  EXPECT_EQ(calm.chaos.requeued_invocations, 0u);
  // ...and is bit-identical to a config that never mentioned chaos.
  FleetConfig untouched = chaos_fleet(2);
  untouched.chaos = ChaosConfig{};
  const FleetResult base = run_fleet(untouched);
  EXPECT_EQ(calm.fleet_e2e().sorted_samples(),
            base.fleet_e2e().sorted_samples());
  EXPECT_DOUBLE_EQ(calm.fleet_p99, base.fleet_p99);
  // Chaos changed the metrics (otherwise the whole engine is a no-op).
  const FleetResult stormy = run_fleet(chaos_fleet(2));
  EXPECT_NE(calm.fleet_e2e().sorted_samples(),
            stormy.fleet_e2e().sorted_samples());
  // The calm epoch log records calm chaos columns.
  for (const EpochSnapshot& snap : calm.epoch_log) {
    EXPECT_EQ(snap.chaos.failed_nodes, 0);
    EXPECT_EQ(snap.chaos.preempted_pods, 0);
    EXPECT_DOUBLE_EQ(snap.chaos.storm_multiplier, 1.0);
  }
}

TEST(ChaosFleet, FlashCrowdsWorkOnTheStaticPath) {
  FleetConfig config = chaos_fleet(1);
  config.epoch_s = kNoEpochs;  // no barriers at all
  config.chaos = chaos_config_from_spec("flash");
  const FleetResult result = run_fleet(config);
  EXPECT_EQ(result.epochs, 0);
  EXPECT_TRUE(result.chaos_enabled);
  EXPECT_EQ(result.chaos.flash_windows,
            static_cast<int>(config.tenants.size()));
  EXPECT_EQ(result.chaos_log.size(), config.tenants.size());
  EXPECT_EQ(result.chaos.node_failures, 0);
  EXPECT_EQ(result.chaos.preempted_pods, 0);
  EXPECT_EQ(result.chaos.storms, 0);
  // Flash tenants are numbered in tenant order at plan time.
  for (std::size_t t = 0; t < result.chaos_log.size(); ++t) {
    EXPECT_EQ(result.chaos_log[t].tenant, static_cast<int>(t));
  }
}

TEST(ChaosFleet, BarrierFamiliesRequireFiniteEpochs) {
  FleetConfig config = chaos_fleet(1);
  config.epoch_s = kNoEpochs;
  EXPECT_THROW(run_fleet(config), std::invalid_argument);
}

TEST(ChaosFleet, TimelineRowsCarryChaosColumns) {
  FleetConfig config = chaos_fleet(2);
  config.obs.timeline = true;
  const FleetResult result = run_fleet(config);
  ASSERT_FALSE(result.obs.timeline.empty());
  // Every row repeats its epoch's chaos snapshot (epochs are 0-based:
  // epoch_log[e].epoch == e).
  for (const TimelineRow& row : result.obs.timeline) {
    ASSERT_LT(static_cast<std::size_t>(row.epoch), result.epoch_log.size());
    const EpochChaos& chaos =
        result.epoch_log[static_cast<std::size_t>(row.epoch)].chaos;
    EXPECT_EQ(row.chaos_failed_nodes, chaos.failed_nodes);
    EXPECT_EQ(row.chaos_preempted_pods, chaos.preempted_pods);
    EXPECT_EQ(row.chaos_stranded_pods, chaos.stranded_pods);
    EXPECT_DOUBLE_EQ(row.chaos_storm_mult, chaos.storm_multiplier);
  }
  // The CSV header ends with the chaos columns (appended, so pre-chaos
  // consumers keep their column positions).
  const std::string csv = timeline_to_csv(result.obs.timeline);
  const std::string header = csv.substr(0, csv.find('\n'));
  EXPECT_NE(header.find(",chaos_failed_nodes,chaos_preempted_pods,"
                        "chaos_stranded_pods,chaos_storm_mult"),
            std::string::npos);
  const std::string json = timeline_to_json(result.obs.timeline);
  EXPECT_NE(json.find("\"chaos_storm_mult\":"), std::string::npos);
}

TEST(ChaosFleet, JsonCarriesChaosSectionOnlyWhenEnabled) {
  const FleetResult stormy = run_fleet(chaos_fleet(1));
  const std::string json = stormy.to_json();
  EXPECT_NE(json.find("\"chaos\""), std::string::npos);
  EXPECT_NE(json.find("\"preempted_pods\""), std::string::npos);
  EXPECT_NE(json.find("\"flash_windows\""), std::string::npos);
  EXPECT_NE(json.find("\"events\""), std::string::npos);

  FleetConfig calm_config = chaos_fleet(1);
  calm_config.chaos = ChaosConfig{};
  const FleetResult calm = run_fleet(calm_config);
  EXPECT_EQ(calm.to_json().find("\"chaos\""), std::string::npos);
}

}  // namespace
}  // namespace janus
