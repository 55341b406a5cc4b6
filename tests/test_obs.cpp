// Tests for src/obs: the deterministic tracing & metrics plane.
//
// The load-bearing assertions are the byte-identity ones: every exported
// artifact (Chrome trace JSON, span CSV, timeline CSV/JSON) and every
// deterministic counter must be bit-for-bit identical at any shard count
// and across reruns, with the live control plane, autoscaling, and a
// policy mix all active — the same contract the fleet's metrics already
// obey, extended to the observability plane.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "fleet/fleet.hpp"
#include "obs/obs.hpp"
#include "obs/profile.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"

namespace janus {
namespace {

// ------------------------------------------------------------ TraceRing --
TEST(TraceRing, RecordsAndDrainsInOrder) {
  TraceRing ring(8);
  for (std::uint32_t r = 0; r < 5; ++r) {
    SpanRecord span;
    span.request = r;
    ring.record(span);
  }
  EXPECT_EQ(ring.size(), 5u);
  EXPECT_EQ(ring.dropped(), 0u);
  EXPECT_EQ(ring.recorded(), 5u);
  std::vector<SpanRecord> out;
  ring.drain_to(out);
  ASSERT_EQ(out.size(), 5u);
  for (std::uint32_t r = 0; r < 5; ++r) EXPECT_EQ(out[r].request, r);
}

TEST(TraceRing, OverwritesOldestAndCountsDrops) {
  TraceRing ring(4);
  for (std::uint32_t r = 0; r < 10; ++r) {
    SpanRecord span;
    span.request = r;
    ring.record(span);
  }
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.dropped(), 6u);
  EXPECT_EQ(ring.recorded(), 10u);
  std::vector<SpanRecord> out;
  ring.drain_to(out);
  ASSERT_EQ(out.size(), 4u);
  // The four *newest* spans survive, oldest-first.
  for (std::uint32_t i = 0; i < 4; ++i) EXPECT_EQ(out[i].request, 6 + i);
}

TEST(TraceRing, RejectsZeroCapacity) {
  EXPECT_THROW(TraceRing(0), std::invalid_argument);
}

TEST(ObsCounters, MergeIsFieldwiseSum) {
  ObsCounters a;
  a.invocations = 10;
  a.cold_starts = 2;
  a.queued = 1;
  ObsCounters b;
  b.invocations = 5;
  b.spans_recorded = 7;
  b.spans_dropped = 3;
  a.merge(b);
  EXPECT_EQ(a.invocations, 15u);
  EXPECT_EQ(a.cold_starts, 2u);
  EXPECT_EQ(a.queued, 1u);
  EXPECT_EQ(a.spans_recorded, 7u);
  EXPECT_EQ(a.spans_dropped, 3u);
}

// -------------------------------------------------------- PhaseProfiler --
TEST(PhaseProfiler, AccumulatesByNameInFirstBeginOrder) {
  PhaseProfiler prof;
  prof.begin("plan");
  prof.begin("simulate");
  prof.begin("reconcile");
  prof.begin("simulate");  // re-entry folds into the existing row
  prof.end();
  ASSERT_EQ(prof.phases().size(), 3u);
  EXPECT_EQ(prof.phases()[0].name, "plan");
  EXPECT_EQ(prof.phases()[1].name, "simulate");
  EXPECT_EQ(prof.phases()[2].name, "reconcile");
  EXPECT_EQ(prof.phases()[1].entries, 2u);
  for (const auto& phase : prof.phases()) {
    EXPECT_GE(phase.seconds, 0.0);
  }
  EXPECT_GE(prof.total_seconds(), 0.0);
}

// ------------------------------------------------------------ exporters --
std::vector<SpanRecord> two_spans() {
  SpanRecord a;
  a.tenant = 0;
  a.request = 0;
  a.stage = 0;
  a.cold = 1;
  a.start_s = 1.0;
  a.startup_s = 0.45;
  a.exec_s = 0.5;
  SpanRecord b;
  b.tenant = 1;
  b.request = 2;
  b.stage = 1;
  b.queued = 1;
  b.start_s = 2.0;
  b.queued_s = 0.25;
  b.exec_s = 0.75;
  return {a, b};
}

TEST(TraceExport, ChromeJsonShape) {
  const std::string json = trace_to_chrome_json(two_spans());
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("cold-start"), std::string::npos);
  EXPECT_NE(json.find("queue"), std::string::npos);
  EXPECT_NE(json.find("exec"), std::string::npos);
  // One process-name metadata event per tenant present in the stream.
  EXPECT_NE(json.find("process_name"), std::string::npos);
  // Empty input still yields a well-formed document.
  const std::string empty = trace_to_chrome_json({});
  EXPECT_EQ(empty.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(empty.find("]"), std::string::npos);
}

TEST(TraceExport, CsvShape) {
  const std::string csv = trace_to_csv(two_spans());
  EXPECT_EQ(csv.rfind("tenant,request,stage,start_s,queued_s,startup_s,"
                      "exec_s,pod,node,colocated,size_mc,interference,"
                      "cold,queued",
                      0),
            0u);
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 3);  // header + 2 rows
}

TEST(TimelineExport, CsvAndJsonShape) {
  TimelineRow row;
  row.epoch = 3;
  row.sim_time = 15.0;
  row.tenant = 1;
  row.stage = 0;
  row.allocated_pods = 4;
  const std::string csv = timeline_to_csv({row});
  EXPECT_EQ(csv.rfind("epoch,sim_time_s,tenant,stage,observed_peak_busy,"
                      "allocated_pods,pod_mc,coresidency,completed,"
                      "violations,nodes,nodes_ordered,nodes_added,"
                      "nodes_removed,displaced_pods,utilization",
                      0),
            0u);
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 2);
  const std::string json = timeline_to_json({row});
  EXPECT_EQ(json.rfind("[", 0), 0u);
  EXPECT_NE(json.find("\"epoch\":3"), std::string::npos);
  EXPECT_NE(json.find("\"allocated_pods\":4"), std::string::npos);
}

// ------------------------------------------------- fleet-level contract --
/// Fleet-test-grade catalog (shared across runs so each test pays the
/// mean_based synthesis once).
PolicyCatalogConfig tiny_catalog_config() {
  PolicyCatalogConfig cfg;
  cfg.profile_samples = 300;
  cfg.budget_step = 10;
  return cfg;
}

/// Live control plane + autoscaler + a policy mix: the adversarial
/// configuration the determinism assertions must survive.
FleetConfig obs_fleet(int shards, PolicyCatalog* catalog) {
  FleetConfig config;
  config.tenants =
      make_tenant_mix(4, 120, 8.0, ArrivalKind::Poisson, /*mixed_kinds=*/true,
                      {"fixed", "mean_based"});
  config.shards = shards;
  config.seed = 2211;
  config.epoch_s = 5.0;
  config.cluster.nodes = 6;
  config.autoscale.enabled = true;
  config.policy_catalog = tiny_catalog_config();
  config.catalog = catalog;
  config.obs.trace = true;
  config.obs.timeline = true;
  return config;
}

TEST(ObsDeterminism, ArtifactsByteIdenticalAcrossShardsAndReruns) {
  PolicyCatalog catalog(tiny_catalog_config());
  const FleetResult ref = run_fleet(obs_fleet(1, &catalog));
  ASSERT_FALSE(ref.obs.spans.empty());
  ASSERT_FALSE(ref.obs.timeline.empty());
  EXPECT_GT(ref.epochs, 0);
  const std::string ref_trace_json = trace_to_chrome_json(ref.obs.spans);
  const std::string ref_trace_csv = trace_to_csv(ref.obs.spans);
  const std::string ref_tl_json = timeline_to_json(ref.obs.timeline);
  const std::string ref_tl_csv = timeline_to_csv(ref.obs.timeline);
  // shards == 1 is the rerun-identity case; the rest vary the layout.
  for (int shards : {1, 2, 4, 8}) {
    const FleetResult r = run_fleet(obs_fleet(shards, &catalog));
    EXPECT_EQ(trace_to_chrome_json(r.obs.spans), ref_trace_json)
        << "trace JSON diverged at " << shards << " shards";
    EXPECT_EQ(trace_to_csv(r.obs.spans), ref_trace_csv)
        << "trace CSV diverged at " << shards << " shards";
    EXPECT_EQ(timeline_to_json(r.obs.timeline), ref_tl_json)
        << "timeline JSON diverged at " << shards << " shards";
    EXPECT_EQ(timeline_to_csv(r.obs.timeline), ref_tl_csv)
        << "timeline CSV diverged at " << shards << " shards";
    EXPECT_EQ(r.obs.counters.invocations, ref.obs.counters.invocations);
    EXPECT_EQ(r.obs.counters.cold_starts, ref.obs.counters.cold_starts);
    EXPECT_EQ(r.obs.counters.queued, ref.obs.counters.queued);
    EXPECT_EQ(r.obs.counters.spans_recorded,
              ref.obs.counters.spans_recorded);
    EXPECT_EQ(r.obs.counters.spans_dropped, ref.obs.counters.spans_dropped);
    EXPECT_EQ(r.obs.events_executed, ref.obs.events_executed);
  }
}

TEST(ObsDeterminism, RecordingDoesNotPerturbMetrics) {
  PolicyCatalog catalog(tiny_catalog_config());
  FleetConfig off = obs_fleet(2, &catalog);
  off.obs = ObsConfig{};  // everything disabled
  const FleetResult plain = run_fleet(off);
  const FleetResult traced = run_fleet(obs_fleet(2, &catalog));
  EXPECT_EQ(plain.fleet_e2e().sorted_samples(),
            traced.fleet_e2e().sorted_samples());
  EXPECT_DOUBLE_EQ(plain.fleet_p99, traced.fleet_p99);
  EXPECT_DOUBLE_EQ(plain.fleet_mean_cpu_mc, traced.fleet_mean_cpu_mc);
  ASSERT_EQ(plain.epoch_log.size(), traced.epoch_log.size());
  for (std::size_t e = 0; e < plain.epoch_log.size(); ++e) {
    EXPECT_EQ(plain.epoch_log[e].nodes, traced.epoch_log[e].nodes);
    EXPECT_EQ(plain.epoch_log[e].groups_resized,
              traced.epoch_log[e].groups_resized);
  }
  // Off = no sinks armed: nothing recorded, no rows built.
  EXPECT_TRUE(plain.obs.spans.empty());
  EXPECT_TRUE(plain.obs.timeline.empty());
  EXPECT_EQ(plain.obs.counters.queued, 0u);
}

TEST(ObsSampling, StrideSelectsExactlyTheIndexMultiples) {
  PolicyCatalog catalog(tiny_catalog_config());
  const FleetResult full = run_fleet(obs_fleet(2, &catalog));
  FleetConfig strided_config = obs_fleet(2, &catalog);
  strided_config.obs.sample_every = 3;
  const FleetResult strided = run_fleet(strided_config);
  ASSERT_FALSE(strided.obs.spans.empty());
  EXPECT_LT(strided.obs.spans.size(), full.obs.spans.size());
  std::set<std::pair<std::uint32_t, std::uint32_t>> full_keys;
  for (const SpanRecord& span : full.obs.spans) {
    full_keys.insert({span.tenant, span.request});
  }
  for (const SpanRecord& span : strided.obs.spans) {
    EXPECT_EQ(span.request % 3, 0u);
    EXPECT_TRUE(full_keys.count({span.tenant, span.request}))
        << "sampled span is not a subset of the full trace";
  }
}

TEST(ObsRing, BoundedCapacityCountsDropsDeterministically) {
  PolicyCatalog catalog(tiny_catalog_config());
  FleetConfig config = obs_fleet(1, &catalog);
  config.obs.ring_capacity = 16;
  const FleetResult a = run_fleet(config);
  EXPECT_GT(a.obs.counters.spans_dropped, 0u);
  // 4 tenants * 16 slots retained at most.
  EXPECT_LE(a.obs.spans.size(), 4u * 16u);
  EXPECT_EQ(a.obs.counters.spans_recorded,
            static_cast<std::uint64_t>(a.obs.spans.size()) +
                a.obs.counters.spans_dropped);
  config.shards = 4;
  const FleetResult b = run_fleet(config);
  EXPECT_EQ(trace_to_csv(b.obs.spans), trace_to_csv(a.obs.spans));
  EXPECT_EQ(b.obs.counters.spans_dropped, a.obs.counters.spans_dropped);
}

TEST(ObsTimeline, RowsCoverEveryBarrierTenantStageInOrder) {
  PolicyCatalog catalog(tiny_catalog_config());
  const FleetResult result = run_fleet(obs_fleet(2, &catalog));
  ASSERT_FALSE(result.obs.timeline.empty());
  // Rows are sorted by (epoch, tenant, stage) and every epoch contributes
  // the same (tenant, stage) block.
  std::size_t rows_per_epoch = 0;
  while (rows_per_epoch < result.obs.timeline.size() &&
         result.obs.timeline[rows_per_epoch].epoch == 0) {
    ++rows_per_epoch;
  }
  ASSERT_GT(rows_per_epoch, 0u);
  EXPECT_EQ(result.obs.timeline.size(),
            rows_per_epoch * static_cast<std::size_t>(result.epochs));
  std::vector<std::uint64_t> last_completed(4, 0);
  for (std::size_t i = 0; i < result.obs.timeline.size(); ++i) {
    const TimelineRow& row = result.obs.timeline[i];
    if (i > 0) {
      const TimelineRow& prev = result.obs.timeline[i - 1];
      const auto key = std::make_tuple(row.epoch, row.tenant, row.stage);
      const auto prev_key =
          std::make_tuple(prev.epoch, prev.tenant, prev.stage);
      EXPECT_LT(prev_key, key);
    }
    EXPECT_GE(row.allocated_pods, 1);
    EXPECT_GE(row.observed_peak_busy, 0);
    EXPECT_GT(row.pod_mc, 0);
    EXPECT_GE(row.coresidency, 1.0);
    EXPECT_LE(row.violations, row.completed);
    EXPECT_GE(row.completed, last_completed[row.tenant]);
    last_completed[row.tenant] = row.completed;
    EXPECT_GE(row.nodes, 1);
  }
}

TEST(ObsProfile, FleetRunReportsPhases) {
  PolicyCatalog catalog(tiny_catalog_config());
  const auto names_of = [](const FleetResult& r) {
    std::vector<std::string> names;
    for (const auto& phase : r.obs.phases) names.push_back(phase.name);
    return names;
  };
  // The phases tile the whole run_fleet call, so they sum to its wall
  // time: within 5%, either way.
  const auto covers_wall = [](const FleetResult& r) {
    double total = 0.0;
    for (const auto& phase : r.obs.phases) total += phase.seconds;
    return r.wall_seconds > 0.0 && total <= 1.05 * r.wall_seconds &&
           total >= 0.95 * r.wall_seconds;
  };
  // One entry per shard: events that sum to the fleet's, and busy time
  // that no shard can spend outside the run.
  const auto balance_adds_up = [](const FleetResult& r) {
    std::uint64_t events = 0;
    for (const std::uint64_t e : r.obs.shard_events) events += e;
    bool busy_in_wall = true;
    for (const double busy : r.obs.shard_busy_seconds) {
      busy_in_wall = busy_in_wall && busy >= 0.0 && busy <= r.wall_seconds;
    }
    return r.obs.shard_events.size() == static_cast<std::size_t>(r.shards) &&
           r.obs.shard_busy_seconds.size() == r.obs.shard_events.size() &&
           events == r.obs.events_executed && busy_in_wall;
  };
  const FleetResult live = run_fleet(obs_fleet(2, &catalog));
  EXPECT_EQ(names_of(live),
            (std::vector<std::string>{"plan", "setup", "simulate",
                                      "reconcile", "merge"}));
  EXPECT_GT(live.obs.events_executed, 0u);
  EXPECT_GT(live.obs.peak_pending, 0u);
  EXPECT_EQ(live.obs.phases[1].entries, 1u);
  // The epoch loop re-enters simulate once per barrier plus the final
  // drain pass.
  EXPECT_EQ(live.obs.phases[2].entries,
            static_cast<std::uint64_t>(live.epochs) + 1);
  EXPECT_TRUE(covers_wall(live));
  EXPECT_TRUE(balance_adds_up(live));
  // The live path packs every tenant before its shards start.
  EXPECT_EQ(live.obs.plan_wait_seconds, 0.0);

  // The static path builds each tenant right before simulating it, so
  // tenant construction is part of simulate; there is no barrier, hence
  // no separate setup phase and no reconcile.
  FleetConfig fixed = obs_fleet(2, &catalog);
  fixed.epoch_s = kNoEpochs;
  fixed.autoscale.enabled = false;
  fixed.obs = ObsConfig{};
  for (const bool stream : {false, true}) {
    fixed.stream_metrics = stream;
    const FleetResult r = run_fleet(fixed);
    EXPECT_EQ(names_of(r),
              (std::vector<std::string>{"plan", "simulate", "merge"}))
        << (stream ? "streamed" : "static");
    EXPECT_EQ(r.obs.phases[1].entries, 1u);
    EXPECT_TRUE(covers_wall(r));
    EXPECT_TRUE(balance_adds_up(r));
    // Shards wait on the packing watermark inside simulate, never longer.
    EXPECT_GE(r.obs.plan_wait_seconds, 0.0);
    EXPECT_LE(r.obs.plan_wait_seconds,
              fixed.shards * r.obs.phases[1].seconds);
  }
}

TEST(ObsConfigValidation, RejectsBadSamplingStride) {
  PolicyCatalog catalog(tiny_catalog_config());
  FleetConfig config = obs_fleet(1, &catalog);
  config.obs.sample_every = 0;
  EXPECT_THROW(run_fleet(config), std::invalid_argument);
}

TEST(ObsJson, FleetJsonCarriesObsBlock) {
  PolicyCatalog catalog(tiny_catalog_config());
  const FleetResult result = run_fleet(obs_fleet(2, &catalog));
  const std::string json = result.to_json();
  EXPECT_NE(json.find("\"obs\""), std::string::npos);
  EXPECT_NE(json.find("\"events_executed\""), std::string::npos);
  EXPECT_NE(json.find("\"spans_recorded\""), std::string::npos);
  EXPECT_NE(json.find("\"timeline_rows\""), std::string::npos);
  EXPECT_NE(json.find("\"phases\""), std::string::npos);
  EXPECT_NE(json.find("\"plan_wait_seconds\""), std::string::npos);
  EXPECT_NE(json.find("\"shard_events\": ["), std::string::npos);
  EXPECT_NE(json.find("\"shard_busy_seconds\": ["), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"simulate\""), std::string::npos);
  // The calendar gauge is armed only with obs: a default run did not
  // measure peak_pending, so its JSON omits the key rather than print 0.
  FleetConfig quiet = obs_fleet(2, &catalog);
  quiet.obs = ObsConfig{};
  const std::string quiet_json = run_fleet(quiet).to_json();
  EXPECT_NE(quiet_json.find("\"obs\""), std::string::npos);
  EXPECT_NE(quiet_json.find("\"events_executed\""), std::string::npos);
  EXPECT_EQ(quiet_json.find("\"peak_pending\""), std::string::npos);
}

TEST(ObsJson, ArmedRunReportsPeakPending) {
  PolicyCatalog catalog(tiny_catalog_config());
  for (const bool live : {true, false}) {
    SCOPED_TRACE(live ? "live" : "static");
    FleetConfig config = obs_fleet(2, &catalog);
    if (!live) config.epoch_s = kNoEpochs;
    config.obs.trace = false;  // the timeline pillar alone arms the gauge
    const FleetResult result = run_fleet(config);
    ASSERT_GT(result.obs.peak_pending, 0u);
    const std::string key =
        "\"peak_pending\": " + std::to_string(result.obs.peak_pending) + ",";
    EXPECT_NE(result.to_json().find(key), std::string::npos);
  }
}

}  // namespace
}  // namespace janus
