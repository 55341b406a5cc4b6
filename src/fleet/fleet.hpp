// Sharded multi-tenant fleet simulator.
//
// Runs N tenant workloads concurrently: tenants are dealt round-robin
// across S shards, each shard builds and drives its tenants from the
// shared ThreadPool, and every tenant's randomness derives from the fleet
// seed and its tenant index alone — so fleet results are bit-identical
// regardless of the shard count.  Both paths are tenant-major: a shard
// runs one tenant's events at a time, so that tenant's state stays
// cache-hot.  On the static path (epoch_s = kNoEpochs) a shard runs its
// tenants to completion one at a time on one calendar, Platform and serve
// state, each reset() between tenants.  Live runs keep every unfinished tenant resident, because each
// barrier reconciles them all; each tenant has a calendar of its own over
// its shard's shared slot pool, and between barriers the shard drains its
// tenants' calendars one after another up to the barrier.
//
// Each tenant sizes its stages with a pluggable policy (fleet/policies):
// the default "fixed" allocation, or any of the paper's §V systems —
// Janus variants, ORION, GrandSLAM, mean-based, Optimal — so policy mixes
// can be compared under shared-cluster contention.  Hints tables and
// profiles are synthesized once per (workload, policy) by a PolicyCatalog
// and shared read-only across tenants and shards.
//
// Tenants contend through a shared ClusterCapacity driven by the epoch
// control plane (fleet/control): the plan-time packing seeds each stage's
// pod group from Little's law at the policy's plan allocation, and — when
// epoch_s is finite — every epoch
// all shards pause at a reconciliation barrier, publish the pod counts
// their Platforms actually ran, and receive the repacked (and possibly
// autoscaled) co-residency back through live EpochFeeds, so interference
// draws shift mid-run.  epoch_s = kNoEpochs freezes the plan packing: the
// old static pipeline as a one-epoch special case of the same code.
// The plan runs in two passes on the caller thread.  Pass 1 validates and
// sizes every tenant (the only pass that may reject a tenant or touch the
// policy catalog) before any shard starts; pass 2 packs the sized tenants
// onto the cluster in tenant order.  On the static path pass 2 overlaps
// the simulation: it publishes a release/acquire watermark after each
// tenant, and a shard builds tenant t once the watermark passes t (a
// static tenant's feed is final once it is placed).  The live path packs
// every tenant before its first barrier.
// Every tenant folds once, on its shard, as soon as it can no longer change
// (static path: when its calendar drains; live path: at the first barrier
// after its last request completes) into its TenantResult row and its
// shard's totals and histogram.  The merge concatenates: totals and
// histograms add, and rows append in tenant order.  It builds no fleet-wide
// latency vector: the fleet percentiles are exact order statistics selected
// across the rows (EmpiricalDistribution::percentile_of), and the merged
// distribution is built only on request (FleetResult::fleet_e2e()).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "exp/runner.hpp"
#include "fleet/arrivals.hpp"
#include "fleet/chaos.hpp"
#include "fleet/cluster.hpp"
#include "fleet/control.hpp"
#include "fleet/policies.hpp"
#include "fleet/slice.hpp"
#include "obs/obs.hpp"
#include "obs/profile.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"
#include "stats/histogram.hpp"

namespace janus {

struct TenantSpec {
  std::string name;
  std::string workload = "ia";  // "ia" | "va"
  /// Open-loop arrival process (rate must be > 0; the fleet has no
  /// closed-loop tenants — provider traffic does not wait politely).
  ArrivalSpec arrivals{};
  int requests = 1000;
  /// End-to-end SLO; 0 = the workload's default at `concurrency`.
  Seconds slo = 0.0;
  Concurrency concurrency = 1;
  /// Sizing policy by catalog name (fleet_policy_names()): "fixed" (the
  /// default, reproducing the PR 2-4 fixed-allocation fleet bit-for-bit),
  /// "janus"/"janus-"/"janus+", "orion", "grandslam"/"grandslam+",
  /// "mean_based", or "optimal".  Unknown names fail run_fleet up front.
  std::string policy = "fixed";
  /// Per-stage allocation of the "fixed" policy (ignored by the others).
  Millicores size_mc = 1800;
  /// > 0 makes the tenant's allocations react *directly* to the epoch
  /// control plane: the policy's size is scaled by
  /// 1 + alpha * (live stage co-residency - 1), clamped to Kmax (see
  /// ContentionAwarePolicy).  0 (default) leaves the policy untouched.
  double contention_alpha = 0.0;
};

/// Upper bound on FleetConfig::shards.  Each shard is a thread, so an
/// unbounded count would exhaust the host's thread space before any
/// tenant runs.
inline constexpr int kMaxFleetShards = 1024;

struct FleetConfig {
  std::vector<TenantSpec> tenants;
  int shards = 1;
  /// Streaming merge: a tenant's fold keeps no per-tenant row, so memory
  /// stays O(active tenants) instead of O(total requests).  The cost is
  /// per-tenant reporting: no TenantResult rows, fleet_e2e() is empty,
  /// and the fleet percentiles come from the merged histogram
  /// (Histogram::percentile) rather than exact order statistics.
  /// Requires span tracing off.  The epoch audit trail, counter set, chaos
  /// record, and scalar fleet metrics are bit-identical to the default path.
  bool stream_metrics = false;
  std::uint64_t seed = 2026;
  ClusterConfig cluster{};
  /// Per-tenant platform template (each tenant gets Platform state of its
  /// own, on a Platform no other shard touches, so shards never share
  /// mutable simulator state).
  PlatformConfig platform{};
  /// Fleet-wide latency histogram layout; every tenant uses the same
  /// layout so the histograms merge exactly.
  double hist_max_s = 10.0;
  std::size_t hist_bins = 50;
  /// Simulated seconds between cross-shard reconciliation barriers; the
  /// default (kNoEpochs = infinity) freezes the plan-time packing — the
  /// pre-control-plane static pipeline as a one-epoch special case.
  Seconds epoch_s = kNoEpochs;
  /// Node-pool autoscaler (acts at epoch barriers; inert without them).
  AutoscaleConfig autoscale{};
  /// Offline-synthesis knobs for the per-tenant sizing policies (profile
  /// samples, Janus budget grid); only consulted when `catalog` is null.
  PolicyCatalogConfig policy_catalog{};
  /// Optional caller-owned catalog shared across run_fleet calls so a
  /// shard sweep pays the (workload, policy) synthesis cost once; null =
  /// build a private one.  The catalog's caches do not affect results,
  /// only the time spent building them.
  PolicyCatalog* catalog = nullptr;
  /// Observability plane (span tracing, epoch timeline, sampling, ring
  /// sizing).  Off by default: the hot-path hooks then cost one
  /// never-taken null-pointer branch per event.  Everything recorded is
  /// deterministic — see FleetObs for the machine-dependent carve-outs.
  ObsConfig obs{};
  /// Deterministic chaos engine (fleet/chaos): node failures, preemption,
  /// cold-start storms, flash crowds.  All families off (the default)
  /// takes zero different branches from a chaos-free build; the barrier
  /// families require a finite epoch_s.
  ChaosConfig chaos{};
};

/// The run's observability record.  Split by determinism class:
/// `counters`, `spans`, `timeline`, and `events_executed` are pure
/// functions of (seed, config) — merged in tenant-index order and
/// bit-identical at any shard count — while `phases` (wall-clock) and
/// `peak_pending` (calendar occupancy, which depends on which tenants
/// share a shard) are machine/layout-dependent, the same carve-out
/// FleetResult makes for wall_seconds.
struct FleetObs {
  ObsCounters counters;
  /// Sampled spans, drained from the per-tenant rings in tenant order
  /// (empty unless FleetConfig::obs.trace).
  std::vector<SpanRecord> spans;
  /// One row per (barrier, tenant, stage) (empty unless obs.timeline).
  std::vector<TimelineRow> timeline;
  /// Σ events executed across tenant calendars (a per-tenant sum, so it is
  /// shard-independent).
  std::uint64_t events_executed = 0;
  /// Events executed per shard, in shard order; they sum to
  /// events_executed.  Deterministic for a given shard count (a shard's
  /// tenants are t ≡ s mod shards), so max/mean is the shards' simulated
  /// load balance.  run_fleet only: slices leave it empty.
  std::vector<std::uint64_t> shard_events;
  // ---- Machine-dependent (reporting only, never compared bit-for-bit).
  /// Wall-clock breakdown of run_fleet, in first-entry order; the phases
  /// tile the call, so they sum to FleetResult::wall_seconds.  Static
  /// runs: plan (validation and sizing) / simulate (packing, overlapped
  /// with the shards, and tenant construction included) / merge.  Live
  /// runs: plan (packing included) / setup (the shards' tenant
  /// construction) / simulate / reconcile / merge.
  std::vector<PhaseProfiler::Phase> phases;
  /// Static runs: wall seconds the shards spent waiting for the packing
  /// to place their next tenant, summed over shards (0 on the live path,
  /// which packs before any shard starts).
  double plan_wait_seconds = 0.0;
  /// Wall seconds each shard's thread spent building, simulating, retiring
  /// and folding its tenants, in shard order; waits on the packing
  /// watermark and on barriers are excluded.  run_fleet only: slices leave
  /// it empty.
  std::vector<double> shard_busy_seconds;
  /// Max calendar occupancy (0 when obs is off, and then absent from
  /// FleetResult::to_json).  Every tenant runs on a calendar of its own, on
  /// both paths, so this is the deepest single-tenant calendar, while
  /// events_executed and sim_end_s cover every tenant: the three do not
  /// describe one calendar's event density.
  std::uint64_t peak_pending = 0;
};

struct FleetResult {
  std::vector<TenantResult> tenants;
  Histogram fleet_hist{0.0, 1.0, 1};
  std::size_t total_requests = 0;
  double fleet_violation_rate = 0.0;
  double fleet_mean_cpu_mc = 0.0;
  /// fleet_percentile(50) and fleet_percentile(99) (0 on an empty fleet).
  double fleet_p50 = 0.0;
  double fleet_p99 = 0.0;
  /// Simulated time of the fleet's last executed event (the makespan).
  /// Deterministic and shard-independent, unlike wall_seconds —
  /// achieved throughput is total_requests / sim_end_s.
  Seconds sim_end_s = 0.0;
  double cluster_utilization = 0.0;
  int overcommitted_pods = 0;
  int shards = 0;
  /// True when the run used the streaming merge (FleetConfig); per-tenant
  /// rows are then absent and p50/p99 are histogram-interpolated.
  bool streamed = false;
  // ---- Control plane (all deterministic; part of the bit-identical set).
  /// Reconciliation barriers that ran (0 on the static path).
  int epochs = 0;
  int final_nodes = 0;
  int nodes_added = 0;
  int nodes_removed = 0;
  /// Per-barrier audit trail (empty on the static path).
  std::vector<EpochSnapshot> epoch_log;
  // ---- Chaos (deterministic; part of the bit-identical set). ----
  /// True when any chaos family was armed for this run.
  bool chaos_enabled = false;
  /// Aggregate chaos tallies (all zeros when chaos is off).
  ChaosStats chaos;
  /// Every injected event in injection order (flash windows first — they
  /// are scheduled at plan time — then barrier events by epoch).
  std::vector<ChaosEvent> chaos_log;
  /// Wall-clock of the whole run_fleet call, validation through merge
  /// (not part of the deterministic metric set — machine-dependent, like
  /// obs.phases).
  double wall_seconds = 0.0;
  /// Observability record (always carries phases + events_executed; spans
  /// and timeline fill in when the matching FleetConfig::obs pillar is on).
  FleetObs obs;

  /// Every request's end-to-end latency, merged from the tenant rows in
  /// tenant order (one EmpiricalDistribution::merge_all, built per call);
  /// empty when the run streamed.
  EmpiricalDistribution fleet_e2e() const;

  /// The fleet's p-th latency percentile, p in [0, 100]: exactly
  /// fleet_e2e().percentile(p) on a dense run, selected across the rows
  /// without merging them; fleet_hist.percentile(p) on a streamed run.
  double fleet_percentile(double p) const;

  /// Stable machine-readable rendering (for `janus_cli fleet --json` and
  /// the fleet benches).  obs.peak_pending is rendered only when the run
  /// measured it (an armed gauge reads >= 1 on any run with a request).
  std::string to_json() const;
};

/// Runs the whole fleet; deterministic for a fixed (config minus shards)
/// at any shard count.  Shards build and run their tenants on an
/// internally owned ThreadPool.
FleetResult run_fleet(const FleetConfig& config);

/// Executes tenants [lo, hi) of `config` in this process and returns the
/// slice outcome — the worker half of the file-based sharding path
/// (`janus_cli fleet --shard-slice LO:HI --result-bin FILE`).  Plans the
/// whole fleet (the plan is a pure function of the config, so every slice
/// process derives the identical packing) but simulates only the slice.
/// Restricted to the static path (epoch_s == kNoEpochs): a live barrier
/// reconciles every tenant's observations, so it needs run_fleet.
FleetSliceOutcome run_fleet_slice(const FleetConfig& config, std::size_t lo,
                                  std::size_t hi);

/// Merges slice outcomes (contiguous, covering every tenant exactly once)
/// into a FleetResult by concatenation in tenant-index order — the single
/// merge path shared by run_fleet itself and `janus_cli fleet
/// --merge-slices`.
/// Bit-identical to an in-process run of the same config.
FleetResult merge_fleet_slices(const FleetConfig& config,
                               std::vector<FleetSliceOutcome> slices);

/// Deterministic heterogeneous tenant catalog used by the CLI and the
/// fleet benches: alternates IA/VA, staggers rates around `base_rate`,
/// and — when `mixed_kinds` — cycles Poisson/MMPP/diurnal arrivals.
/// `policies`, when non-empty, is dealt round-robin over the tenants
/// (tenant i gets policies[i % size]); every name must be a catalog
/// policy (fleet_policy_names()), validated here so front ends get the
/// one-line unknown-policy error before any simulation work starts.
std::vector<TenantSpec> make_tenant_mix(
    int tenants, int requests_each, double base_rate, ArrivalKind kind,
    bool mixed_kinds, const std::vector<std::string>& policies = {});

}  // namespace janus
