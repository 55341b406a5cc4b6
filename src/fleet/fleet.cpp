#include "fleet/fleet.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <iterator>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "common/log.hpp"
#include "common/thread_pool.hpp"
#include "model/workloads.hpp"
#include "sim/engine.hpp"

namespace janus {

namespace {

/// Per-tenant seed from the fleet seed and the tenant index alone: shard
/// assignment must never leak into the randomness.
std::uint64_t tenant_seed(std::uint64_t fleet_seed, std::size_t tenant) {
  return SplitMix64(fleet_seed ^
                    (0x9e3779b97f4a7c15ULL * (tenant + 1)))
      .next();
}

/// One distinct workload of the fleet, built once at plan time: the spec
/// and its chain models in chain order (what each tenant's Platform
/// hosts).  Shards only read it.
struct InternedWorkload {
  WorkloadSpec spec;
  std::vector<FunctionModel> chain;
};

/// What the plan derives for one tenant (shard-independent): a pointer to
/// its interned workload and the plan's own outputs.  Everything else a
/// run needs is built on the shard by build_tenant.
struct TenantSetup {
  const InternedWorkload* workload = nullptr;
  Seconds slo = 0.0;
  /// The arrival spec after the chaos flash-crowd rewrite; null when no
  /// rewrite ran and the tenant's own spec applies.
  std::unique_ptr<const ArrivalSpec> flashed;
};

double seconds_since(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       since)
      .count();
}

std::string fmt_double(double v) {
  std::ostringstream os;
  os.precision(10);
  os << v;
  return os.str();
}

void validate_fleet(const FleetConfig& config) {
  require(!config.tenants.empty(), "fleet needs >= 1 tenant");
  require(config.shards >= 1, "fleet needs >= 1 shard");
  require(config.hist_max_s > 0.0 && config.hist_bins > 0,
          "fleet histogram layout must be non-degenerate");
  require(config.obs.sample_every >= 1, "obs sampling stride must be >= 1");
  if (config.chaos.needs_epochs()) {
    require(config.epoch_s != kNoEpochs,
            "chaos barrier families (failures, preemption, storms) need a "
            "finite epoch_s");
  }
  // Span rings are per tenant, O(tenants) state: exactly what the
  // streaming merge exists to avoid.
  require(!(config.stream_metrics && config.obs.trace),
          "the streaming merge keeps O(active tenants) state; span tracing "
          "keeps a ring per tenant");
}

/// The shard-independent plan, built in two passes on the caller thread.
/// Pass 1 (plan_fleet) validates and sizes every tenant before any shard
/// exists; pass 2 (pack_tenants) places the sized tenants on the control
/// plane.  Shard threads only read the plan, and on the static path they
/// start while pass 2 still runs: tenant t's setup is final once the
/// packing watermark passes t (see execute_slice).
struct FleetPlan {
  std::unique_ptr<PolicyCatalog> own_catalog;
  PolicyCatalog* catalog = nullptr;
  std::unique_ptr<ControlPlane> control;
  std::unique_ptr<ChaosEngine> chaos_eng;
  /// One entry per distinct workload name; std::map nodes never move, so
  /// the TenantSetup pointers into it stay valid.
  std::map<std::string, InternedWorkload> workloads;
  std::vector<TenantSetup> setups;
  /// Pass 1's packing input, one entry per chain stage, tenants in index
  /// order; each tenant's chain length comes from its interned workload.
  /// Freed once pass 2 has placed every tenant.
  std::vector<StagePlan> stages;
  /// Tenant t's co-location feed: null until pass 2 places tenant t,
  /// never changed by the plan afterwards.
  std::vector<EpochFeed*> feeds;
};

/// Pass 1: every check that can reject a tenant, workload interning, and
/// the plan-time sizing.  It is the only pass that touches the policy
/// catalog, so the catalog is read-only once shards run.
FleetPlan plan_fleet(const FleetConfig& config) {
  const std::size_t n = config.tenants.size();
  FleetPlan plan;
  // One policy catalog serves every tenant: profiles and hints bundles are
  // synthesized once per (workload, policy) here, before any shard thread
  // exists, and only read afterwards.
  if (config.catalog != nullptr) {
    plan.catalog = config.catalog;
  } else {
    plan.own_catalog = std::make_unique<PolicyCatalog>(config.policy_catalog);
    plan.catalog = plan.own_catalog.get();
  }
  plan.control = std::make_unique<ControlPlane>(
      config.cluster, ControlConfig{config.epoch_s, config.autoscale});
  // Built only when a family is armed: a calm run never constructs the
  // engine, so chaos-off takes zero different branches (and stays
  // bit-identical to builds that predate chaos).
  if (config.chaos.enabled()) {
    plan.chaos_eng =
        std::make_unique<ChaosEngine>(config.chaos, config.seed, n);
  }
  plan.setups.reserve(n);
  plan.feeds.assign(n, nullptr);
  for (std::size_t t = 0; t < n; ++t) {
    const TenantSpec& spec = config.tenants[t];
    require(spec.requests > 0, "tenant needs >= 1 request");
    require(spec.contention_alpha >= 0.0,
            "tenant contention alpha must be >= 0");
    require_fleet_policy(spec.policy);
    // Validate the arrival spec *now*: the fleet has no closed-loop
    // tenants, and a bad spec must fail here, not as NaN inside the pod
    // estimate or as a throw on a shard thread.
    validate_arrivals(spec.arrivals);
    auto [it, fresh] = plan.workloads.try_emplace(spec.workload);
    InternedWorkload& workload = it->second;
    if (fresh) {
      workload.spec = workload_by_name(spec.workload);
      workload.chain = workload.spec.chain_models();
    }
    TenantSetup& setup = plan.setups.emplace_back();
    setup.workload = &workload;
    setup.slo = spec.slo > 0.0 ? spec.slo
                               : workload.spec.slo(spec.concurrency);
    if (config.chaos.flash_crowds) {
      // Flash crowds rewrite the arrival spec at plan time (the window
      // must live inside the arrival process).  The pod plan below
      // deliberately keeps using mean_rate(), which excludes the window:
      // the crowd is a transient the capacity plan does not see coming.
      setup.flashed = std::make_unique<const ArrivalSpec>(
          plan.chaos_eng->apply_flash(t, spec.arrivals));
      validate_arrivals(*setup.flashed);
    }

    // Steady-state pods per stage (Little's law over the arrival process's
    // long-run rate) at the policy's plan-time allocation seed the control
    // plane's packing; its feed becomes the tenant's co-location source —
    // frozen on the static path, shifted at every barrier on the live
    // path.
    const std::vector<Millicores> plan_mc = plan.catalog->plan_sizes(
        spec.policy, workload.spec, setup.slo, spec.concurrency,
        spec.size_mc);
    const double rate = spec.arrivals.mean_rate();
    for (std::size_t s = 0; s < workload.chain.size(); ++s) {
      const Seconds stage_s =
          workload.chain[s].exec_time(plan_mc[s], spec.concurrency, 1.0, 1.0);
      const int pods = std::max(1, static_cast<int>(std::ceil(rate * stage_s)));
      plan.stages.push_back(StagePlan{plan_mc[s], pods});
    }
  }
  return plan;
}

/// Pass 2: places every tenant on the control plane in index order and
/// calls `publish(t + 1)` once tenant t's feed is stored.  Placement is
/// serial and in tenant order, so the packing is the same at any shard
/// count.
template <typename Publish>
void pack_tenants(FleetPlan& plan, Publish&& publish) {
  const StagePlan* next = plan.stages.data();
  for (std::size_t t = 0; t < plan.setups.size(); ++t) {
    const std::size_t stages = plan.setups[t].workload->chain.size();
    plan.feeds[t] = &plan.control->plan_tenant(next, stages);
    next += stages;
    publish(t + 1);
  }
  std::vector<StagePlan>().swap(plan.stages);
}

/// Shard s's share of tenants [lo, hi): t ≡ s (mod shards), in increasing
/// t.  The first such t, or >= hi when the shard has none.
std::size_t shard_first(std::size_t s, std::size_t shards, std::size_t lo) {
  return lo + (s + shards - lo % shards) % shards;
}

/// One shard's subtotals.  The fold fields are integer counts or integer-
/// valued sums, so any grouping of partials merges to the same bits.
struct FoldPartial {
  Histogram hist{0.0, 1.0, 1};
  std::uint64_t requests = 0;
  std::uint64_t violations = 0;
  double cpu = 0.0;
  ObsCounters counters;
  std::uint64_t requeued = 0;  // chaos-preempted invocations, retried
  std::uint64_t events = 0;
  Seconds sim_end = 0.0;
  EngineObs engine_obs;
  /// Wall seconds the shard spent waiting on the packing watermark, and
  /// working (machine-dependent, reporting only).
  double plan_wait_s = 0.0;
  double busy_s = 0.0;

  void add_engine(const SimEngine& engine) {
    events += engine.executed();
    sim_end = std::max(sim_end, engine.last_event_s());
  }
};

/// One tenant's simulator state from build to fold.  It must not move: the
/// obs hook and the scheduled closures point into it.
struct TenantSim {
  RunResult result;
  std::unique_ptr<Platform> platform;
  std::unique_ptr<SizingPolicy> policy;
  ObsCounters counters;
};

/// Builds tenant t on `engine`: its Platform, its sizing policy, and its
/// whole request stream, scheduled by serve_workload.  The plan stores no
/// RunConfig; it is built here, and serve_workload keeps no pointer into it.
void build_tenant(const FleetConfig& config, const FleetPlan& plan,
                  std::size_t t, SimEngine& engine, TraceRing* ring,
                  TenantSim& sim) {
  const TenantSetup& setup = plan.setups[t];
  const InternedWorkload& workload = *setup.workload;
  const TenantSpec& spec = config.tenants[t];
  RunConfig rc;
  rc.slo = setup.slo;
  rc.concurrency = spec.concurrency;
  rc.requests = spec.requests;
  rc.seed = tenant_seed(config.seed, t);
  // Trace replay carries its own rhythm: the open-loop gate just needs a
  // positive rate (the process ignores it), so use the trace's mean.
  rc.open_loop_rate = spec.arrivals.kind == ArrivalKind::Trace
                          ? spec.arrivals.mean_rate()
                          : spec.arrivals.rate;
  rc.arrivals = setup.flashed ? *setup.flashed : spec.arrivals;
  rc.platform = config.platform;
  rc.colocation_is_default = false;
  // The fleet merge reads only the flat e2e/cpu/violated columns, so
  // per-stage detail stays off — at six-figure tenant counts the detail
  // columns would dominate peak RSS for nothing.
  rc.record_stage_detail = false;
  rc.colocation_provider = plan.feeds[t];
  if (ring != nullptr) {
    rc.trace_ring = ring;
    rc.trace_sample_every = config.obs.sample_every;
    rc.trace_tenant = static_cast<std::uint32_t>(t);
  }
  PlatformConfig pc = rc.platform;
  pc.seed = rc.seed ^ 0x9e3779b97f4a7c15ULL;
  sim.platform = std::make_unique<Platform>(engine, pc, workload.chain,
                                            rc.interference);
  if (config.obs.enabled()) sim.platform->set_obs(&sim.counters);
  // Every shard calls make_policy at once, and the catalog's maps are
  // unsynchronized.  That is safe only because pass 1's plan_sizes call
  // (plan_fleet) already created every entry make_policy reads for this
  // (policy, workload, slo, conc): here the catalog is only looked up.
  std::unique_ptr<SizingPolicy> policy =
      plan.catalog->make_policy(spec.policy, workload.spec, rc.slo,
                                spec.concurrency, spec.size_mc);
  if (spec.contention_alpha > 0.0) {
    policy = std::make_unique<ContentionAwarePolicy>(
        std::move(policy), *plan.feeds[t], spec.contention_alpha,
        plan.catalog->config().kmax);
  }
  sim.policy = std::move(policy);
  serve_workload(engine, *sim.platform, workload.spec, *sim.policy, rc,
                 sim.result);
}

/// Retires a tenant whose events have all fired: platform tallies go into
/// its counters and the shard's requeue count; platform, policy and serve
/// state are freed (the log stays for fold_tenant).
void retire_tenant(TenantSim& sim, FoldPartial& part) {
  sim.counters.invocations = sim.platform->invocations();
  sim.counters.cold_starts = sim.platform->cold_starts();
  part.requeued += sim.platform->requeued();
  sim.result.serve_state.reset();
  sim.platform.reset();
  sim.policy.reset();
}

/// The one fold: retired tenant t becomes its share of the shard's `part`
/// and, when `row` is non-null (dense runs), its TenantResult — everything
/// but co-residency, which reports the final packing and is filled after
/// the run.  Frees its log and returns its SLO violations.
std::uint64_t fold_tenant(const FleetConfig& config, const FleetPlan& plan,
                          std::size_t t, TenantSim& sim, FoldPartial& part,
                          TenantResult* row) {
  const RequestLog& log = sim.result.requests;
  std::uint64_t viol = 0;
  double cpu = 0.0;
  std::vector<double> e2e;  // the row's samples
  if (row != nullptr) e2e.reserve(log.size());
  for (const auto& req : log) {
    viol += req.violated ? 1 : 0;
    cpu += req.cpu_mc;
    part.hist.add(req.e2e);
    if (row != nullptr) e2e.push_back(req.e2e);
  }
  part.requests += log.size();
  part.violations += viol;
  part.cpu += cpu;
  part.counters.merge(sim.counters);
  // The log goes before the row sorts, so the sort's scratch buffer is
  // never resident next to it.
  sim.result.requests.release();
  if (row != nullptr) {
    const TenantSpec& spec = config.tenants[t];
    const double requests = static_cast<double>(log.size());
    row->name = spec.name.empty() ? spec.workload + "-" + std::to_string(t)
                                  : spec.name;
    row->workload = spec.workload;
    row->policy = spec.policy;
    row->arrivals = spec.arrivals.kind;
    row->requests = static_cast<int>(log.size());
    row->slo = plan.setups[t].slo;
    row->violation_rate = static_cast<double>(viol) / requests;
    row->mean_cpu_mc = cpu / requests;
    row->e2e = EmpiricalDistribution(std::move(e2e));
    row->e2e_p50 = row->e2e.percentile(50.0);
    row->e2e_p99 = row->e2e.percentile(99.0);
  }
  return viol;
}

/// The live path, tenant-major between barriers.  Every tenant has its own
/// calendar, built on its shard's thread over the shard's slot pool.  At
/// each barrier interval shard s drains its unfinished tenants one at a
/// time, in increasing t, each with run_until(epoch_end), so one tenant's
/// Platform, serve slab, policy and log stay cache-hot while its events
/// fire.  Every tenant stays resident until it finishes, because each
/// barrier reconciles all tenants' observed demand (and chaos may preempt
/// any of them).  A tenant retires and folds at the first barrier after its
/// last request completes, and its calendar is freed there: it holds
/// nothing, since Platform schedules only completions and the arrivals stop
/// at the last request.  The rest retire after the last barrier.
///
/// Why results match one shared calendar per shard, bit for bit: a tenant
/// schedules only onto its own calendar, and barrier actions
/// (preempt_busy, set_startup_multiplier, the feed updates) schedule
/// nothing.  run_until leaves every calendar's now() at epoch_end, exactly
/// as the shared calendar did, so a schedule_at clamp sees the same time.
/// So each tenant's own events run in the same (time, seq) order as
/// before; other tenants' events only ever interleaved with them.
void run_live(const FleetConfig& config, FleetPlan& plan, ThreadPool& pool,
              std::size_t lo, std::size_t hi, PhaseProfiler& prof,
              std::vector<TraceRing>& rings,
              std::vector<FoldPartial>& partials, FleetSliceOutcome& out) {
  const std::size_t n = hi - lo;
  const std::size_t shards = partials.size();
  ControlPlane& control = *plan.control;
  ChaosEngine* chaos_eng = plan.chaos_eng.get();
  std::vector<TenantSim> sims(n);
  // The pools outlive the calendars that borrow them; each is driven only
  // by its shard's thread.
  std::vector<SimEngine::SlotPool> pools(shards);
  std::vector<std::unique_ptr<SimEngine>> engines(n);
  // Runs body(s) on every shard, adding its wall time to the shard's busy_s.
  const auto on_shards = [&](const auto& body) {
    pool.parallel_for(shards, [&](std::size_t s) {
      const auto since = std::chrono::steady_clock::now();
      body(s);
      partials[s].busy_s += seconds_since(since);
    });
  };

  prof.begin("setup");
  on_shards([&](std::size_t s) {
    for (std::size_t t = shard_first(s, shards, lo); t < hi; t += shards) {
      const std::size_t i = t - lo;
      engines[i] = std::make_unique<SimEngine>(pools[s]);
      if (config.obs.enabled()) engines[i]->set_obs(&partials[s].engine_obs);
      build_tenant(config, plan, t, *engines[i],
                   rings.empty() ? nullptr : &rings[i], sims[i]);
    }
  });

  // Per-tenant cursor over the (append-only) request records so the
  // timeline's cumulative SLO attainment costs one pass over new records
  // per barrier, not a rescan.
  std::vector<std::size_t> slo_cursor(n, 0);
  std::vector<std::uint64_t> slo_violations(n, 0);
  const auto retire_shards = [&](bool finished_only) {
    on_shards([&](std::size_t s) {
      for (std::size_t t = shard_first(s, shards, lo); t < hi; t += shards) {
        const std::size_t i = t - lo;
        const std::size_t done = sims[i].result.requests.size();
        if (!sims[i].platform ||
            (finished_only &&
             done != static_cast<std::size_t>(config.tenants[t].requests))) {
          continue;
        }
        retire_tenant(sims[i], partials[s]);
        slo_cursor[i] = done;
        slo_violations[i] =
            fold_tenant(config, plan, t, sims[i], partials[s],
                        out.stream ? nullptr : &out.tenants[i]);
        partials[s].add_engine(*engines[i]);
        engines[i].reset();
      }
    });
  };

  for (Seconds epoch_end = control.epoch_s();;
       epoch_end += control.epoch_s()) {
    prof.begin("simulate");
    on_shards([&](std::size_t s) {
      for (std::size_t t = shard_first(s, shards, lo); t < hi; t += shards) {
        if (engines[t - lo]) engines[t - lo]->run_until(epoch_end);
      }
    });
    bool pending = false;
    for (const auto& engine : engines) {
      pending = pending || (engine && engine->pending() > 0);
    }
    if (!pending) break;
    prof.begin("reconcile");
    // Publish the per-(tenant, stage) pod demand the Platforms actually
    // observed this epoch.  An already retired tenant publishes zeros —
    // exactly what its idle platform would have reported.
    std::vector<std::vector<int>> observed(n);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t stages = plan.feeds[lo + i]->stages();
      observed[i].assign(stages, 0);
      if (Platform* platform = sims[i].platform.get()) {
        for (std::size_t s = 0; s < stages; ++s) {
          observed[i][s] = platform->peak_busy_for(static_cast<int>(s));
        }
        platform->reset_peak_busy();
      }
    }
    // Chaos injection happens here — all shards paused, observations
    // already collected — so every injection is a pure function of the
    // (deterministic) barrier state and the chaos schedule.
    EpochChaos epoch_chaos;
    if (chaos_eng != nullptr) {
      const int epoch_idx = control.epochs_run();
      const ChaosEngine::BarrierPlan barrier =
          chaos_eng->plan_barrier(epoch_idx, control.cluster().nodes());
      for (int node : barrier.failed_nodes) {
        const ClusterCapacity::RemoveOutcome rm =
            control.inject_node_failure(node);
        ++epoch_chaos.failed_nodes;
        epoch_chaos.displaced_pods += rm.displaced;
        epoch_chaos.stranded_pods += rm.stranded;
        chaos_eng->record_failure(epoch_idx, epoch_end, node, rm.displaced,
                                  rm.stranded);
      }
      for (std::size_t t : barrier.preempt_tenants) {
        // A retired tenant has no busy pods: nothing to kill or record.
        if (!sims[t - lo].platform) continue;
        Platform& platform = *sims[t - lo].platform;
        int killed = 0;
        const std::size_t stages = plan.feeds[t]->stages();
        for (std::size_t s = 0; s < stages; ++s) {
          const int busy = platform.busy_pods_for(static_cast<int>(s));
          const int want = static_cast<int>(
              std::ceil(config.chaos.preempt_fraction *
                        static_cast<double>(busy)));
          killed += platform.preempt_busy(static_cast<int>(s), want);
        }
        if (killed > 0) {
          chaos_eng->record_preemption(epoch_idx, epoch_end,
                                       static_cast<int>(t), killed);
        }
        epoch_chaos.preempted_pods += killed;
      }
      epoch_chaos.storm_multiplier = barrier.storm_multiplier;
      if (config.chaos.cold_storms) {
        // x1.0 when calm — IEEE-exact, so arming storms without a storm
        // this epoch perturbs nothing.  Retired tenants start nothing.
        for (TenantSim& sim : sims) {
          if (sim.platform) {
            sim.platform->set_startup_multiplier(barrier.storm_multiplier);
          }
        }
        if (barrier.storm_started) {
          chaos_eng->record_storm(
              epoch_idx, epoch_end,
              epoch_end + static_cast<double>(config.chaos.storm_epochs) *
                              control.epoch_s());
        }
      }
    }
    control.reconcile(epoch_end, observed, epoch_chaos);
    if (config.obs.timeline) {
      // One row per (tenant, stage), in tenant-index order, reading the
      // *post-reconcile* packing — all simulated state, so the timeline is
      // part of the bit-identical artifact set.
      const EpochSnapshot& snap = control.history().back();
      const ClusterCapacity& cl = control.cluster();
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t t = lo + i;
        const RequestLog& log = sims[i].result.requests;
        for (; slo_cursor[i] < log.size(); ++slo_cursor[i]) {
          if (log[slo_cursor[i]].violated) ++slo_violations[i];
        }
        for (std::size_t s = 0; s < observed[i].size(); ++s) {
          const int group = control.tenant_group(t, s);
          TimelineRow row;
          row.epoch = snap.epoch;
          row.sim_time = epoch_end;
          row.tenant = static_cast<std::uint32_t>(t);
          row.stage = static_cast<std::uint16_t>(s);
          row.observed_peak_busy = observed[i][s];
          row.allocated_pods = static_cast<int>(cl.assignment(group).size());
          row.pod_mc = cl.group_pod_mc(group);
          row.coresidency = cl.group_coresidency(group);
          row.completed = slo_cursor[i];
          row.violations = slo_violations[i];
          row.nodes = snap.nodes;
          row.nodes_ordered = snap.nodes_ordered;
          row.nodes_added = snap.nodes_added;
          row.nodes_removed = snap.nodes_removed;
          row.displaced_pods = snap.displaced_pods;
          row.utilization = snap.utilization;
          row.chaos_failed_nodes = snap.chaos.failed_nodes;
          row.chaos_preempted_pods = snap.chaos.preempted_pods;
          row.chaos_stranded_pods = snap.chaos.stranded_pods;
          row.chaos_storm_mult = snap.chaos.storm_multiplier;
          out.timeline.push_back(row);
        }
      }
    }
    // Retire every tenant that finished this epoch — after the timeline
    // read, which still wanted its log.
    retire_shards(/*finished_only=*/true);
  }

  prof.begin("merge");
  retire_shards(/*finished_only=*/false);
}

/// Executes tenants [lo, hi) and folds their metrics into a slice outcome:
/// run_fleet runs it over the whole fleet, CLI slice workers over their
/// range.  It runs the plan's pass 2 (every tenant, even outside the slice:
/// the control summary is fleet-wide).  Two loops share build_tenant,
/// retire_tenant and fold_tenant: run_live for epoch runs, and the
/// tenant-major static loop below.  `shard_obs` receives the shards' summed
/// wait on the packing watermark and their per-shard events and busy time.
FleetSliceOutcome execute_slice(const FleetConfig& config, FleetPlan& plan,
                                std::size_t lo, std::size_t hi,
                                PhaseProfiler& prof, FleetObs& shard_obs) {
  const std::size_t n = hi - lo;
  const ControlPlane& control = *plan.control;
  FleetSliceOutcome out;
  out.lo = lo;
  out.hi = hi;
  out.stream = config.stream_metrics;
  out.fleet_seed = config.seed;
  out.slice_hist = Histogram(0.0, config.hist_max_s, config.hist_bins);
  // Dense rows land at their tenant's index, whichever shard folds them.
  if (!out.stream) out.tenants.resize(n);

  // Span rings, one per tenant, sized up front so the addresses handed to
  // the hot-path hooks stay stable.  Each shard writes only its own
  // tenants' rings, rows and partial, so folding needs no locks.
  std::vector<TraceRing> rings;
  if (config.obs.trace) rings.assign(n, TraceRing(config.obs.ring_capacity));
  const auto shards = static_cast<std::size_t>(config.shards);
  std::vector<FoldPartial> partials(shards);
  for (FoldPartial& part : partials) part.hist = out.slice_hist;
  ThreadPool pool(shards);
  if (control.live()) {
    // The first barrier reconciles every tenant, so the live path packs
    // the whole fleet before any shard starts.
    pack_tenants(plan, [](std::size_t) {});
    run_live(config, plan, pool, lo, hi, prof, rings, partials, out);
  } else {
    // The static path, tenant-major: each shard builds one tenant, drains
    // the calendar, retires and folds the tenant and reset()s the calendar,
    // so one tenant's Platform, serve slab and log stay cache-hot while its
    // events fire.  Tenants share no mutable state (randomness, Platform
    // and co-location feed are their own; a schedule_at clamp compares
    // against the firing event's own time), so no result can depend on
    // which tenants shared the calendar before.
    //
    // Pass 2 runs on this thread while the shards run.  `packed` is the
    // watermark: tenants [0, packed) are placed.  Nothing changes a static
    // tenant's feed once it is placed, so after an acquire load that
    // passes t, tenant t's setup is final and its shard may build it.
    // Shards read only plan.setups and plan.catalog (finished by pass 1),
    // plan.feeds[t], and the feed and distributions it points at, which
    // plan_tenant never moves.  They never read the cluster or the plane's
    // group index; the merge below does, after every shard has joined.
    prof.begin("simulate");
    constexpr std::size_t kPackAborted = ~std::size_t{0};
    std::atomic<std::size_t> packed{0};
    // Blocks until tenant t is placed; false when packing failed.
    const auto wait_packed = [&packed](std::size_t t, FoldPartial& part) {
      std::size_t mark = packed.load(std::memory_order_acquire);
      if (mark <= t) {
        const auto since = std::chrono::steady_clock::now();
        // C++17 has no atomic wait: yield until the packer catches up.
        while ((mark = packed.load(std::memory_order_acquire)) <= t) {
          std::this_thread::yield();
        }
        part.plan_wait_s += seconds_since(since);
      }
      return mark != kPackAborted;
    };
    const auto run_shard = [&](std::size_t s) {
      SimEngine engine;
      if (config.obs.enabled()) engine.set_obs(&partials[s].engine_obs);
      for (std::size_t t = shard_first(s, shards, lo); t < hi; t += shards) {
        if (!wait_packed(t, partials[s])) return;
        TenantSim sim;
        build_tenant(config, plan, t, engine,
                     rings.empty() ? nullptr : &rings[t - lo], sim);
        engine.run();
        retire_tenant(sim, partials[s]);
        fold_tenant(config, plan, t, sim, partials[s],
                    out.stream ? nullptr : &out.tenants[t - lo]);
        partials[s].add_engine(engine);
        engine.reset();
      }
    };
    std::vector<std::future<void>> runs;
    runs.reserve(shards);
    try {
      for (std::size_t s = 0; s < shards; ++s) {
        runs.push_back(pool.submit([&run_shard, &partials, s] {
          // Busy is the shard's whole run less its waits on the watermark.
          const auto since = std::chrono::steady_clock::now();
          run_shard(s);
          partials[s].busy_s = seconds_since(since) - partials[s].plan_wait_s;
        }));
      }
      pack_tenants(plan, [&packed](std::size_t done) {
        packed.store(done, std::memory_order_release);
      });
    } catch (...) {
      // Release every waiting shard before unwinding: the pool's
      // destructor joins its workers.
      packed.store(kPackAborted, std::memory_order_release);
      for (std::future<void>& run : runs) run.wait();
      throw;
    }
    ThreadPool::join(runs);
  }
  for (const FoldPartial& part : partials) {
    shard_obs.plan_wait_seconds += part.plan_wait_s;
    shard_obs.shard_events.push_back(part.events);
    shard_obs.shard_busy_seconds.push_back(part.busy_s);
  }

  prof.begin("merge");
  // Co-residency reports the final packing, known only after the last
  // barrier.
  for (std::size_t i = 0; i < out.tenants.size(); ++i) {
    out.tenants[i].coresidency = control.tenant_coresidency(lo + i);
  }
  std::uint64_t requeued = 0;
  for (const FoldPartial& part : partials) {
    out.slice_hist.merge(part.hist);
    requeued += part.requeued;
    out.requests_total += part.requests;
    out.violations_total += part.violations;
    out.cpu_total += part.cpu;
    out.counters.merge(part.counters);
    out.events_executed += part.events;
    out.peak_pending = std::max(out.peak_pending, part.engine_obs.peak_pending);
    // Makespan: per-tenant event times are grouping-independent, so the
    // max over shards is the same number at any layout.
    out.sim_end_s = std::max(out.sim_end_s, part.sim_end);
  }
  for (const TraceRing& ring : rings) {
    out.counters.spans_recorded += ring.recorded();
    out.counters.spans_dropped += ring.dropped();
    ring.drain_to(out.spans);
  }
  if (plan.chaos_eng) {
    plan.chaos_eng->add_requeued(requeued);
    // The cluster's counter is authoritative: it also covers stranding
    // during post-failure regrowth at reconcile, not just eviction time.
    plan.chaos_eng->set_stranded_total(control.cluster().stranded_pods());
  }
  out.epochs = control.epochs_run();
  out.final_nodes = control.cluster().nodes();
  out.cluster_utilization = control.cluster().utilization();
  out.overcommitted_pods = control.cluster().overcommitted_pods();
  out.epoch_log = control.history();
  return out;
}

/// Each tenant's latency row, in tenant order (none when streamed).
std::vector<const EmpiricalDistribution*> latency_rows(
    const std::vector<TenantResult>& tenants) {
  std::vector<const EmpiricalDistribution*> rows;
  rows.reserve(tenants.size());
  for (const TenantResult& tr : tenants) rows.push_back(&tr.e2e);
  return rows;
}

}  // namespace

EmpiricalDistribution FleetResult::fleet_e2e() const {
  return EmpiricalDistribution::merge_all(latency_rows(tenants));
}

double FleetResult::fleet_percentile(double p) const {
  return streamed ? fleet_hist.percentile(p)
                  : EmpiricalDistribution::percentile_of(latency_rows(tenants),
                                                         p);
}

std::string FleetResult::to_json() const {
  std::ostringstream os;
  os << "{\n  \"shards\": " << shards
     << ",\n  \"streamed\": " << (streamed ? "true" : "false")
     << ",\n  \"tenants\": [\n";
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    const TenantResult& tr = tenants[t];
    os << "    {\"name\": \"" << json_escape(tr.name) << "\", \"workload\": \""
       << json_escape(tr.workload) << "\", \"policy\": \""
       << json_escape(tr.policy) << "\", \"arrivals\": \""
       << to_string(tr.arrivals)
       << "\", \"requests\": " << tr.requests
       << ", \"slo_s\": " << fmt_double(tr.slo)
       << ", \"violation_rate\": " << fmt_double(tr.violation_rate)
       << ", \"mean_cpu_mc\": " << fmt_double(tr.mean_cpu_mc)
       << ", \"p50_e2e_s\": " << fmt_double(tr.e2e_p50)
       << ", \"p99_e2e_s\": " << fmt_double(tr.e2e_p99)
       << ", \"coresidency\": " << fmt_double(tr.coresidency) << "}"
       << (t + 1 < tenants.size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"fleet\": {\"requests\": " << total_requests
     << ", \"violation_rate\": " << fmt_double(fleet_violation_rate)
     << ", \"mean_cpu_mc\": " << fmt_double(fleet_mean_cpu_mc)
     << ", \"p50_e2e_s\": " << fmt_double(fleet_p50)
     << ", \"p99_e2e_s\": " << fmt_double(fleet_p99)
     << ", \"sim_end_s\": " << fmt_double(sim_end_s)
     << ", \"cluster_utilization\": " << fmt_double(cluster_utilization)
     << ", \"overcommitted_pods\": " << overcommitted_pods << "},\n"
     << "  \"control\": {\"epochs\": " << epochs
     << ", \"final_nodes\": " << final_nodes
     << ", \"nodes_added\": " << nodes_added
     << ", \"nodes_removed\": " << nodes_removed << "},\n";
  if (chaos_enabled) {
    os << "  \"chaos\": {\"node_failures\": " << chaos.node_failures
       << ", \"displaced_pods\": " << chaos.displaced_pods
       << ", \"stranded_pods\": " << chaos.stranded_pods
       << ", \"preemption_bursts\": " << chaos.preemption_bursts
       << ", \"preempted_pods\": " << chaos.preempted_pods
       << ", \"requeued_invocations\": " << chaos.requeued_invocations
       << ", \"storms\": " << chaos.storms
       << ", \"flash_windows\": " << chaos.flash_windows
       << ", \"events\": [";
    for (std::size_t e = 0; e < chaos_log.size(); ++e) {
      const ChaosEvent& ev = chaos_log[e];
      os << (e > 0 ? ", " : "") << "{\"family\": \"" << to_string(ev.family)
         << "\", \"epoch\": " << ev.epoch
         << ", \"sim_time_s\": " << fmt_double(ev.sim_time)
         << ", \"tenant\": " << ev.tenant << ", \"node\": " << ev.node
         << ", \"pods\": " << ev.pods << ", \"stranded\": " << ev.stranded
         << ", \"magnitude\": " << fmt_double(ev.magnitude)
         << ", \"until_s\": " << fmt_double(ev.until_s) << "}";
    }
    os << "]},\n";
  }
  os << "  \"obs\": {\"events_executed\": " << obs.events_executed
     << ", \"invocations\": " << obs.counters.invocations
     << ", \"cold_starts\": " << obs.counters.cold_starts
     << ", \"queued\": " << obs.counters.queued
     << ", \"spans_recorded\": " << obs.counters.spans_recorded
     << ", \"spans_dropped\": " << obs.counters.spans_dropped
     << ", \"spans_retained\": " << obs.spans.size()
     << ", \"timeline_rows\": " << obs.timeline.size();
  if (obs.peak_pending > 0) os << ", \"peak_pending\": " << obs.peak_pending;
  os << ", \"plan_wait_seconds\": " << fmt_double(obs.plan_wait_seconds)
     << ", \"shard_events\": [";
  for (std::size_t s = 0; s < obs.shard_events.size(); ++s) {
    os << (s > 0 ? ", " : "") << obs.shard_events[s];
  }
  os << "], \"shard_busy_seconds\": [";
  for (std::size_t s = 0; s < obs.shard_busy_seconds.size(); ++s) {
    os << (s > 0 ? ", " : "") << fmt_double(obs.shard_busy_seconds[s]);
  }
  os << "], \"phases\": [";
  for (std::size_t p = 0; p < obs.phases.size(); ++p) {
    os << (p > 0 ? ", " : "") << "{\"name\": \""
       << json_escape(obs.phases[p].name)
       << "\", \"seconds\": " << fmt_double(obs.phases[p].seconds)
       << ", \"entries\": " << obs.phases[p].entries << "}";
  }
  os << "]},\n"
     << "  \"wall_seconds\": " << fmt_double(wall_seconds) << "\n}\n";
  return os.str();
}

FleetResult merge_fleet_slices(const FleetConfig& config,
                               std::vector<FleetSliceOutcome> slices) {
  const std::size_t n = config.tenants.size();
  require(!slices.empty(), "fleet merge needs >= 1 slice");
  std::sort(slices.begin(), slices.end(),
            [](const FleetSliceOutcome& a, const FleetSliceOutcome& b) {
              return a.lo < b.lo;
            });
  std::size_t covered = 0;
  for (const FleetSliceOutcome& s : slices) {
    require(s.lo == covered && s.hi > s.lo,
            "slices must tile the tenant range contiguously");
    require(s.stream == slices.front().stream,
            "cannot merge streaming and non-streaming slices");
    require(s.fleet_seed == config.seed,
            "slice was produced under a different fleet seed");
    require(s.epochs == slices.front().epochs &&
                s.final_nodes == slices.front().final_nodes,
            "slices disagree on the control-plane summary");
    covered = s.hi;
  }
  require(covered == n, "slices do not cover every tenant");
  const bool stream = slices.front().stream;

  FleetResult out;
  out.shards = config.shards;
  out.streamed = stream;
  // Control summary — identical in every slice (each planned the same
  // fleet), so the first one speaks for the fleet.
  out.epochs = slices.front().epochs;
  out.final_nodes = slices.front().final_nodes;
  out.cluster_utilization = slices.front().cluster_utilization;
  out.overcommitted_pods = slices.front().overcommitted_pods;
  out.epoch_log = std::move(slices.front().epoch_log);
  for (const EpochSnapshot& snap : out.epoch_log) {
    out.nodes_added += snap.nodes_added;
    out.nodes_removed += snap.nodes_removed;
  }

  out.fleet_hist = Histogram(0.0, config.hist_max_s, config.hist_bins);
  double cpu_total = 0.0;
  std::size_t violations = 0;
  std::size_t total = 0;
  if (!stream) out.tenants.reserve(n);
  for (FleetSliceOutcome& slice : slices) {
    out.fleet_hist.merge(slice.slice_hist);
    total += static_cast<std::size_t>(slice.requests_total);
    violations += static_cast<std::size_t>(slice.violations_total);
    cpu_total += slice.cpu_total;
    std::move(slice.tenants.begin(), slice.tenants.end(),
              std::back_inserter(out.tenants));
    out.obs.counters.merge(slice.counters);
    out.obs.spans.insert(out.obs.spans.end(), slice.spans.begin(),
                         slice.spans.end());
    out.obs.timeline.insert(out.obs.timeline.end(), slice.timeline.begin(),
                            slice.timeline.end());
    out.obs.events_executed += slice.events_executed;
    out.obs.peak_pending =
        std::max(out.obs.peak_pending, slice.peak_pending);
    out.sim_end_s = std::max(out.sim_end_s, slice.sim_end_s);
  }
  // Timeline rows arrive slice by slice but the artifact's canonical order
  // is (epoch, tenant, stage); a stable sort restores it — and is the
  // identity permutation for a single slice, so one code path serves both.
  std::stable_sort(out.obs.timeline.begin(), out.obs.timeline.end(),
                   [](const TimelineRow& a, const TimelineRow& b) {
                     if (a.epoch != b.epoch) return a.epoch < b.epoch;
                     if (a.tenant != b.tenant) return a.tenant < b.tenant;
                     return a.stage < b.stage;
                   });
  out.total_requests = total;
  out.fleet_violation_rate =
      total > 0 ? static_cast<double>(violations) / static_cast<double>(total)
                : 0.0;
  out.fleet_mean_cpu_mc =
      total > 0 ? cpu_total / static_cast<double>(total) : 0.0;
  out.fleet_p50 = total > 0 ? out.fleet_percentile(50.0) : 0.0;
  out.fleet_p99 = total > 0 ? out.fleet_percentile(99.0) : 0.0;
  return out;
}

FleetResult run_fleet(const FleetConfig& config) {
  // Self-profiling is always on: it is pure cold-path wall-clock
  // bookkeeping (a handful of steady_clock reads per epoch), reported in
  // the machine-dependent section alongside wall_seconds.  The phases tile
  // the whole call, so they sum to wall_seconds.
  const auto started = std::chrono::steady_clock::now();
  PhaseProfiler prof;
  prof.begin("plan");
  validate_fleet(config);
  const std::size_t n = config.tenants.size();
  log_info("fleet: ", n, " tenants on ", config.shards,
           " shards, epoch_s=", config.epoch_s, ", seed=", config.seed,
           config.stream_metrics ? ", streaming merge" : "",
           config.chaos.enabled() ? ", chaos on" : "");
  FleetPlan plan = plan_fleet(config);

  FleetObs shard_obs;
  std::vector<FleetSliceOutcome> slices;
  slices.push_back(execute_slice(config, plan, 0, n, prof, shard_obs));

  prof.begin("merge");
  FleetResult out = merge_fleet_slices(config, std::move(slices));
  if (plan.chaos_eng) {
    out.chaos_enabled = true;
    out.chaos = plan.chaos_eng->stats();
    out.chaos_log = plan.chaos_eng->log();
  }
  out.obs.plan_wait_seconds = shard_obs.plan_wait_seconds;
  out.obs.shard_events = std::move(shard_obs.shard_events);
  out.obs.shard_busy_seconds = std::move(shard_obs.shard_busy_seconds);
  prof.end();
  out.wall_seconds = seconds_since(started);
  out.obs.phases = prof.phases();
  return out;
}

FleetSliceOutcome run_fleet_slice(const FleetConfig& config, std::size_t lo,
                                  std::size_t hi) {
  validate_fleet(config);
  require(lo < hi && hi <= config.tenants.size(),
          "slice bounds must satisfy lo < hi <= tenants");
  require(config.epoch_s == kNoEpochs,
          "slice workers are restricted to the static path (epoch_s = "
          "infinity): a live barrier reconciles every tenant's "
          "observations, so it needs the whole fleet in one run_fleet call");
  require(!config.chaos.enabled(),
          "slice workers require chaos off (chaos tallies are fleet-wide)");
  FleetPlan plan = plan_fleet(config);
  // Slice blobs carry no wall-clock figures and no per-shard figures.
  PhaseProfiler prof;
  FleetObs shard_obs;
  return execute_slice(config, plan, lo, hi, prof, shard_obs);
}

std::vector<TenantSpec> make_tenant_mix(
    int tenants, int requests_each, double base_rate, ArrivalKind kind,
    bool mixed_kinds, const std::vector<std::string>& policies) {
  require(tenants >= 1, "tenant mix needs >= 1 tenant");
  require(requests_each >= 1, "tenant mix needs >= 1 request per tenant");
  require(base_rate > 0.0, "tenant mix needs a positive base rate");
  for (const auto& policy : policies) {
    require_fleet_policy(policy);
  }
  std::vector<TenantSpec> out;
  out.reserve(static_cast<std::size_t>(tenants));
  constexpr ArrivalKind kCycle[] = {ArrivalKind::Poisson, ArrivalKind::Mmpp,
                                    ArrivalKind::Diurnal};
  for (int i = 0; i < tenants; ++i) {
    TenantSpec t;
    t.workload = (i % 2 == 0) ? "ia" : "va";
    t.name = t.workload + "-" + std::to_string(i);
    t.requests = requests_each;
    t.size_mc = 1600 + 100 * (i % 5);
    if (!policies.empty()) {
      t.policy = policies[static_cast<std::size_t>(i) % policies.size()];
    }
    t.arrivals.kind = mixed_kinds ? kCycle[i % 3] : kind;
    t.arrivals.rate = base_rate * (0.8 + 0.05 * static_cast<double>(i % 8));
    t.arrivals.burst_rate = 3.0 * t.arrivals.rate;
    t.arrivals.period_s = 300.0 + 60.0 * static_cast<double>(i % 4);
    out.push_back(std::move(t));
  }
  return out;
}

}  // namespace janus
