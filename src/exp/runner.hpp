// Experiment driver: serves a request stream for one workload through the
// DES platform under a sizing policy and aggregates the paper's metrics
// (end-to-end latency distribution, per-request CPU consumption in
// millicores, SLO violation rate).
//
// Request randomness (working sets, co-location counts, interference
// multipliers) is drawn from a dedicated per-run stream in request-index
// order, so every policy evaluated with the same RunConfig serves the
// *identical* request sequence — the normalized comparisons in Table I /
// Fig 5 / Fig 9 are therefore paired.  The draws themselves are lazy:
// request i's draw happens when request i starts, which keeps a 100k-tenant
// fleet from materializing every tenant's full draw table up front.  Since
// requests start in index order (closed loop is sequential; open-loop
// arrivals are a chain of events with non-decreasing times), the
// stream is consumed exactly as the historical pre-draw did — bit-identical
// draws, O(1) live draws per tenant.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hpp"
#include "exp/request_log.hpp"
#include "fleet/arrivals.hpp"
#include "model/workloads.hpp"
#include "obs/trace.hpp"
#include "policy/policy.hpp"
#include "profiler/profiler.hpp"
#include "sim/platform.hpp"
#include "stats/empirical.hpp"

namespace janus {

struct RunConfig {
  Seconds slo = 3.0;
  Concurrency concurrency = 1;
  int requests = 1000;
  std::uint64_t seed = 2026;
  /// Interference regime; must match what the profiles were built with for
  /// the hints to stay accurate (shift it to inject "unexpected dynamics").
  InterferenceModel interference{InterferenceModel(
      workload_interference_params())};
  /// Co-location distribution; default derives from `concurrency`.
  CoLocationDistribution colocation{};
  bool colocation_is_default = true;
  /// Per-stage co-location source; when set (one distribution per chain
  /// stage) it overrides `colocation` and must outlive the run.  The fleet
  /// fills this from its cluster bin-packing — a StaticCoLocation snapshot
  /// for the plan-once path, or a live epoch feed whose distributions the
  /// control plane shifts at every reconciliation barrier.  For a live
  /// provider the stage multiplier is drawn at stage-launch time from a
  /// per-(request, stage) derived rng stream, so the draw is a pure
  /// function of (seed, request, stage, epoch) and stays bit-identical at
  /// any shard count.
  const CoLocationProvider* colocation_provider = nullptr;
  /// Open-loop arrivals at this rate (requests/s); 0 = closed loop
  /// (sequential requests, the paper's measurement setup).  The arrival
  /// *process* is pluggable via `arrivals`; this rate overrides
  /// `arrivals.rate` (scaling the MMPP burst rate along with it, so the
  /// burst/base ratio is preserved) and the legacy single-knob Poisson
  /// setup keeps working unchanged.
  double open_loop_rate = 0.0;
  /// Shape of the open-loop arrival process (Poisson, MMPP bursts, or a
  /// diurnal rate curve); ignored in closed loop.
  ArrivalSpec arrivals{};
  /// When true the platform derives interference from actual pod
  /// co-location instead of the pre-drawn multipliers (clairvoyant Optimal
  /// is not meaningful in this mode).
  bool endogenous_interference = false;
  PlatformConfig platform{};
  /// Observability: when set, every completed stage of a sampled request
  /// (index % trace_sample_every == 0 — deterministic, index-keyed) is
  /// recorded as a SpanRecord tagged trace_tenant.  The ring must outlive
  /// the run; null (the default) costs one never-taken branch per stage.
  TraceRing* trace_ring = nullptr;
  int trace_sample_every = 1;
  std::uint32_t trace_tenant = 0;
  /// Keep the per-stage detail columns (sizes, stage_total) in the request
  /// log.  The paper benches that plot per-request allocations need them;
  /// the fleet switches them off — at six-figure tenant counts the flat
  /// e2e/cpu/violated columns are all the merge reads.
  bool record_stage_detail = true;
};

struct RunResult {
  std::string policy_name;
  Seconds slo = 0.0;
  RequestLog requests;
  /// Request-path state of the serve_workload call filling this result
  /// (type-erased; private to exp/runner.cpp).  Its scheduled events point
  /// into it, so it lives as long as the result, or until the caller
  /// resets it once the run has drained.  A drained state is reused by the
  /// next serve_workload call on this result, slab and all.
  std::shared_ptr<void> serve_state;

  EmpiricalDistribution e2e_distribution() const;
  double mean_cpu() const;
  double violation_rate() const;
  double e2e_percentile(double p) const;
};

RunResult run_workload(const WorkloadSpec& workload, SizingPolicy& policy,
                       const RunConfig& config);

/// Schedules one workload's full request stream onto a caller-owned engine
/// and platform and appends completed records to `out` while the caller
/// runs the engine.  The platform must wrap `engine` and host exactly the
/// workload's chain functions, in chain order (checked by name).
/// `platform`, `policy`, and `out` must outlive the run: the per-request
/// state — a slab of in-flight requests, reused as requests finish — is
/// owned by `out.serve_state`, and the scheduled closures point into it.
/// Once the slab has reached the run's peak in-flight count, serving a
/// request performs no heap allocation.
///
/// When `out.serve_state` already holds a drained run (every request
/// completed) the state is re-initialized in place: every per-run field is
/// reset and the slab keeps its slots, so a result recycled across
/// same-shaped runs (the fleet's static path, one per shard) allocates no
/// slab slot after the first run.  A state with requests still in flight
/// is rejected.  The log is appended to, so a caller recycling a result
/// whose log it released gives it a fresh RequestLog first.
///
/// Multiple tenants can serve on one engine: each call uses only its own
/// platform/policy/rng streams, so a tenant's records are bit-identical no
/// matter what else shares the calendar, whether it has a calendar of its
/// own, or whether its platform and serve state were recycled — this is
/// what lets the fleet run static tenants one after another on one
/// reset() calendar, Platform and serve state per shard, and live tenants
/// on per-tenant calendars drained one at a time.
void serve_workload(SimEngine& engine, Platform& platform,
                    const WorkloadSpec& workload, SizingPolicy& policy,
                    const RunConfig& config, RunResult& out);

/// Ends a drained run on `out` while keeping its serve state for the next
/// serve_workload call: the state forgets the run's engine, platform,
/// policy, feed, trace ring and arrival process, so the caller may free
/// them.  Throws while requests are in flight; a no-op on a result that
/// never served.
void retire_serve_state(RunResult& out);

/// Pre-draws the request randomness exactly as run_workload does — shared
/// with benches that need the draws directly (e.g. Fig 2's per-request
/// scatter, Optimal normalization).
std::vector<RequestDraw> draw_requests(const WorkloadSpec& workload,
                                       const RunConfig& config);

}  // namespace janus
