// Slice outcomes: the unit of fleet merging.
//
// A "slice" is a contiguous tenant-index range [lo, hi) executed by one
// process.  run_fleet runs the whole fleet as one slice; a standalone
// `janus_cli fleet --shard-slice` worker runs part of it.  Both produce
// FleetSliceOutcome values, and one merge path (merge_fleet_slices)
// assembles them into a FleetResult in tenant-index order, so a merged
// multi-process result is the in-process result by construction.
//
// Every tenant folds once, on the shard that ran it, as soon as it can no
// longer change: into the shard's aggregates (totals and histogram) and,
// on dense runs, into its TenantResult row.  Outcomes are self-contained:
// they carry the slice bounds, the streaming flag, those aggregates and
// rows, and the control-plane summary (identical in every worker — each
// plans the same fleet), so a blob written by one process can be decoded
// and merged by another with nothing but the original FleetConfig.  The
// merge is a concatenation: aggregates add, rows append in tenant order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "fleet/arrivals.hpp"
#include "fleet/control.hpp"
#include "obs/obs.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"
#include "stats/empirical.hpp"
#include "stats/histogram.hpp"

namespace janus {

/// One tenant's row: labels, rates and its exact latency distribution,
/// built on the shard that ran the tenant (dense runs only; the streaming
/// path folds straight into the slice aggregates).
struct TenantResult {
  std::string name;
  std::string workload;
  std::string policy;
  ArrivalKind arrivals = ArrivalKind::Poisson;
  int requests = 0;
  Seconds slo = 0.0;
  double violation_rate = 0.0;
  double mean_cpu_mc = 0.0;
  double e2e_p50 = 0.0;
  double e2e_p99 = 0.0;
  /// Mean same-function co-residency across the tenant's stages, from the
  /// final cluster packing (>= 1; higher means more interference).
  double coresidency = 1.0;
  EmpiricalDistribution e2e;
};

struct FleetSliceOutcome {
  std::size_t lo = 0;
  std::size_t hi = 0;
  bool stream = false;
  std::uint64_t fleet_seed = 0;  // cross-check against the merging config

  // Slice aggregates (always filled; exact under re-association).
  std::uint64_t requests_total = 0;
  std::uint64_t violations_total = 0;
  /// Σ per-request cpu_mc.  Every addend is an integer-valued double
  /// (stage sizes are integral millicores), so per-shard subtotals merge
  /// to the same bits as one running sum.
  double cpu_total = 0.0;
  /// Per-request e2e in the fleet histogram layout (integer counts — the
  /// merge is exactly commutative/associative, so fold order cannot show).
  Histogram slice_hist{0.0, 1.0, 1};
  /// Per-tenant rows, hi - lo entries in tenant order; empty when `stream`.
  std::vector<TenantResult> tenants;

  /// Simulated time of the slice's last executed event — the makespan the
  /// frontier's achieved-rps accounting divides by.  Each tenant's event
  /// times are independent of engine grouping, so the fleet-wide max is
  /// bit-identical at any shard or slice layout (unlike peak_pending).
  Seconds sim_end_s = 0.0;

  ObsCounters counters;
  std::vector<SpanRecord> spans;        // slice tenants, tenant order
  std::vector<TimelineRow> timeline;    // slice tenants, (epoch, t, s) order
  std::uint64_t events_executed = 0;
  /// Layout-dependent: the deepest single-tenant calendar.
  std::uint64_t peak_pending = 0;

  // Control-plane summary — identical across slices of one run.
  int epochs = 0;
  int final_nodes = 0;
  double cluster_utilization = 0.0;
  int overcommitted_pods = 0;
  std::vector<EpochSnapshot> epoch_log;
};

/// Binary round trip via the src/stats codec (versioned envelope; doubles
/// travel as IEEE bit patterns, so decode(encode(x)) == x bit-for-bit).
std::vector<std::uint8_t> encode_slice(const FleetSliceOutcome& s);
FleetSliceOutcome decode_slice(const std::uint8_t* data, std::size_t size);
inline FleetSliceOutcome decode_slice(const std::vector<std::uint8_t>& b) {
  return decode_slice(b.data(), b.size());
}

}  // namespace janus
