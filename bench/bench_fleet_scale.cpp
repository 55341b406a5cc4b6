// Fleet scale: sweeps shard counts for a fixed 8-tenant fleet serving
// >= 100k total requests through the sharded multi-tenant simulator, and
// verifies the determinism contracts that make sharding safe:
//
//   * static path (epoch_s = inf): fleet metrics are bit-identical at
//     every shard count AND exactly reproduce the pre-control-plane
//     pipeline's committed reference values (PR 3) — the plan-once path
//     really is a special case of the control-plane code;
//   * live path (finite epoch_s + autoscaling): metrics and the epoch
//     audit trail stay bit-identical at every shard count with the
//     reconciliation barrier and node-pool autoscaler running.
//
// Emitted via bench_main as BENCH_fleet_scale.json.  Reported wall times
// are run_fleet's own clock, the whole call, so the speedup column shows
// the sharding win (more engines in flight plus far smaller per-engine
// event calendars) net of the serial plan and merge.  Exits nonzero if any shard count changes
// any fleet metric, if the static path drifts from the PR 3 reference, or
// if the sweep serves fewer requests than promised.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "exp/report.hpp"
#include "fleet/fleet.hpp"

using namespace janus;

namespace {

constexpr int kTenants = 8;
constexpr int kRequestsPerTenant = 12500;  // 8 x 12500 = 100k total

// Static-path fleet metrics recorded from the pre-control-plane pipeline
// (PR 3, seed 2026) at the JSON emitter's 10-significant-digit precision.
constexpr double kPr3P50 = 1.854526668;
constexpr double kPr3P99 = 3.206886065;
constexpr double kPr3MeanCpu = 5287.5;
constexpr double kPr3ViolationRate = 0.41328;

FleetConfig fleet_config(int shards) {
  FleetConfig config;
  config.tenants = make_tenant_mix(kTenants, kRequestsPerTenant,
                                   /*base_rate=*/10.0, ArrivalKind::Poisson,
                                   /*mixed_kinds=*/true);
  config.shards = shards;
  config.seed = 2026;
  return config;
}

FleetConfig live_config(int shards) {
  FleetConfig config = fleet_config(shards);
  config.epoch_s = 60.0;  // ~1250 s of sim time => ~20 barriers
  config.autoscale.enabled = true;
  config.autoscale.scale_out_latency_epochs = 1;
  return config;
}

bool close10(double a, double b) {
  // Equal at the 10-significant-digit precision the reference was
  // recorded at.
  return std::abs(a - b) <=
         1e-9 * std::max({std::abs(a), std::abs(b), 1.0});
}

bool epoch_logs_identical(const FleetResult& a, const FleetResult& b) {
  if (a.epochs != b.epochs || a.final_nodes != b.final_nodes ||
      a.nodes_added != b.nodes_added || a.nodes_removed != b.nodes_removed ||
      a.epoch_log.size() != b.epoch_log.size()) {
    return false;
  }
  for (std::size_t e = 0; e < a.epoch_log.size(); ++e) {
    const EpochSnapshot& x = a.epoch_log[e];
    const EpochSnapshot& y = b.epoch_log[e];
    if (x.sim_time != y.sim_time || x.nodes != y.nodes ||
        x.pending_nodes != y.pending_nodes ||
        x.utilization != y.utilization ||
        x.nodes_ordered != y.nodes_ordered ||
        x.nodes_added != y.nodes_added ||
        x.nodes_removed != y.nodes_removed ||
        x.groups_resized != y.groups_resized ||
        x.displaced_pods != y.displaced_pods) {
      return false;
    }
  }
  return true;
}

bool metrics_identical(const FleetResult& a, const FleetResult& b) {
  if (a.fleet_p50 != b.fleet_p50 || a.fleet_p99 != b.fleet_p99 ||
      a.fleet_violation_rate != b.fleet_violation_rate ||
      a.fleet_mean_cpu_mc != b.fleet_mean_cpu_mc ||
      a.total_requests != b.total_requests ||
      a.fleet_e2e().sorted_samples() != b.fleet_e2e().sorted_samples()) {
    return false;
  }
  if (a.tenants.size() != b.tenants.size()) return false;
  for (std::size_t t = 0; t < a.tenants.size(); ++t) {
    const TenantResult& x = a.tenants[t];
    const TenantResult& y = b.tenants[t];
    if (x.e2e_p50 != y.e2e_p50 || x.e2e_p99 != y.e2e_p99 ||
        x.violation_rate != y.violation_rate ||
        x.mean_cpu_mc != y.mean_cpu_mc) {
      return false;
    }
  }
  for (std::size_t i = 0; i < a.fleet_hist.bins(); ++i) {
    if (a.fleet_hist.bin_count(i) != b.fleet_hist.bin_count(i)) return false;
  }
  return true;
}

}  // namespace

int main() {
  std::printf("%s", banner("Fleet scale: shard sweep, " +
                           std::to_string(kTenants) + " tenants x " +
                           std::to_string(kRequestsPerTenant) + " requests")
                        .c_str());

  // Warm up allocator/code paths so the 1-shard reference is not charged
  // for first-touch effects.
  {
    FleetConfig warm = fleet_config(1);
    for (auto& t : warm.tenants) t.requests = 200;
    (void)run_fleet(warm);
  }

  const int sweep[] = {1, 2, 4, 8};
  FleetResult reference;
  double wall_1 = 0.0, wall_8 = 0.0;
  bool identical = true;
  std::vector<std::vector<std::string>> rows;
  for (int shards : sweep) {
    const FleetResult result = run_fleet(fleet_config(shards));
    const bool match = shards == 1 || metrics_identical(reference, result);
    identical = identical && match;
    if (shards == 1) {
      reference = result;
      wall_1 = result.wall_seconds;
    }
    if (shards == 8) wall_8 = result.wall_seconds;
    rows.push_back({std::to_string(shards), fmt(result.wall_seconds, 3),
                    fmt(wall_1 / result.wall_seconds, 2),
                    fmt(result.fleet_p50, 3), fmt(result.fleet_p99, 3),
                    fmt(result.fleet_mean_cpu_mc, 0),
                    fmt(100.0 * result.fleet_violation_rate, 2) + "%",
                    match ? "yes" : "NO"});
  }
  std::printf("%s", render_table({"shards", "wall (s)", "speedup", "P50 (s)",
                                  "P99 (s)", "CPU (mc)", ">SLO",
                                  "identical"},
                                 rows)
                        .c_str());

  // ---- Live control plane: same sweep with epochs + autoscaling on. ----
  std::printf("%s",
              banner("Control plane: epoch feedback + autoscale, shard sweep")
                  .c_str());
  FleetResult live_reference;
  bool live_identical = true;
  std::vector<std::vector<std::string>> live_rows;
  for (int shards : sweep) {
    const FleetResult result = run_fleet(live_config(shards));
    const bool match = shards == 1 ||
                       (metrics_identical(live_reference, result) &&
                        epoch_logs_identical(live_reference, result));
    live_identical = live_identical && match;
    if (shards == 1) live_reference = result;
    live_rows.push_back({std::to_string(shards), fmt(result.wall_seconds, 3),
                         std::to_string(result.epochs),
                         std::to_string(result.final_nodes),
                         "+" + std::to_string(result.nodes_added) + "/-" +
                             std::to_string(result.nodes_removed),
                         fmt(result.fleet_p99, 3),
                         fmt(100.0 * result.fleet_violation_rate, 2) + "%",
                         match ? "yes" : "NO"});
  }
  std::printf("%s", render_table({"shards", "wall (s)", "epochs", "nodes",
                                  "+/-", "P99 (s)", ">SLO", "identical"},
                                 live_rows)
                        .c_str());

  const double speedup = wall_8 > 0.0 ? wall_1 / wall_8 : 0.0;
  const bool pr3_exact = close10(reference.fleet_p50, kPr3P50) &&
                         close10(reference.fleet_p99, kPr3P99) &&
                         close10(reference.fleet_mean_cpu_mc, kPr3MeanCpu) &&
                         close10(reference.fleet_violation_rate,
                                 kPr3ViolationRate);
  std::printf("requests_total: %zu\n", reference.total_requests);
  std::printf("tenants: %zu\n", reference.tenants.size());
  std::printf("bit_identical: %s\n", identical ? "yes" : "no");
  std::printf("bit_identical_with_control_plane: %s\n",
              live_identical ? "yes" : "no");
  std::printf("static_path_matches_pr3: %s\n", pr3_exact ? "yes" : "no");
  std::printf("control_epochs: %d\n", live_reference.epochs);
  std::printf("speedup_1_to_8: %.2f\n", speedup);

  if (!identical) {
    std::fprintf(stderr,
                 "bench_fleet_scale: fleet metrics changed with the shard "
                 "count — determinism contract broken\n");
    return 1;
  }
  if (!live_identical) {
    std::fprintf(stderr,
                 "bench_fleet_scale: metrics or epoch log changed with the "
                 "shard count under epoch feedback + autoscaling — "
                 "reconciliation is not deterministic\n");
    return 1;
  }
  if (!pr3_exact) {
    std::fprintf(stderr,
                 "bench_fleet_scale: epoch_s = inf no longer reproduces the "
                 "PR 3 static-path metrics (p50 %.9f vs %.9f, p99 %.9f vs "
                 "%.9f)\n",
                 reference.fleet_p50, kPr3P50, reference.fleet_p99, kPr3P99);
    return 1;
  }
  if (live_reference.epochs < 2) {
    std::fprintf(stderr,
                 "bench_fleet_scale: control plane ran %d epochs — the live "
                 "sweep did not exercise reconciliation\n",
                 live_reference.epochs);
    return 1;
  }
  if (reference.total_requests < 100000) {
    std::fprintf(stderr, "bench_fleet_scale: served %zu < 100000 requests\n",
                 reference.total_requests);
    return 1;
  }
  // Warn threshold calibrated for a 2-core box: the ladder engine (PR 3)
  // cut the 1-shard wall ~1.6x, so the remaining parallelizable work caps
  // the 1->8 ratio well below the pre-ladder ~2.7x.
  if (speedup <= 1.5) {
    std::fprintf(stderr,
                 "bench_fleet_scale: warning: 1->8 shard speedup %.2fx <= "
                 "1.5x on this machine\n",
                 speedup);
  }
  return 0;
}
