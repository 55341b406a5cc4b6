// Policy mixes in the fleet: the paper's §V policy suite running
// *per tenant* inside the sharded multi-tenant simulator, under the
// endogenous co-residency contention of the epoch control plane.
//
// Two experiments:
//
//   * homogeneous fleets — every tenant on one policy, one fleet per
//     policy family, same tenant set and seed: the Table I story under
//     open-loop interference instead of the paper's sequential loop
//     (mean_based should blow its SLOs, early binding should overspend
//     CPU relative to Janus);
//   * adversarial mix — all families at once (janus, orion, mean_based,
//     fixed, optimal, grandslam+ dealt round-robin), live epochs +
//     autoscaling + contention-aware scaling on two tenants, swept over
//     1/2/4/8 shards asserting fleet metrics AND the epoch audit trail
//     stay bit-identical — the determinism contract bench_fleet_scale
//     pins for fixed allocations, extended to heterogeneous policies.
//
// One PolicyCatalog is shared across every run: hints tables and profiles
// are synthesized once per (workload, policy) and reused by all tenants,
// shards, and sweep points.  Exits nonzero if any shard count changes any
// metric, if the control plane never reconciled, or if the catalog
// re-synthesized anything after the first run.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "exp/report.hpp"
#include "fleet/fleet.hpp"
#include "model/workloads.hpp"

using namespace janus;

namespace {

constexpr int kTenants = 6;
constexpr int kRequestsPerTenant = 2500;

PolicyCatalogConfig catalog_config() {
  PolicyCatalogConfig cfg;  // fleet-grade defaults (see fleet/policies.hpp)
  return cfg;
}

FleetConfig base_fleet(PolicyCatalog& catalog,
                       const std::vector<std::string>& policies) {
  FleetConfig config;
  config.tenants = make_tenant_mix(kTenants, kRequestsPerTenant,
                                   /*base_rate=*/10.0, ArrivalKind::Poisson,
                                   /*mixed_kinds=*/true, policies);
  config.shards = 1;
  config.seed = 2026;
  config.catalog = &catalog;
  return config;
}

FleetConfig mix_fleet(PolicyCatalog& catalog, int shards) {
  FleetConfig config = base_fleet(
      catalog,
      {"janus", "orion", "mean_based", "fixed", "optimal", "grandslam+"});
  config.shards = shards;
  config.epoch_s = 60.0;
  config.autoscale.enabled = true;
  config.autoscale.scale_out_latency_epochs = 1;
  // Two tenants additionally react to the live co-residency signal.
  config.tenants[0].contention_alpha = 0.25;
  config.tenants[3].contention_alpha = 0.25;
  return config;
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
    if (a.tenants[t].e2e.sorted_samples() !=
            b.tenants[t].e2e.sorted_samples() ||
        a.tenants[t].mean_cpu_mc != b.tenants[t].mean_cpu_mc ||
        a.tenants[t].violation_rate != b.tenants[t].violation_rate) {
      return false;
    }
  }
  return true;
}

bool epoch_logs_identical(const FleetResult& a, const FleetResult& b) {
  if (a.epochs != b.epochs || a.final_nodes != b.final_nodes ||
      a.epoch_log.size() != b.epoch_log.size()) {
    return false;
  }
  for (std::size_t e = 0; e < a.epoch_log.size(); ++e) {
    const EpochSnapshot& x = a.epoch_log[e];
    const EpochSnapshot& y = b.epoch_log[e];
    if (x.sim_time != y.sim_time || x.nodes != y.nodes ||
        x.utilization != y.utilization ||
        x.groups_resized != y.groups_resized ||
        x.displaced_pods != y.displaced_pods ||
        x.nodes_added != y.nodes_added || x.nodes_removed != y.nodes_removed) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  PolicyCatalog catalog(catalog_config());

  // ---- Homogeneous fleets: one policy family per run. -----------------
  std::printf("%s", banner("Policy mix: homogeneous fleets, " +
                           std::to_string(kTenants) + " tenants x " +
                           std::to_string(kRequestsPerTenant) + " requests")
                        .c_str());
  const std::vector<std::string> families{"fixed",      "janus",
                                          "janus-",     "orion",
                                          "grandslam+", "mean_based",
                                          "optimal"};
  std::vector<std::vector<std::string>> rows;
  for (const auto& family : families) {
    const FleetResult r = run_fleet(base_fleet(catalog, {family}));
    rows.push_back({family, fmt(r.fleet_p50, 3), fmt(r.fleet_p99, 3),
                    fmt(r.fleet_mean_cpu_mc, 0),
                    fmt(100.0 * r.fleet_violation_rate, 2) + "%",
                    fmt(r.wall_seconds, 3)});
  }
  std::printf("%s", render_table({"policy", "P50 (s)", "P99 (s)", "CPU (mc)",
                                  ">SLO", "wall (s)"},
                                 rows)
                        .c_str());
  // ---- Concurrency axis: batching level vs latency/cost trade. --------
  // Janus fleets with every tenant's concurrency raised together (clamped
  // to each workload's max — VA stays at 1, "FE and ICO are
  // non-batchable").  Higher batching stretches the SLO (the workload
  // tables grant more budget per request) but shares each pod across more
  // in-flight requests, so CPU per request should fall.
  std::printf("%s",
              banner("Policy mix: tenant concurrency sweep (janus)").c_str());
  std::vector<std::vector<std::string>> conc_rows;
  for (Concurrency conc : {1, 2, 3}) {
    FleetConfig config = base_fleet(catalog, {"janus"});
    for (auto& tenant : config.tenants) {
      tenant.concurrency = std::min(
          conc, workload_by_name(tenant.workload).max_concurrency);
    }
    const FleetResult r = run_fleet(config);
    conc_rows.push_back({std::to_string(conc), fmt(r.fleet_p50, 3),
                         fmt(r.fleet_p99, 3), fmt(r.fleet_mean_cpu_mc, 0),
                         fmt(100.0 * r.fleet_violation_rate, 2) + "%",
                         fmt(r.wall_seconds, 3)});
  }
  std::printf("%s", render_table({"conc", "P50 (s)", "P99 (s)", "CPU (mc)",
                                  ">SLO", "wall (s)"},
                                 conc_rows)
                        .c_str());

  const PolicyCatalogStats after_homogeneous = catalog.stats();
  std::printf("catalog: %d profile sets, %d hints bundles, %d ORION solves\n",
              after_homogeneous.profiles_built, after_homogeneous.bundles_built,
              after_homogeneous.orion_solved);

  // ---- Adversarial mix: every family at once, live control plane. -----
  std::printf("%s", banner("Policy mix: adversarial mix, epoch feedback + "
                           "autoscale, shard sweep")
                        .c_str());
  FleetResult reference;
  bool identical = true;
  double wall_1 = 0.0, wall_8 = 0.0;
  std::vector<std::vector<std::string>> mix_rows;
  for (int shards : {1, 2, 4, 8}) {
    const FleetResult result = run_fleet(mix_fleet(catalog, shards));
    const bool match = shards == 1 || (metrics_identical(reference, result) &&
                                       epoch_logs_identical(reference, result));
    identical = identical && match;
    if (shards == 1) {
      reference = result;
      wall_1 = result.wall_seconds;
    }
    if (shards == 8) wall_8 = result.wall_seconds;
    mix_rows.push_back({std::to_string(shards), fmt(result.wall_seconds, 3),
                        std::to_string(result.epochs),
                        std::to_string(result.final_nodes),
                        fmt(result.fleet_p99, 3),
                        fmt(100.0 * result.fleet_violation_rate, 2) + "%",
                        match ? "yes" : "NO"});
  }
  std::printf("%s", render_table({"shards", "wall (s)", "epochs", "nodes",
                                  "P99 (s)", ">SLO", "identical"},
                                 mix_rows)
                        .c_str());
  std::printf("\nper-tenant (mix, 1 shard):\n");
  std::vector<std::vector<std::string>> tenant_rows;
  for (const auto& t : reference.tenants) {
    tenant_rows.push_back({t.name, t.policy, fmt(t.coresidency, 2),
                           fmt(t.e2e_p99, 3), fmt(t.mean_cpu_mc, 0),
                           fmt(100.0 * t.violation_rate, 1) + "%"});
  }
  std::printf("%s", render_table({"tenant", "policy", "co-res", "P99 (s)",
                                  "CPU (mc)", ">SLO"},
                                 tenant_rows)
                        .c_str());

  const bool catalog_stable =
      catalog.stats().profiles_built == after_homogeneous.profiles_built &&
      catalog.stats().bundles_built == after_homogeneous.bundles_built;
  std::printf("bit_identical_mix: %s\n", identical ? "yes" : "no");
  std::printf("control_epochs: %d\n", reference.epochs);
  std::printf("catalog_reused_across_sweep: %s\n",
              catalog_stable ? "yes" : "no");
  std::printf("speedup_1_to_8: %.2f\n", wall_8 > 0.0 ? wall_1 / wall_8 : 0.0);

  if (!identical) {
    std::fprintf(stderr,
                 "bench_policy_mix: mixed-policy fleet metrics or epoch log "
                 "changed with the shard count — determinism contract "
                 "broken\n");
    return 1;
  }
  if (reference.epochs < 2) {
    std::fprintf(stderr,
                 "bench_policy_mix: control plane ran %d epochs — the mix "
                 "never exercised reconciliation\n",
                 reference.epochs);
    return 1;
  }
  if (!catalog_stable) {
    std::fprintf(stderr,
                 "bench_policy_mix: the policy catalog re-synthesized "
                 "artifacts during the sweep — the share-once contract "
                 "broke\n");
    return 1;
  }
  return 0;
}
