// Policy-robustness scorecard under deterministic chaos.
//
// Runs every §V policy family as a homogeneous fleet through six chaos
// scenarios — calm, node failures, pod preemption, cold-start storms,
// flash crowds, and all four at once — with the SAME tenant set, seed,
// and chaos schedule, and reports per (family, scenario):
//
//   * SLO attainment under chaos and its drop vs the family's calm run
//     (how much of the damage the policy absorbs);
//   * recovery epochs: how many barriers after the last injection the
//     fleet's per-epoch violation rate stays above the calm run's overall
//     rate (0 = absorbed instantly; censored at the run's end);
//   * stranded pods, killed pods, and re-queued invocations (the raw
//     damage the schedule dealt, identical across families by
//     construction for failures/storm/flash — preemption kills busy pods,
//     so its totals vary with how many pods the policy keeps busy).
//
// The second half pins the determinism contract for chaos runs: the
// adversarial policy mix under the "all" scenario swept over 1/2/4/8
// shards plus a same-config rerun, asserting fleet metrics, the epoch
// audit trail (including its chaos columns), and the chaos event log stay
// bit-identical.  Exits nonzero if anything diverges, if the chaos
// schedule injected nothing (the scorecard would be vacuous), or if a
// calm run reports chaos.
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "exp/report.hpp"
#include "fleet/fleet.hpp"
#include "obs/timeline.hpp"

using namespace janus;

namespace {

constexpr int kTenants = 6;
constexpr int kRequestsPerTenant = 1500;
constexpr Seconds kEpochS = 20.0;

const std::vector<std::string> kFamilies{"fixed",      "janus",
                                         "orion",      "grandslam+",
                                         "mean_based", "optimal"};
const std::vector<std::string> kScenarios{"calm",  "failures", "preemption",
                                          "storm", "flash",    "all"};

ChaosConfig scenario_chaos(const std::string& scenario) {
  if (scenario == "calm") return ChaosConfig{};
  ChaosConfig chaos =
      chaos_config_from_spec(scenario == "storm" ? "storms" : scenario);
  chaos.seed = 11;
  // Aggressive enough that a ~7-barrier run injects every armed family.
  chaos.node_fail_per_epoch = 0.35;
  chaos.min_nodes = 2;
  chaos.preempt_per_epoch = 0.45;
  chaos.preempt_fraction = 0.5;
  chaos.storm_per_epoch = 0.35;
  chaos.storm_multiplier = 10.0;
  chaos.storm_epochs = 1;
  chaos.flash_k = 6.0;
  chaos.flash_start_s = 20.0;
  chaos.flash_spread_s = 60.0;
  chaos.flash_window_s = 25.0;
  return chaos;
}

FleetConfig scorecard_fleet(PolicyCatalog& catalog,
                            const std::vector<std::string>& policies,
                            const std::string& scenario, int shards) {
  FleetConfig config;
  config.tenants = make_tenant_mix(kTenants, kRequestsPerTenant,
                                   /*base_rate=*/10.0, ArrivalKind::Poisson,
                                   /*mixed_kinds=*/true, policies);
  config.shards = shards;
  config.seed = 2026;
  config.epoch_s = kEpochS;  // finite for every scenario: same control plane
  config.cluster.nodes = 8;  // small enough that one failure is felt
  config.autoscale.enabled = true;  // the fleet may re-grow lost nodes
  config.autoscale.scale_out_latency_epochs = 1;
  config.catalog = &catalog;
  config.obs.timeline = true;  // per-epoch violation rates for recovery
  config.chaos = scenario_chaos(scenario);
  return config;
}

/// Epochs after the last injection whose per-epoch violation rate exceeds
/// `calm_rate` (the family's calm-run overall rate).  0 = the fleet is
/// back at calm violation levels by the first post-injection barrier;
/// censored at the last barrier when it never recovers inside the run.
int recovery_epochs(const FleetResult& result, double calm_rate) {
  if (result.epoch_log.empty()) return 0;
  // Last barrier that injected anything (a storm's whole span counts).
  int last_inject = -1;
  for (const EpochSnapshot& snap : result.epoch_log) {
    const bool injected = snap.chaos.failed_nodes > 0 ||
                          snap.chaos.preempted_pods > 0 ||
                          snap.chaos.storm_multiplier != 1.0;
    if (injected) last_inject = snap.epoch;
  }
  // Flash windows live on the arrival axis: epoch e spans
  // (e*epoch_s, (e+1)*epoch_s], so a window [t0, t1) disrupts every epoch
  // its span overlaps.
  for (const ChaosEvent& ev : result.chaos_log) {
    if (ev.family != ChaosFamily::FlashCrowd) continue;
    const int last_covered = static_cast<int>(ev.until_s / kEpochS);
    if (last_covered > last_inject) last_inject = last_covered;
  }
  if (last_inject < 0) return 0;

  // Cumulative (completed, violations) per epoch, fleet-summed from the
  // stage-0 timeline rows (every stage row of a tenant repeats them).
  std::map<int, std::pair<std::uint64_t, std::uint64_t>> by_epoch;
  for (const TimelineRow& row : result.obs.timeline) {
    if (row.stage != 0) continue;
    auto& cell = by_epoch[row.epoch];
    cell.first += static_cast<std::uint64_t>(row.completed);
    cell.second += static_cast<std::uint64_t>(row.violations);
  }
  int max_epoch = -1;
  for (const auto& [epoch, cell] : by_epoch) max_epoch = epoch;
  std::uint64_t prev_done = 0, prev_viol = 0;
  if (by_epoch.count(last_inject)) {
    prev_done = by_epoch[last_inject].first;
    prev_viol = by_epoch[last_inject].second;
  }
  for (int e = last_inject + 1; e <= max_epoch; ++e) {
    if (!by_epoch.count(e)) break;
    const auto [done, viol] = by_epoch[e];
    const std::uint64_t d_done = done - prev_done;
    const std::uint64_t d_viol = viol - prev_viol;
    prev_done = done;
    prev_viol = viol;
    const double rate = d_done > 0
                            ? static_cast<double>(d_viol) /
                                  static_cast<double>(d_done)
                            : 0.0;
    if (rate <= calm_rate + 1e-12) return e - last_inject - 1;
  }
  return max_epoch >= last_inject ? max_epoch - last_inject : 0;  // censored
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
        a.tenants[t].violation_rate != b.tenants[t].violation_rate) {
      return false;
    }
  }
  return true;
}

bool chaos_identical(const FleetResult& a, const FleetResult& b) {
  if (a.epochs != b.epochs || a.final_nodes != b.final_nodes ||
      a.epoch_log.size() != b.epoch_log.size()) {
    return false;
  }
  for (std::size_t e = 0; e < a.epoch_log.size(); ++e) {
    const EpochSnapshot& x = a.epoch_log[e];
    const EpochSnapshot& y = b.epoch_log[e];
    if (x.sim_time != y.sim_time || x.nodes != y.nodes ||
        x.utilization != y.utilization ||
        x.displaced_pods != y.displaced_pods ||
        x.chaos.failed_nodes != y.chaos.failed_nodes ||
        x.chaos.displaced_pods != y.chaos.displaced_pods ||
        x.chaos.stranded_pods != y.chaos.stranded_pods ||
        x.chaos.preempted_pods != y.chaos.preempted_pods ||
        x.chaos.storm_multiplier != y.chaos.storm_multiplier) {
      return false;
    }
  }
  if (a.chaos.node_failures != b.chaos.node_failures ||
      a.chaos.displaced_pods != b.chaos.displaced_pods ||
      a.chaos.stranded_pods != b.chaos.stranded_pods ||
      a.chaos.preemption_bursts != b.chaos.preemption_bursts ||
      a.chaos.preempted_pods != b.chaos.preempted_pods ||
      a.chaos.storms != b.chaos.storms ||
      a.chaos.flash_windows != b.chaos.flash_windows ||
      a.chaos.requeued_invocations != b.chaos.requeued_invocations ||
      a.chaos_log.size() != b.chaos_log.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.chaos_log.size(); ++i) {
    const ChaosEvent& x = a.chaos_log[i];
    const ChaosEvent& y = b.chaos_log[i];
    if (x.family != y.family || x.epoch != y.epoch ||
        x.sim_time != y.sim_time || x.tenant != y.tenant ||
        x.node != y.node || x.pods != y.pods || x.stranded != y.stranded ||
        x.magnitude != y.magnitude || x.until_s != y.until_s) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  PolicyCatalogConfig catalog_config;  // fleet-grade defaults
  PolicyCatalog catalog(catalog_config);

  // ---- Scorecard: policy family x chaos scenario. ---------------------
  std::printf("%s",
              banner("Chaos scorecard: " + std::to_string(kTenants) +
                     " tenants x " + std::to_string(kRequestsPerTenant) +
                     " requests, homogeneous fleets, shared schedule")
                  .c_str());
  bool calm_is_calm = true;
  bool all_injected = true;
  std::vector<std::vector<std::string>> rows;
  for (const std::string& family : kFamilies) {
    double calm_rate = 0.0;
    for (const std::string& scenario : kScenarios) {
      const FleetResult r =
          run_fleet(scorecard_fleet(catalog, {family}, scenario, 1));
      if (scenario == "calm") {
        calm_rate = r.fleet_violation_rate;
        calm_is_calm = calm_is_calm && !r.chaos_enabled &&
                       r.chaos_log.empty() && r.chaos.preempted_pods == 0;
      } else if (scenario == "all") {
        all_injected = all_injected &&
                       (r.chaos.node_failures > 0 ||
                        r.chaos.preempted_pods > 0 || r.chaos.storms > 0) &&
                       r.chaos.flash_windows == kTenants;
      }
      const double attain = 100.0 * (1.0 - r.fleet_violation_rate);
      const double drop =
          100.0 * (r.fleet_violation_rate - calm_rate);  // percentage points
      rows.push_back(
          {family, scenario, fmt(attain, 2) + "%", fmt(drop, 2) + "pp",
           fmt(r.fleet_p99, 3),
           std::to_string(r.chaos.preempted_pods),
           std::to_string(static_cast<int>(r.chaos.requeued_invocations)),
           std::to_string(r.chaos.stranded_pods),
           std::to_string(recovery_epochs(r, calm_rate))});
    }
  }
  std::printf("%s",
              render_table({"policy", "scenario", "SLO met", "drop", "P99 (s)",
                            "killed", "requeued", "stranded", "recov"},
                           rows)
                  .c_str());

  // ---- Determinism: adversarial mix, "all" scenario, shard sweep. -----
  std::printf("%s", banner("Chaos determinism: policy mix under 'all', "
                           "shard sweep + rerun")
                        .c_str());
  const std::vector<std::string> mix{"janus",  "orion",       "mean_based",
                                     "fixed",  "optimal",     "grandslam+"};
  FleetResult reference;
  bool identical = true;
  std::vector<std::vector<std::string>> sweep_rows;
  for (int shards : {1, 2, 4, 8}) {
    const FleetResult result =
        run_fleet(scorecard_fleet(catalog, mix, "all", shards));
    const bool match = shards == 1 || (metrics_identical(reference, result) &&
                                       chaos_identical(reference, result));
    identical = identical && match;
    if (shards == 1) reference = result;
    sweep_rows.push_back(
        {std::to_string(shards), fmt(result.wall_seconds, 3),
         std::to_string(result.epochs),
         std::to_string(result.chaos.node_failures),
         std::to_string(result.chaos.preempted_pods),
         std::to_string(result.chaos.storms),
         std::to_string(result.chaos.flash_windows),
         fmt(100.0 * result.fleet_violation_rate, 2) + "%",
         match ? "yes" : "NO"});
  }
  const FleetResult rerun = run_fleet(scorecard_fleet(catalog, mix, "all", 1));
  const bool rerun_match =
      metrics_identical(reference, rerun) && chaos_identical(reference, rerun);
  identical = identical && rerun_match;
  sweep_rows.push_back({"1 (rerun)", fmt(rerun.wall_seconds, 3),
                        std::to_string(rerun.epochs),
                        std::to_string(rerun.chaos.node_failures),
                        std::to_string(rerun.chaos.preempted_pods),
                        std::to_string(rerun.chaos.storms),
                        std::to_string(rerun.chaos.flash_windows),
                        fmt(100.0 * rerun.fleet_violation_rate, 2) + "%",
                        rerun_match ? "yes" : "NO"});
  std::printf("%s",
              render_table({"shards", "wall (s)", "epochs", "failures",
                            "killed", "storms", "flash", ">SLO", "identical"},
                           sweep_rows)
                  .c_str());

  std::printf("bit_identical_chaos: %s\n", identical ? "yes" : "no");
  std::printf("calm_runs_stay_calm: %s\n", calm_is_calm ? "yes" : "no");
  std::printf("all_scenario_injected: %s\n", all_injected ? "yes" : "no");
  std::printf("mix_epochs: %d\n", reference.epochs);
  std::printf("mix_stranded_pods: %d\n", reference.chaos.stranded_pods);

  if (!identical) {
    std::fprintf(stderr,
                 "bench_chaos: chaos-run metrics, epoch audit trail, or "
                 "event log changed with the shard count or across reruns "
                 "— determinism contract broken\n");
    return 1;
  }
  if (!calm_is_calm) {
    std::fprintf(stderr,
                 "bench_chaos: a calm scenario reported chaos activity — "
                 "the chaos-off zero-branch contract broke\n");
    return 1;
  }
  if (!all_injected) {
    std::fprintf(stderr,
                 "bench_chaos: the 'all' scenario injected nothing for "
                 "some family — the scorecard is vacuous; retune the "
                 "schedule knobs\n");
    return 1;
  }
  if (reference.epochs < 2) {
    std::fprintf(stderr,
                 "bench_chaos: the mix ran %d epochs — chaos barriers "
                 "never exercised reconciliation\n",
                 reference.epochs);
    return 1;
  }
  return 0;
}
