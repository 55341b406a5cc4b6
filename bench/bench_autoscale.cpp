// Control-plane dynamics: how the epoch length and the scale-out latency
// shape tail latency and SLO violations for a bursty fleet on a
// deliberately undersized node pool.
//
// Two sweeps over a fixed 6-tenant MMPP-heavy fleet (4 nodes at plan
// time, autoscaler on):
//
//   * epoch sweep — epoch_s from inf (plan once, never react) down to a
//     tight control loop.  Shorter epochs let the cluster chase demand:
//     co-residency tracks observed pod counts instead of Little's-law
//     estimates, and the autoscaler gets more chances to act.
//   * scale-out latency sweep — at a fixed epoch, how many epochs a node
//     order takes to mature.  This is the paper's scale-out-lag story:
//     slower provisioning leaves bursts packed tight, inflating
//     interference tails.
//
// Also re-checks determinism: the flagship config runs twice and must
// produce identical metrics and epoch logs.  Emitted via bench_main as
// BENCH_autoscale.json.
#include <cstdio>
#include <string>
#include <vector>

#include "exp/report.hpp"
#include "fleet/fleet.hpp"

using namespace janus;

namespace {

constexpr int kTenants = 6;
constexpr int kRequestsPerTenant = 4000;

FleetConfig base_config() {
  FleetConfig config;
  config.tenants = make_tenant_mix(kTenants, kRequestsPerTenant,
                                   /*base_rate=*/15.0, ArrivalKind::Mmpp,
                                   /*mixed_kinds=*/true);
  config.shards = 2;
  config.seed = 2026;
  config.cluster.nodes = 4;  // undersized: the autoscaler has work to do
  config.autoscale.enabled = true;
  config.autoscale.max_step_nodes = 2;
  return config;
}

std::vector<std::string> row(const std::string& label,
                             const FleetResult& result) {
  return {label,
          std::to_string(result.epochs),
          std::to_string(result.final_nodes),
          "+" + std::to_string(result.nodes_added) + "/-" +
              std::to_string(result.nodes_removed),
          fmt(result.fleet_p50, 3),
          fmt(result.fleet_p99, 3),
          fmt(100.0 * result.fleet_violation_rate, 2) + "%",
          fmt(result.wall_seconds, 3)};
}

bool results_identical(const FleetResult& a, const FleetResult& b) {
  if (a.fleet_p50 != b.fleet_p50 || a.fleet_p99 != b.fleet_p99 ||
      a.fleet_violation_rate != b.fleet_violation_rate ||
      a.fleet_mean_cpu_mc != b.fleet_mean_cpu_mc ||
      a.epochs != b.epochs || a.final_nodes != b.final_nodes ||
      a.nodes_added != b.nodes_added || a.nodes_removed != b.nodes_removed ||
      a.fleet_e2e().sorted_samples() != b.fleet_e2e().sorted_samples()) {
    return false;
  }
  return true;
}

}  // namespace

int main() {
  const std::vector<std::string> header = {"config",  "epochs", "nodes",
                                           "+/-",     "P50 (s)", "P99 (s)",
                                           ">SLO",    "wall (s)"};

  // ---- Epoch sweep: from plan-once to a tight control loop. ----
  std::printf("%s", banner("Autoscale: epoch sweep (" +
                           std::to_string(kTenants) + " tenants x " +
                           std::to_string(kRequestsPerTenant) + " reqs, " +
                           "4-node plan, scale-out latency 1)")
                        .c_str());
  std::vector<std::vector<std::string>> rows;
  {
    FleetConfig config = base_config();  // epoch_s = inf: never reconcile
    rows.push_back(row("epoch=inf", run_fleet(config)));
  }
  bool reacted = false;
  for (double epoch_s : {120.0, 30.0, 10.0}) {
    FleetConfig config = base_config();
    config.epoch_s = epoch_s;
    config.autoscale.scale_out_latency_epochs = 1;
    const FleetResult result = run_fleet(config);
    reacted = reacted || result.nodes_added > 0;
    rows.push_back(row("epoch=" + fmt(epoch_s, 0) + "s", result));
  }
  std::printf("%s", render_table(header, rows).c_str());

  // ---- Scale-out latency sweep at a fixed 30 s epoch. ----
  std::printf("%s", banner("Autoscale: scale-out latency sweep (epoch 30 s)")
                        .c_str());
  rows.clear();
  for (int latency : {0, 1, 4}) {
    FleetConfig config = base_config();
    config.epoch_s = 30.0;
    config.autoscale.scale_out_latency_epochs = latency;
    rows.push_back(
        row("latency=" + std::to_string(latency), run_fleet(config)));
  }
  std::printf("%s", render_table(header, rows).c_str());

  // ---- Determinism: the flagship config, twice. ----
  FleetConfig flagship = base_config();
  flagship.epoch_s = 30.0;
  flagship.autoscale.scale_out_latency_epochs = 1;
  const FleetResult a = run_fleet(flagship);
  const FleetResult b = run_fleet(flagship);
  const bool deterministic = results_identical(a, b);

  std::printf("autoscaler_reacted: %s\n", reacted ? "yes" : "no");
  std::printf("deterministic_rerun: %s\n", deterministic ? "yes" : "no");
  std::printf("flagship_epochs: %d\n", a.epochs);
  std::printf("flagship_final_nodes: %d\n", a.final_nodes);

  if (!deterministic) {
    std::fprintf(stderr,
                 "bench_autoscale: two runs of the same config diverged — "
                 "the control plane is not deterministic\n");
    return 1;
  }
  if (!reacted) {
    std::fprintf(stderr,
                 "bench_autoscale: the autoscaler never added a node over "
                 "the epoch sweep — the scenario lost its dynamics\n");
    return 1;
  }
  if (a.epochs < 2) {
    std::fprintf(stderr,
                 "bench_autoscale: flagship ran %d epochs — reconciliation "
                 "was not exercised\n",
                 a.epochs);
    return 1;
  }
  return 0;
}
