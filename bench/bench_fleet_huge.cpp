// Six-figure tenant scale: 100k tenants through the streaming,
// shard-parallel fleet path.
//
// Per-tenant request records live in arena-backed SoA storage, completed
// tenants fold into their shard's accumulator and release their log and
// policy immediately (stream_metrics), and on this static path each shard
// runs its tenants one at a time, reset()ing one recycled calendar,
// Platform and serve state between them.  Three contracts are asserted
// here:
//
//   * completion — the full tenant count is served (default 100,000;
//     JANUS_HUGE_TENANTS overrides, which is how ci/verify.sh runs a
//     reduced-size variant on every build);
//   * bit-identity — the streamed scalar metric set (totals, violation
//     rate, CPU, histogram, counters, epoch/event tallies) is identical
//     between the 1-shard run and every multi-shard run;
//   * bounded memory — peak RSS of the full-scale streamed run stays
//     well below linear scaling from a 1/8-scale run of the same shape
//     (the streaming fold releases each tenant's request log and policy
//     as it completes, and each shard keeps one Platform and serve state
//     for all its tenants, so resident state tracks *active* tenants).
//
// Emitted via bench_main as BENCH_fleet_huge.json; events/sec and the RSS
// figures land in the bench stdout, peak_rss_kb in the artifact envelope.
// events/sec divides by FleetResult::wall_seconds, the whole run_fleet
// call: plan, the simulation with the packing it overlaps, and merge.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "exp/report.hpp"
#include "fleet/fleet.hpp"

using namespace janus;

namespace {

constexpr int kDefaultTenants = 100000;
constexpr int kRequestsPerTenant = 10;

int tenant_count() {
  // CI runs a reduced-size variant through this knob; the committed
  // baseline is recorded at the full default.
  if (const char* env = std::getenv("JANUS_HUGE_TENANTS")) {
    const int n = std::atoi(env);
    if (n >= 16) return n;
    std::fprintf(stderr,
                 "bench_fleet_huge: ignoring JANUS_HUGE_TENANTS=%s "
                 "(need >= 16)\n",
                 env);
  }
  return kDefaultTenants;
}

FleetConfig huge_config(int tenants, int shards) {
  FleetConfig config;
  config.tenants = make_tenant_mix(tenants, kRequestsPerTenant,
                                   /*base_rate=*/10.0, ArrivalKind::Poisson,
                                   /*mixed_kinds=*/false);
  config.shards = shards;
  config.stream_metrics = true;
  config.seed = 2026;
  // Plan packing walks nodes per pod group: a handful of huge nodes keeps
  // the plan linear in tenants instead of O(tenants x nodes).
  config.cluster.nodes = 4;
  config.cluster.node_capacity_mc = 2000000000;
  return config;
}

long self_peak_rss_kb() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;  // Linux reports KiB
}

bool streamed_identical(const FleetResult& a, const FleetResult& b) {
  if (a.total_requests != b.total_requests ||
      a.fleet_violation_rate != b.fleet_violation_rate ||
      a.fleet_mean_cpu_mc != b.fleet_mean_cpu_mc ||
      a.fleet_p50 != b.fleet_p50 || a.fleet_p99 != b.fleet_p99 ||
      a.final_nodes != b.final_nodes ||
      a.obs.counters.invocations != b.obs.counters.invocations ||
      a.obs.counters.cold_starts != b.obs.counters.cold_starts ||
      a.obs.events_executed != b.obs.events_executed) {
    return false;
  }
  if (a.fleet_hist.bins() != b.fleet_hist.bins()) return false;
  for (std::size_t i = 0; i < a.fleet_hist.bins(); ++i) {
    if (a.fleet_hist.bin_count(i) != b.fleet_hist.bin_count(i)) return false;
  }
  return true;
}

}  // namespace

int main() {
  const int tenants = tenant_count();
  std::printf("%s", banner("Fleet huge: " + std::to_string(tenants) +
                           " tenants x " +
                           std::to_string(kRequestsPerTenant) +
                           " requests, streaming merge, shard sweep")
                        .c_str());

  // 1/8-scale run of the same shape: warms allocator/code paths and
  // anchors the sublinearity check.  Runs first because ru_maxrss is a
  // high-water mark — the small figure must be taken before the full run.
  const int small_tenants = tenants / 8;
  (void)run_fleet(huge_config(small_tenants, 1));
  const long rss_small_kb = self_peak_rss_kb();

  FleetResult reference;
  bool identical = true;
  long rss_full_kb = 0;
  double events_per_sec = 0.0;
  std::vector<std::vector<std::string>> rows;
  for (int shards : {1, 2, 4}) {
    const FleetResult result = run_fleet(huge_config(tenants, shards));
    const bool match = shards == 1 || streamed_identical(reference, result);
    identical = identical && match;
    const double eps = result.wall_seconds > 0.0
                           ? static_cast<double>(result.obs.events_executed) /
                                 result.wall_seconds
                           : 0.0;
    if (shards == 1) {
      reference = result;
      rss_full_kb = self_peak_rss_kb();
      events_per_sec = eps;
    }
    rows.push_back({std::to_string(shards), fmt(result.wall_seconds, 3),
                    fmt(eps / 1e6, 2) + "M",
                    std::to_string(result.total_requests),
                    fmt(result.fleet_p99, 3),
                    fmt(100.0 * result.fleet_violation_rate, 2) + "%",
                    match ? "yes" : "NO"});
  }
  std::printf("%s", render_table({"shards", "wall (s)", "events/s", "reqs",
                                  "P99 (s)", ">SLO", "identical"},
                                 rows)
                        .c_str());

  const double rss_ratio =
      rss_small_kb > 0
          ? static_cast<double>(rss_full_kb) / static_cast<double>(rss_small_kb)
          : 0.0;
  std::printf("tenants: %d\n", tenants);
  std::printf("requests_total: %zu\n", reference.total_requests);
  std::printf("events_per_sec: %.0f\n", events_per_sec);
  std::printf("bit_identical_across_shards: %s\n",
              identical ? "yes" : "no");
  std::printf("peak_rss_small_kb: %ld\n", rss_small_kb);
  std::printf("peak_rss_full_kb: %ld\n", rss_full_kb);
  std::printf("rss_ratio_8x_tenants: %.2f\n", rss_ratio);

  if (!identical) {
    std::fprintf(stderr,
                 "bench_fleet_huge: streamed fleet metrics changed with the "
                 "shard count — the tenant-major fold is not "
                 "bit-identical\n");
    return 1;
  }
  if (reference.total_requests !=
      static_cast<std::size_t>(tenants) * kRequestsPerTenant) {
    std::fprintf(stderr, "bench_fleet_huge: served %zu of %d requests\n",
                 reference.total_requests,
                 tenants * kRequestsPerTenant);
    return 1;
  }
  // 8x the tenants must cost far less than 8x the memory: the streaming
  // fold keeps request records O(active tenants), so the full-scale run
  // adds plan-time state (O(tenants), a few hundred bytes each: the
  // TenantSpec, the control plane's groups and feed) but not O(requests)
  // sample storage.  With one tenant resident per shard that plan state
  // sets the ratio (about 5.4 at the default size), so 6x rejects both
  // linear growth and a fatter per-tenant plan.
  if (rss_ratio > 6.0) {
    std::fprintf(stderr,
                 "bench_fleet_huge: peak RSS grew %.2fx going from %d to %d "
                 "tenants — streaming release is not bounding memory\n",
                 rss_ratio, small_tenants, tenants);
    return 1;
  }
  return 0;
}
