// Observability overhead: pins the cost of the tracing/metrics plane on
// the fleet hot path.  Four modes over the same live-control-plane fleet:
//
//   off       — ObsConfig{} (sinks never armed; the shipping default)
//   armed     — trace on but sample stride ~2^30: every request pays the
//               null-test + stride check, almost none record.  This is
//               the honest "instrumented but quiet" cost.
//   sampled64 — 1:64 span sampling + epoch timeline (the profile the CI
//               artifact job runs)
//   full      — 1:1 spans + timeline (worst case)
//
// Wall times are best-of-3 run_fleet clocks.  The contract (ISSUE PR 7):
// observability off/armed must stay within noise of baseline — the bench
// hard-fails only above 10% armed overhead (CI machines are noisy; the
// committed baseline documents the real figure, ~0%), and warns above the
// 2% design budget.  Recording modes must not perturb a single metric:
// fleet P50/P99/CPU are compared bit-exactly across all four modes, and
// full-mode span accounting (recorded = retained + dropped, rings bounded
// by capacity) is asserted.  Emitted via bench_main as
// BENCH_obs_overhead.json.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "exp/report.hpp"
#include "fleet/fleet.hpp"

using namespace janus;

namespace {

constexpr int kTenants = 8;
constexpr int kRequestsPerTenant = 8000;  // 64k total
constexpr int kRepeats = 3;
constexpr std::size_t kRingCapacity = 1024;

FleetConfig base_config() {
  FleetConfig config;
  config.tenants = make_tenant_mix(kTenants, kRequestsPerTenant,
                                   /*base_rate=*/10.0, ArrivalKind::Poisson,
                                   /*mixed_kinds=*/true);
  config.shards = 4;
  config.seed = 2027;
  config.epoch_s = 60.0;
  config.autoscale.enabled = true;
  return config;
}

struct Mode {
  std::string name;
  ObsConfig obs;
};

struct Measured {
  FleetResult result;   // last run (metrics identical across repeats)
  double best_wall = 0.0;
};

Measured run_mode(const Mode& mode) {
  Measured m;
  m.best_wall = 1e300;
  for (int rep = 0; rep < kRepeats; ++rep) {
    FleetConfig config = base_config();
    config.obs = mode.obs;
    m.result = run_fleet(config);
    m.best_wall = std::min(m.best_wall, m.result.wall_seconds);
  }
  return m;
}

bool metrics_identical(const FleetResult& a, const FleetResult& b) {
  return a.fleet_p50 == b.fleet_p50 && a.fleet_p99 == b.fleet_p99 &&
         a.fleet_mean_cpu_mc == b.fleet_mean_cpu_mc &&
         a.fleet_violation_rate == b.fleet_violation_rate &&
         a.total_requests == b.total_requests &&
         a.fleet_e2e().sorted_samples() == b.fleet_e2e().sorted_samples();
}

}  // namespace

int main() {
  std::printf("%s", banner("Observability overhead: " +
                           std::to_string(kTenants) + " tenants x " +
                           std::to_string(kRequestsPerTenant) +
                           " requests, live control plane, best of " +
                           std::to_string(kRepeats))
                        .c_str());

  // Warm up allocator/code paths so "off" (measured first) is not charged
  // for first-touch effects.
  {
    FleetConfig warm = base_config();
    for (auto& t : warm.tenants) t.requests = 200;
    (void)run_fleet(warm);
  }

  std::vector<Mode> modes;
  modes.push_back({"off", ObsConfig{}});
  {
    ObsConfig armed;
    armed.trace = true;
    armed.sample_every = 1 << 30;  // sinks live, ~nothing records
    armed.ring_capacity = kRingCapacity;
    modes.push_back({"armed", armed});
  }
  {
    ObsConfig sampled;
    sampled.trace = true;
    sampled.timeline = true;
    sampled.sample_every = 64;
    sampled.ring_capacity = kRingCapacity;
    modes.push_back({"sampled64", sampled});
  }
  {
    ObsConfig full;
    full.trace = true;
    full.timeline = true;
    full.sample_every = 1;
    full.ring_capacity = kRingCapacity;
    modes.push_back({"full", full});
  }

  std::vector<Measured> measured;
  for (const Mode& mode : modes) measured.push_back(run_mode(mode));
  const double wall_off = measured[0].best_wall;

  bool perturbed = false;
  std::vector<std::vector<std::string>> rows;
  for (std::size_t i = 0; i < modes.size(); ++i) {
    const Measured& m = measured[i];
    const double overhead =
        wall_off > 0.0 ? 100.0 * (m.best_wall / wall_off - 1.0) : 0.0;
    const bool match = metrics_identical(measured[0].result, m.result);
    perturbed = perturbed || !match;
    rows.push_back({modes[i].name, fmt(m.best_wall, 3),
                    fmt(overhead, 2) + "%",
                    std::to_string(m.result.obs.counters.spans_recorded),
                    std::to_string(m.result.obs.spans.size()),
                    std::to_string(m.result.obs.counters.spans_dropped),
                    std::to_string(m.result.obs.timeline.size()),
                    match ? "yes" : "NO"});
  }
  std::printf("%s",
              render_table({"mode", "wall (s)", "overhead", "recorded",
                            "retained", "dropped", "timeline", "identical"},
                           rows)
                  .c_str());

  // Full-mode span accounting: every request span is recorded, retained
  // capacity bounds the survivors, and nothing goes missing.
  const FleetResult& full = measured.back().result;
  const std::uint64_t retained = full.obs.spans.size();
  const bool accounting_ok =
      full.obs.counters.spans_recorded ==
          retained + full.obs.counters.spans_dropped &&
      retained <= kTenants * kRingCapacity &&
      full.obs.counters.spans_recorded > 0;

  const double armed_overhead =
      wall_off > 0.0 ? measured[1].best_wall / wall_off - 1.0 : 0.0;
  std::printf("wall_off_s: %.3f\n", wall_off);
  std::printf("armed_overhead_pct: %.2f\n", 100.0 * armed_overhead);
  std::printf("metrics_identical_across_modes: %s\n",
              perturbed ? "no" : "yes");
  std::printf("span_accounting_ok: %s\n", accounting_ok ? "yes" : "no");

  if (armed_overhead > 0.02) {
    std::fprintf(stderr,
                 "bench_obs_overhead: WARNING armed overhead %.2f%% exceeds "
                 "the 2%% design budget (noise or a regression)\n",
                 100.0 * armed_overhead);
  }
  int rc = 0;
  if (armed_overhead > 0.10) {
    std::fprintf(stderr,
                 "bench_obs_overhead: FAIL armed tracing costs %.2f%% "
                 "(> 10%%) over disabled — the JANUS_OBS guard is no "
                 "longer cheap\n",
                 100.0 * armed_overhead);
    rc = 1;
  }
  if (perturbed) {
    std::fprintf(stderr,
                 "bench_obs_overhead: FAIL recording changed fleet metrics; "
                 "observation must not perturb the simulation\n");
    rc = 1;
  }
  if (!accounting_ok) {
    std::fprintf(stderr,
                 "bench_obs_overhead: FAIL span accounting broken "
                 "(recorded=%llu retained=%llu dropped=%llu cap=%zu)\n",
                 static_cast<unsigned long long>(
                     full.obs.counters.spans_recorded),
                 static_cast<unsigned long long>(retained),
                 static_cast<unsigned long long>(
                     full.obs.counters.spans_dropped),
                 kTenants * kRingCapacity);
    rc = 1;
  }
  return rc;
}
