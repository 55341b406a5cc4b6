#include "fleet/frontier.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/log.hpp"

namespace janus {

const char* to_string(FrontierPhase phase) noexcept {
  switch (phase) {
    case FrontierPhase::Ramp: return "ramp";
    case FrontierPhase::Bisect: return "bisect";
  }
  return "?";
}

namespace {

std::string fmt_double(double v) {
  std::ostringstream os;
  os.precision(10);
  os << v;
  return os.str();
}

/// Cumulative process high-water mark — monotone across points, so the
/// column reads as "RSS needed to get this far through the sweep".
long peak_rss_kb_now() {
  struct rusage ru{};
  if (::getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return ru.ru_maxrss;
}

void validate(const FrontierConfig& config) {
  require(!config.fleet.tenants.empty(), "frontier needs >= 1 tenant");
  require(config.slo_target > 0.0 && config.slo_target <= 1.0,
          "frontier SLO target must be in (0, 1]");
  require(config.step_rps > 0.0 && std::isfinite(config.step_rps),
          "frontier step must be finite and > 0");
  require(config.stop_rps >= config.step_rps &&
              std::isfinite(config.stop_rps),
          "frontier stop must be finite and >= step");
  require(config.bisect_iters >= 0 && config.bisect_iters <= 32,
          "frontier bisection budget must be in [0, 32]");
}

/// Runs one operating point: the template fleet with every tenant's
/// arrival process rescaled so the fleet's summed mean rate is `rps`.
FrontierPoint run_point(const FrontierConfig& config, double base_rps,
                        double rps, FrontierPhase phase) {
  FleetConfig fc = config.fleet;
  const double factor = rps / base_rps;
  for (TenantSpec& tenant : fc.tenants) {
    tenant.arrivals = scale_arrivals(tenant.arrivals, factor);
  }
  // Arm the cheapest obs pillar so the calendar-occupancy gauge records
  // peak_pending.  Observability is non-perturbing by construction (the
  // obs suite pins obs-on == obs-off metrics), so this changes nothing in
  // the deterministic columns.
  if (!fc.obs.enabled()) fc.obs.timeline = true;

  const FleetResult result = run_fleet(fc);

  FrontierPoint point;
  point.phase = phase;
  point.offered_rps = rps;
  point.sim_end_s = result.sim_end_s;
  point.achieved_rps =
      result.sim_end_s > 0.0
          ? static_cast<double>(result.total_requests) / result.sim_end_s
          : 0.0;
  point.slo_met = 1.0 - result.fleet_violation_rate;
  point.p50_s = result.fleet_p50;
  point.p99_s = result.fleet_p99;
  point.p999_s = result.fleet_percentile(99.9);
  point.peak_pending = result.obs.peak_pending;
  point.peak_rss_kb = peak_rss_kb_now();
  return point;
}

}  // namespace

FrontierResult explore_frontier(const FrontierConfig& config) {
  validate(config);
  FrontierResult out;
  out.slo_target = config.slo_target;
  for (const TenantSpec& tenant : config.fleet.tenants) {
    out.base_rps += tenant.arrivals.mean_rate();
  }
  require(out.base_rps > 0.0,
          "frontier template fleet has zero offered load");

  // ---- Coarse ramp (mutated's step_size/step_stop): run step, 2*step,
  // ... until the first point misses the target or the ceiling passes.
  // step * i (not an accumulator) keeps every point's rate an exact
  // function of (step, i).
  double lo = 0.0;
  double hi = 0.0;
  for (int i = 1;; ++i) {
    const double rps = config.step_rps * static_cast<double>(i);
    if (rps > config.stop_rps * (1.0 + 1e-12)) break;
    FrontierPoint point = run_point(config, out.base_rps, rps,
                                    FrontierPhase::Ramp);
    point.sustained = point.slo_met >= config.slo_target;
    log_info("frontier: ramp ", rps, " req/s -> slo_met=", point.slo_met,
             point.sustained ? " (sustained)" : " (missed)");
    out.points.push_back(point);
    if (point.sustained) {
      lo = rps;
      out.knee_index = static_cast<int>(out.points.size()) - 1;
    } else {
      hi = rps;
      break;
    }
  }

  if (hi == 0.0) {
    // Every ramp point sustained: the knee is censored at the ceiling.
    out.censored_high = true;
    out.knee_rps = lo;
    return out;
  }

  // ---- Bisection inside [lo, hi) — lo may be 0 when the very first step
  // failed.  Fixed iteration budget: the schedule consumes only each
  // point's pass/fail bit, never a measured magnitude, so it is a pure
  // function of (seed, config).
  for (int it = 0; it < config.bisect_iters; ++it) {
    const double mid = 0.5 * (lo + hi);
    FrontierPoint point = run_point(config, out.base_rps, mid,
                                    FrontierPhase::Bisect);
    point.sustained = point.slo_met >= config.slo_target;
    log_info("frontier: bisect [", lo, ", ", hi, "] -> ", mid,
             " req/s, slo_met=", point.slo_met,
             point.sustained ? " (sustained)" : " (missed)");
    out.points.push_back(point);
    if (point.sustained) {
      lo = mid;
      out.knee_index = static_cast<int>(out.points.size()) - 1;
    } else {
      hi = mid;
    }
  }
  out.knee_rps = lo;
  out.censored_low = out.knee_index < 0;
  return out;
}

namespace {

void append_point_json(std::ostringstream& os, const FrontierPoint& p) {
  os << "{\"phase\": \"" << to_string(p.phase)
     << "\", \"offered_rps\": " << fmt_double(p.offered_rps)
     << ", \"achieved_rps\": " << fmt_double(p.achieved_rps)
     << ", \"slo_met\": " << fmt_double(p.slo_met)
     << ", \"sustained\": " << (p.sustained ? "true" : "false")
     << ", \"p50_s\": " << fmt_double(p.p50_s)
     << ", \"p99_s\": " << fmt_double(p.p99_s)
     << ", \"p999_s\": " << fmt_double(p.p999_s)
     << ", \"sim_end_s\": " << fmt_double(p.sim_end_s)
     << ", \"peak_pending\": " << p.peak_pending
     << ", \"peak_rss_kb\": " << p.peak_rss_kb << "}";
}

}  // namespace

std::string FrontierResult::to_json() const {
  std::ostringstream os;
  os << "{\n  \"slo_target\": " << fmt_double(slo_target)
     << ",\n  \"base_rps\": " << fmt_double(base_rps)
     << ",\n  \"knee_rps\": " << fmt_double(knee_rps)
     << ",\n  \"censored_low\": " << (censored_low ? "true" : "false")
     << ",\n  \"censored_high\": " << (censored_high ? "true" : "false")
     << ",\n  \"knee\": ";
  if (knee_index >= 0) {
    append_point_json(os, points[static_cast<std::size_t>(knee_index)]);
  } else {
    os << "null";
  }
  os << ",\n  \"points\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    os << "    ";
    append_point_json(os, points[i]);
    os << (i + 1 < points.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  return os.str();
}

std::string FrontierResult::to_csv() const {
  std::ostringstream os;
  os << "phase,offered_rps,achieved_rps,slo_met,sustained,p50_s,p99_s,"
        "p999_s,sim_end_s,peak_pending,peak_rss_kb\n";
  for (const FrontierPoint& p : points) {
    os << to_string(p.phase) << ',' << fmt_double(p.offered_rps) << ','
       << fmt_double(p.achieved_rps) << ',' << fmt_double(p.slo_met) << ','
       << (p.sustained ? 1 : 0) << ',' << fmt_double(p.p50_s) << ','
       << fmt_double(p.p99_s) << ',' << fmt_double(p.p999_s) << ','
       << fmt_double(p.sim_end_s) << ',' << p.peak_pending << ','
       << p.peak_rss_kb << '\n';
  }
  return os.str();
}

}  // namespace janus
