#include "fleet/slice.hpp"

#include "stats/codec.hpp"

namespace janus {

std::vector<std::uint8_t> encode_slice(const FleetSliceOutcome& s) {
  codec::ByteWriter w;
  codec::write_header(w);
  w.u64(s.lo);
  w.u64(s.hi);
  w.u8(s.stream ? 1 : 0);
  w.u64(s.fleet_seed);
  w.u64(s.requests_total);
  w.u64(s.violations_total);
  w.f64(s.cpu_total);
  codec::encode(w, s.slice_hist);
  require(s.stream ? s.tenants.empty() : s.tenants.size() == s.hi - s.lo,
          "slice outcome has the wrong tenant row count");
  w.u64(s.tenants.size());
  for (const TenantResult& t : s.tenants) {
    w.str(t.name);
    w.str(t.workload);
    w.str(t.policy);
    w.u8(static_cast<std::uint8_t>(t.arrivals));
    w.i32(t.requests);
    w.f64(t.slo);
    w.f64(t.violation_rate);
    w.f64(t.mean_cpu_mc);
    w.f64(t.e2e_p50);
    w.f64(t.e2e_p99);
    w.f64(t.coresidency);
    codec::encode(w, t.e2e);
  }
  w.f64(s.sim_end_s);
  codec::encode(w, s.counters);
  codec::encode(w, s.spans);
  codec::encode(w, s.timeline);
  w.u64(s.events_executed);
  w.u64(s.peak_pending);
  w.i32(s.epochs);
  w.i32(s.final_nodes);
  w.f64(s.cluster_utilization);
  w.i32(s.overcommitted_pods);
  codec::encode(w, s.epoch_log);
  return w.take();
}

FleetSliceOutcome decode_slice(const std::uint8_t* data, std::size_t size) {
  codec::ByteReader r(data, size);
  codec::read_header(r);
  FleetSliceOutcome s;
  s.lo = static_cast<std::size_t>(r.u64());
  s.hi = static_cast<std::size_t>(r.u64());
  require(s.lo <= s.hi, "slice bounds are inverted");
  s.stream = r.u8() != 0;
  s.fleet_seed = r.u64();
  s.requests_total = r.u64();
  s.violations_total = r.u64();
  s.cpu_total = r.f64();
  s.slice_hist = codec::decode_histogram(r);
  const std::uint64_t rows = r.u64();
  require(s.stream ? rows == 0 : rows == s.hi - s.lo,
          "slice blob has the wrong tenant row count");
  s.tenants.reserve(static_cast<std::size_t>(rows));
  for (std::uint64_t i = 0; i < rows; ++i) {
    TenantResult& t = s.tenants.emplace_back();
    t.name = r.str();
    t.workload = r.str();
    t.policy = r.str();
    const std::uint8_t kind = r.u8();
    require(kind <= static_cast<std::uint8_t>(ArrivalKind::Trace),
            "slice blob has an unknown arrival kind");
    t.arrivals = static_cast<ArrivalKind>(kind);
    t.requests = r.i32();
    t.slo = r.f64();
    t.violation_rate = r.f64();
    t.mean_cpu_mc = r.f64();
    t.e2e_p50 = r.f64();
    t.e2e_p99 = r.f64();
    t.coresidency = r.f64();
    t.e2e = codec::decode_empirical(r);
  }
  s.sim_end_s = r.f64();
  s.counters = codec::decode_obs_counters(r);
  s.spans = codec::decode_spans(r);
  s.timeline = codec::decode_timeline(r);
  s.events_executed = r.u64();
  s.peak_pending = r.u64();
  s.epochs = r.i32();
  s.final_nodes = r.i32();
  s.cluster_utilization = r.f64();
  s.overcommitted_pods = r.i32();
  s.epoch_log = codec::decode_epoch_log(r);
  require(r.done(), "slice blob has trailing bytes");
  return s;
}

}  // namespace janus
