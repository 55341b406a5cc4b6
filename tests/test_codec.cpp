// The binary metrics codec (src/stats/codec) and the slice blob built on
// it (src/fleet/slice) are the wire format between fleet processes: every
// guarantee the multi-process merge leans on is pinned here — bit-exact
// round trips (doubles as IEEE bit patterns), the versioned-envelope
// guard, and the exact commutativity/associativity of the merge
// operations the decoded values feed.
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fleet/slice.hpp"
#include "stats/codec.hpp"
#include "stats/empirical.hpp"
#include "stats/histogram.hpp"

namespace janus {
namespace {

using codec::ByteReader;
using codec::ByteWriter;

/// Bit-level double equality: NaN-safe and distinguishes -0.0 from 0.0,
/// which `==` would conflate — the codec's contract is the bit pattern.
bool same_bits(double a, double b) {
  std::uint64_t ua = 0;
  std::uint64_t ub = 0;
  std::memcpy(&ua, &a, sizeof(ua));
  std::memcpy(&ub, &b, sizeof(ub));
  return ua == ub;
}

TEST(Codec, PrimitivesRoundTripLittleEndian) {
  ByteWriter w;
  w.u8(0xab);
  w.u16(0x1234);
  w.u32(0xdeadbeefu);
  w.u64(0x0123456789abcdefULL);
  w.i32(-42);
  w.i64(-1);
  w.f64(-0.0);
  w.f64(std::nan(""));
  w.str("janus");
  const std::vector<std::uint8_t> buf = w.bytes();
  // Spot-check the wire order: u16 0x1234 must be 0x34 0x12 (LE).
  EXPECT_EQ(buf[1], 0x34);
  EXPECT_EQ(buf[2], 0x12);
  ByteReader r(buf);
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.i32(), -42);
  EXPECT_EQ(r.i64(), -1);
  EXPECT_TRUE(same_bits(r.f64(), -0.0));
  EXPECT_TRUE(std::isnan(r.f64()));
  EXPECT_EQ(r.str(), "janus");
  EXPECT_TRUE(r.done());
}

TEST(Codec, ReaderThrowsOnOverrun) {
  ByteWriter w;
  w.u32(7);
  const std::vector<std::uint8_t> buf = w.bytes();
  ByteReader r(buf);
  (void)r.u32();
  EXPECT_THROW((void)r.u8(), std::exception);
  ByteReader truncated(buf.data(), 2);
  EXPECT_THROW((void)truncated.u32(), std::exception);
}

TEST(Codec, HeaderGuardsMagicAndVersion) {
  ByteWriter w;
  codec::write_header(w);
  {
    ByteReader r(w.bytes());
    EXPECT_NO_THROW(codec::read_header(r));
  }
  // Corrupt magic.
  std::vector<std::uint8_t> bad = w.bytes();
  bad[0] ^= 0xff;
  {
    ByteReader r(bad);
    EXPECT_THROW(codec::read_header(r), std::exception);
  }
  // Future version: same magic, bumped version field — the cross-version
  // guard must refuse rather than misinterpret the layout.
  ByteWriter future;
  future.u32(codec::kMagic);
  future.u16(codec::kCodecVersion + 1);
  {
    ByteReader r(future.bytes());
    EXPECT_THROW(codec::read_header(r), std::exception);
  }
}

EmpiricalDistribution sample_dist(std::uint64_t seed, int n) {
  std::vector<double> xs;
  xs.reserve(static_cast<std::size_t>(n));
  // Deterministic irrational-ish spread; values exercise non-trivial
  // mantissas so "bit-exact" actually means something.
  double x = 0.1 + static_cast<double>(seed % 7) * 0.013;
  for (int i = 0; i < n; ++i) {
    x = std::fmod(x * 1.7 + 0.31, 5.0);
    xs.push_back(x);
  }
  return EmpiricalDistribution(std::move(xs));
}

TEST(Codec, EmpiricalDistributionRoundTripIsBitExact) {
  const EmpiricalDistribution d = sample_dist(3, 257);
  ByteWriter w;
  codec::encode(w, d);
  ByteReader r(w.bytes());
  const EmpiricalDistribution back = codec::decode_empirical(r);
  ASSERT_EQ(back.size(), d.size());
  for (std::size_t i = 0; i < d.size(); ++i) {
    EXPECT_TRUE(same_bits(back.sorted_samples()[i], d.sorted_samples()[i]));
  }
  // Moments travel verbatim, not re-derived: re-accumulating them in a
  // different order would change the low bits and break merge identity.
  EXPECT_TRUE(same_bits(back.moment_mean(), d.moment_mean()));
  EXPECT_TRUE(same_bits(back.moment_m2(), d.moment_m2()));
  EXPECT_TRUE(same_bits(back.percentile(99.0), d.percentile(99.0)));
}

TEST(Codec, DecodedDistributionsMergeLikeTheOriginals) {
  // merge(decode(encode(a)), decode(encode(b))) must equal merge(a, b)
  // bit-for-bit — the property that makes process sharding invisible.
  EmpiricalDistribution a = sample_dist(1, 100);
  const EmpiricalDistribution b = sample_dist(2, 173);
  ByteWriter wa;
  codec::encode(wa, a);
  ByteWriter wb;
  codec::encode(wb, b);
  ByteReader ra(wa.bytes());
  ByteReader rb(wb.bytes());
  EmpiricalDistribution da = codec::decode_empirical(ra);
  const EmpiricalDistribution db = codec::decode_empirical(rb);
  a.merge(b);
  da.merge(db);
  ASSERT_EQ(da.size(), a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(same_bits(da.sorted_samples()[i], a.sorted_samples()[i]));
  }
  EXPECT_TRUE(same_bits(da.moment_mean(), a.moment_mean()));
  EXPECT_TRUE(same_bits(da.moment_m2(), a.moment_m2()));
}

Histogram sample_hist(std::uint64_t seed, int n) {
  Histogram h(0.0, 4.0, 16);
  double x = 0.05 * static_cast<double>(1 + seed % 11);
  for (int i = 0; i < n; ++i) {
    x = std::fmod(x * 3.1 + 0.7, 5.0);  // spills into overflow sometimes
    h.add(x - 0.2);                     // and underflow
  }
  return h;
}

bool hist_equal(const Histogram& a, const Histogram& b) {
  if (a.bins() != b.bins() || a.total() != b.total() ||
      a.underflow() != b.underflow() || a.overflow() != b.overflow() ||
      !same_bits(a.lo(), b.lo()) || !same_bits(a.hi(), b.hi())) {
    return false;
  }
  for (std::size_t i = 0; i < a.bins(); ++i) {
    if (a.bin_count(i) != b.bin_count(i)) return false;
  }
  return true;
}

TEST(Codec, HistogramRoundTripAndPercentile) {
  const Histogram h = sample_hist(5, 300);
  ByteWriter w;
  codec::encode(w, h);
  ByteReader r(w.bytes());
  const Histogram back = codec::decode_histogram(r);
  EXPECT_TRUE(hist_equal(back, h));
  EXPECT_TRUE(same_bits(back.percentile(50.0), h.percentile(50.0)));
  EXPECT_TRUE(same_bits(back.percentile(99.0), h.percentile(99.0)));
}

TEST(Codec, HistogramMergeIsCommutativeAndAssociative) {
  // Integer bin counts: the merge is exactly commutative and associative,
  // so slice fold order can never show through.  Pinned here because the
  // streaming fleet's p50/p99 rest on it.
  const Histogram a = sample_hist(1, 100);
  const Histogram b = sample_hist(2, 200);
  const Histogram c = sample_hist(3, 50);
  Histogram ab = a;
  ab.merge(b);
  Histogram ba = b;
  ba.merge(a);
  EXPECT_TRUE(hist_equal(ab, ba));
  Histogram ab_c = ab;
  ab_c.merge(c);
  Histogram bc = b;
  bc.merge(c);
  Histogram a_bc = a;
  a_bc.merge(bc);
  EXPECT_TRUE(hist_equal(ab_c, a_bc));
}

TEST(Codec, HistogramFromPartsValidatesTotals) {
  EXPECT_THROW(Histogram::from_parts(0.0, 1.0, {1, 2}, 1, 1, 999),
               std::exception);
}

TEST(Codec, ObsCountersRoundTripAndCommutativeMerge) {
  ObsCounters a;
  a.invocations = 101;
  a.cold_starts = 7;
  a.queued = 3;
  a.spans_recorded = 55;
  a.spans_dropped = 2;
  ByteWriter w;
  codec::encode(w, a);
  ByteReader r(w.bytes());
  const ObsCounters back = codec::decode_obs_counters(r);
  EXPECT_EQ(back.invocations, a.invocations);
  EXPECT_EQ(back.cold_starts, a.cold_starts);
  EXPECT_EQ(back.queued, a.queued);
  EXPECT_EQ(back.spans_recorded, a.spans_recorded);
  EXPECT_EQ(back.spans_dropped, a.spans_dropped);

  ObsCounters b;
  b.invocations = 9;
  b.queued = 1;
  ObsCounters ab = a;
  ab.merge(b);
  ObsCounters ba = b;
  ba.merge(a);
  EXPECT_EQ(ab.invocations, ba.invocations);
  EXPECT_EQ(ab.queued, ba.queued);
  EXPECT_EQ(ab.cold_starts, ba.cold_starts);
}

TEST(Codec, EpochLogTimelineAndSpansRoundTrip) {
  EpochSnapshot snap;
  snap.epoch = 4;
  snap.sim_time = 20.0;
  snap.nodes = 17;
  snap.pending_nodes = 2;
  snap.utilization = 0.625;
  snap.nodes_ordered = 3;
  snap.nodes_added = 1;
  snap.nodes_removed = 0;
  snap.groups_resized = 5;
  snap.displaced_pods = 8;
  snap.chaos.failed_nodes = 1;
  snap.chaos.preempted_pods = 6;
  snap.chaos.storm_multiplier = 2.5;
  ByteWriter w;
  codec::encode(w, std::vector<EpochSnapshot>{snap, snap});
  ByteReader r(w.bytes());
  const std::vector<EpochSnapshot> log = codec::decode_epoch_log(r);
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[1].epoch, snap.epoch);
  EXPECT_EQ(log[1].nodes, snap.nodes);
  EXPECT_EQ(log[1].pending_nodes, snap.pending_nodes);
  EXPECT_TRUE(same_bits(log[1].utilization, snap.utilization));
  EXPECT_EQ(log[1].groups_resized, snap.groups_resized);
  EXPECT_EQ(log[1].chaos.failed_nodes, snap.chaos.failed_nodes);
  EXPECT_EQ(log[1].chaos.preempted_pods, snap.chaos.preempted_pods);
  EXPECT_TRUE(
      same_bits(log[1].chaos.storm_multiplier, snap.chaos.storm_multiplier));

  TimelineRow row;
  row.epoch = 2;
  row.sim_time = 10.0;
  row.tenant = 99;
  row.stage = 1;
  row.observed_peak_busy = 12;
  row.allocated_pods = 4;
  row.pod_mc = 2200;
  row.coresidency = 1.75;
  row.completed = 310;
  row.violations = 17;
  row.nodes = 16;
  row.utilization = 0.5;
  ByteWriter wt;
  codec::encode(wt, std::vector<TimelineRow>{row});
  ByteReader rt(wt.bytes());
  const std::vector<TimelineRow> rows = codec::decode_timeline(rt);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].tenant, row.tenant);
  EXPECT_EQ(rows[0].stage, row.stage);
  EXPECT_EQ(rows[0].observed_peak_busy, row.observed_peak_busy);
  EXPECT_EQ(rows[0].pod_mc, row.pod_mc);
  EXPECT_TRUE(same_bits(rows[0].coresidency, row.coresidency));
  EXPECT_EQ(rows[0].completed, row.completed);
  EXPECT_EQ(rows[0].violations, row.violations);

  SpanRecord span;
  span.tenant = 3;
  span.request = 1234;
  span.stage = 2;
  span.cold = 1;
  span.queued = 1;
  span.pod = 7;
  span.node = 2;
  span.colocated = 4;
  span.size_mc = 1800;
  span.start_s = 3.25;
  span.queued_s = 0.125;
  span.startup_s = 0.5;
  span.exec_s = 0.75;
  span.interference = 1.1;
  ByteWriter ws;
  codec::encode(ws, std::vector<SpanRecord>{span});
  ByteReader rs(ws.bytes());
  const std::vector<SpanRecord> spans = codec::decode_spans(rs);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].request, span.request);
  EXPECT_EQ(spans[0].cold, span.cold);
  EXPECT_EQ(spans[0].queued, span.queued);
  EXPECT_EQ(spans[0].pod, span.pod);
  EXPECT_EQ(spans[0].size_mc, span.size_mc);
  EXPECT_TRUE(same_bits(spans[0].exec_s, span.exec_s));
  EXPECT_TRUE(same_bits(spans[0].interference, span.interference));
}

FleetSliceOutcome sample_slice() {
  FleetSliceOutcome s;
  s.lo = 2;
  s.hi = 4;
  s.stream = false;
  s.fleet_seed = 42;
  s.requests_total = 500;
  s.violations_total = 31;
  s.cpu_total = 123456.0;
  s.slice_hist = sample_hist(9, 120);
  for (int t = 0; t < 2; ++t) {
    TenantResult& row = s.tenants.emplace_back();
    row.name = "va-" + std::to_string(2 + t);
    row.workload = "va";
    row.policy = t == 0 ? "janus" : "grandslam+";
    row.arrivals = t == 0 ? ArrivalKind::Mmpp : ArrivalKind::Trace;
    row.requests = 250;
    row.slo = 2.75 + 0.1 * t;
    row.violation_rate = static_cast<double>(10 + t) / 250.0;
    row.mean_cpu_mc = 61728.0 / 250.0;
    row.e2e = sample_dist(static_cast<std::uint64_t>(t), 250);
    row.e2e_p50 = row.e2e.percentile(50.0);
    row.e2e_p99 = row.e2e.percentile(99.0);
    row.coresidency = 1.5 + 0.25 * t;
  }
  s.counters.invocations = 1500;
  s.counters.cold_starts = 40;
  s.events_executed = 9001;
  s.peak_pending = 77;
  s.epochs = 6;
  s.final_nodes = 18;
  s.cluster_utilization = 0.71;
  s.overcommitted_pods = 2;
  EpochSnapshot snap;
  snap.epoch = 1;
  snap.nodes = 18;
  s.epoch_log.push_back(snap);
  return s;
}

TEST(Codec, SliceBlobRoundTripIsBitExact) {
  const FleetSliceOutcome s = sample_slice();
  const std::vector<std::uint8_t> blob = encode_slice(s);
  const FleetSliceOutcome back = decode_slice(blob);
  EXPECT_EQ(back.lo, s.lo);
  EXPECT_EQ(back.hi, s.hi);
  EXPECT_EQ(back.stream, s.stream);
  EXPECT_EQ(back.fleet_seed, s.fleet_seed);
  EXPECT_EQ(back.requests_total, s.requests_total);
  EXPECT_EQ(back.violations_total, s.violations_total);
  EXPECT_TRUE(same_bits(back.cpu_total, s.cpu_total));
  EXPECT_TRUE(hist_equal(back.slice_hist, s.slice_hist));
  ASSERT_EQ(back.tenants.size(), s.tenants.size());
  for (std::size_t i = 0; i < s.tenants.size(); ++i) {
    const TenantResult& got = back.tenants[i];
    const TenantResult& want = s.tenants[i];
    EXPECT_EQ(got.name, want.name);
    EXPECT_EQ(got.workload, want.workload);
    EXPECT_EQ(got.policy, want.policy);
    EXPECT_EQ(got.arrivals, want.arrivals);
    EXPECT_EQ(got.requests, want.requests);
    EXPECT_TRUE(same_bits(got.slo, want.slo));
    EXPECT_TRUE(same_bits(got.violation_rate, want.violation_rate));
    EXPECT_TRUE(same_bits(got.mean_cpu_mc, want.mean_cpu_mc));
    EXPECT_TRUE(same_bits(got.e2e_p50, want.e2e_p50));
    EXPECT_TRUE(same_bits(got.e2e_p99, want.e2e_p99));
    EXPECT_TRUE(same_bits(got.coresidency, want.coresidency));
    ASSERT_EQ(got.e2e.size(), want.e2e.size());
    for (std::size_t j = 0; j < want.e2e.size(); ++j) {
      EXPECT_TRUE(same_bits(got.e2e.sorted_samples()[j],
                            want.e2e.sorted_samples()[j]));
    }
    EXPECT_TRUE(same_bits(got.e2e.moment_mean(), want.e2e.moment_mean()));
    EXPECT_TRUE(same_bits(got.e2e.moment_m2(), want.e2e.moment_m2()));
  }
  EXPECT_EQ(back.counters.invocations, s.counters.invocations);
  EXPECT_EQ(back.events_executed, s.events_executed);
  EXPECT_EQ(back.peak_pending, s.peak_pending);
  EXPECT_EQ(back.epochs, s.epochs);
  EXPECT_EQ(back.final_nodes, s.final_nodes);
  EXPECT_TRUE(same_bits(back.cluster_utilization, s.cluster_utilization));
  ASSERT_EQ(back.epoch_log.size(), s.epoch_log.size());
  EXPECT_EQ(back.epoch_log[0].nodes, s.epoch_log[0].nodes);
}

TEST(Codec, SliceBlobRejectsCorruption) {
  const std::vector<std::uint8_t> blob = encode_slice(sample_slice());
  // Truncated.
  EXPECT_THROW(decode_slice(blob.data(), blob.size() - 1), std::exception);
  // Trailing garbage.
  std::vector<std::uint8_t> padded = blob;
  padded.push_back(0);
  EXPECT_THROW(decode_slice(padded), std::exception);
  // Wrong envelope.
  std::vector<std::uint8_t> bad = blob;
  bad[4] ^= 0xff;  // version field
  EXPECT_THROW(decode_slice(bad), std::exception);
}

}  // namespace
}  // namespace janus
