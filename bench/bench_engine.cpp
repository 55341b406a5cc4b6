// Engine microbenchmark: SimEngine churn throughput at the calendar depths
// the fleet's workloads reach.
//
// Every calendar holds one tenant, so the depths that matter are small:
// the deepest calendar of tenants-100k holds 10 pending events, of
// fixed-deep 94 and of mix-live-chaos 303 (the peak_pending gauge).  The
// measurement is churn (hold-model) throughput: a fixed pending
// population, and every fired event schedules one successor, so each
// measured event is exactly one dequeue plus one enqueue against a
// calendar of that depth.  Two arrival shapes bracket what the
// simulator's load generators produce:
//
//   sorted — exponential holds with mean equal to the calendar span, the
//            near-sorted insertion pattern of open-loop Poisson arrivals;
//   bursty — MMPP-shaped: a two-state modulator alternates dense bursts of
//            imminent events with sparse far-future holds.
//
// Emitted via bench_main as BENCH_engine.json; the recorded baseline is
// the repo's record of what the calendar sustains at those depths.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "exp/report.hpp"
#include "sim/engine.hpp"

using namespace janus;

namespace {

/// Hold-time generator, shaped like the simulator's real event mix: a
/// backlog of pre-scheduled arrivals spans the calendar, and the churn on
/// top is dominated by short service-time holds (completions a few time
/// units out) with an occasional arrival-scale hold that lands deep in
/// the calendar.  `span` is the backlog's simulated width.
///
/// sorted —  short holds at a fixed rate: the near-sorted insertion
///           pattern of open-loop Poisson arrivals plus service events;
/// bursty —  MMPP-shaped: a two-state modulator switches the service-hold
///           rate 50x between dense bursts and calm stretches.
struct Stream {
  bool bursty = false;
  double span = 1.0;
  bool burst = false;

  double next(Rng& rng) {
    if (rng.uniform() < 0.1) {
      // Arrival-scale hold: replenishes the deep backlog.
      return rng.exponential(1.0 / span);
    }
    double service_rate = 2000.0 / span;  // mean hold: span / 2000
    if (bursty) {
      if (rng.uniform() < 0.02) burst = !burst;  // MMPP state switch
      service_rate *= burst ? 50.0 : 1.0;
    }
    return rng.exponential(service_rate);
  }
};

/// Self-perpetuating churn closure.  Hold times come from a pre-drawn
/// ring so no libm/RNG time pollutes the measured loop; the ring is long
/// enough (64k draws) that the burst structure survives the reuse.
constexpr std::size_t kHoldRing = 1u << 16;

struct Fire {
  SimEngine* engine;
  const double* holds;  // kHoldRing entries
  std::size_t* cursor;

  void operator()() {
    engine->schedule_at(engine->now() + holds[(*cursor)++ & (kHoldRing - 1)],
                        Fire(*this));
  }
};

double churn_events_per_sec(std::size_t pending, std::uint64_t ops,
                            bool bursty) {
  SimEngine engine;
  Rng rng(42);
  Stream stream;
  stream.bursty = bursty;
  stream.span = static_cast<double>(pending);  // mean gap 1.0 at prefill

  std::vector<double> holds(kHoldRing);
  for (double& h : holds) h = stream.next(rng);
  std::size_t cursor = 0;

  double t = 0.0;
  for (std::size_t i = 0; i < pending; ++i) {
    t += rng.exponential(1.0);
    engine.schedule_at(t, Fire{&engine, holds.data(), &cursor});
  }
  // Warm-up: pool and heap at their steady size before the clock starts.
  const std::uint64_t warm = ops / 10;
  while (engine.executed() < warm) engine.step();

  const auto start = std::chrono::steady_clock::now();
  const std::uint64_t target = warm + ops;
  while (engine.executed() < target) engine.step();
  const auto end = std::chrono::steady_clock::now();
  return static_cast<double>(ops) /
         std::chrono::duration<double>(end - start).count();
}

}  // namespace

int main() {
  std::printf("%s", banner("Engine: binary-heap calendar, churn throughput at "
                           "workload depths")
                        .c_str());

  constexpr std::uint64_t kOps = 3000000;
  // Deepest calendar of tenants-100k, fixed-deep and mix-live-chaos.
  const std::size_t depths[] = {10, 94, 303};

  std::vector<std::vector<std::string>> rows;
  // Best of 3 per cell: the interesting number is what the calendar can
  // do, not what the noisy neighbours on a shared box leave over.
  for (std::size_t pending : depths) {
    for (bool bursty : {false, true}) {
      double best = 0.0;
      for (int rep = 0; rep < 3; ++rep) {
        const double rate = churn_events_per_sec(pending, kOps, bursty);
        if (rate > best) best = rate;
      }
      rows.push_back({std::to_string(pending), bursty ? "bursty" : "sorted",
                      fmt(best / 1e6, 2)});
    }
  }
  std::printf("%s",
              render_table({"pending", "stream", "churn (Mev/s)"}, rows)
                  .c_str());
  std::printf("churn_ops: %llu\n", static_cast<unsigned long long>(kOps));
  return 0;
}
