// Tests for src/sim: event engine ordering (including the differential
// replay against a reference binary heap of closures, calendars sharing
// one slot pool, and the allocation-free steady-state contract),
// platform pod lifecycle, warm pools, co-location packing, invoke outcomes,
// a reset() platform against a fresh one, the allocation-free request path
// through exp/runner's serve_workload, a recycled serve state against a
// fresh one, serve_workload's platform contract, and the per-tenant
// allocation budgets of recycled tenant turnover and a streamed fleet.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <limits>
#include <memory>
#include <new>
#include <queue>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "exp/runner.hpp"
#include "fleet/control.hpp"
#include "fleet/fleet.hpp"
#include "fleet/policies.hpp"
#include "model/workloads.hpp"
#include "obs/trace.hpp"
#include "sim/engine.hpp"
#include "sim/platform.hpp"

// ---- Allocation-counting hook -------------------------------------------
// Replaces this binary's global operator new/delete with counting
// forwarders.  The event engine and the runner's request path promise
// zero per-event heap allocations once their pools are warm; the
// SteadyState*DoesNotAllocate tests measure a window against this counter
// to hold them to that.
namespace {
std::atomic<std::size_t> g_alloc_count{0};

void* counted_alloc(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace janus {
namespace {

// ----------------------------------------------------------------- engine --
TEST(SimEngine, RunsEventsInTimeOrder) {
  SimEngine engine;
  std::vector<int> order;
  engine.schedule_at(2.0, [&] { order.push_back(2); });
  engine.schedule_at(1.0, [&] { order.push_back(1); });
  engine.schedule_at(3.0, [&] { order.push_back(3); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(engine.now(), 3.0);
}

TEST(SimEngine, TiesBreakByInsertionOrder) {
  SimEngine engine;
  std::vector<int> order;
  engine.schedule_at(1.0, [&] { order.push_back(1); });
  engine.schedule_at(1.0, [&] { order.push_back(2); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(SimEngine, ScheduleAfterUsesCurrentTime) {
  SimEngine engine;
  double fired_at = -1.0;
  engine.schedule_at(5.0, [&] {
    engine.schedule_after(2.5, [&] { fired_at = engine.now(); });
  });
  engine.run();
  EXPECT_DOUBLE_EQ(fired_at, 7.5);
}

TEST(SimEngine, PastSchedulingClampsToNow) {
  // Contract: schedule_at with t < now() clamps to now() — the event fires
  // as soon as possible instead of throwing (negative *delays* still do).
  SimEngine engine;
  engine.schedule_at(1.0, [] {});
  engine.run();
  Seconds fired_at = -1.0;
  engine.schedule_at(0.5, [&] { fired_at = engine.now(); });
  engine.run();
  EXPECT_DOUBLE_EQ(fired_at, 1.0);
  EXPECT_THROW(engine.schedule_after(-1.0, [] {}), std::invalid_argument);
}

TEST(SimEngine, ClampedEventRunsAfterAlreadyQueuedPeers) {
  // A clamped event lands *behind* events already queued at now(): the
  // clamp changes its time, not its insertion sequence.
  SimEngine engine;
  std::vector<int> order;
  engine.schedule_at(5.0, [&] {
    engine.schedule_at(engine.now(), [&] { order.push_back(1); });
    engine.schedule_at(2.0, [&] { order.push_back(2); });  // past -> 5.0
  });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_DOUBLE_EQ(engine.now(), 5.0);
}

TEST(SimEngine, RunUntilStopsAtBoundary) {
  SimEngine engine;
  int fired = 0;
  engine.schedule_at(1.0, [&] { ++fired; });
  engine.schedule_at(5.0, [&] { ++fired; });
  engine.run_until(3.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(engine.now(), 3.0);
  EXPECT_EQ(engine.pending(), 1u);
}

TEST(SimEngine, StepReturnsFalseWhenEmpty) {
  SimEngine engine;
  EXPECT_FALSE(engine.step());
  engine.schedule_at(0.0, [] {});
  EXPECT_TRUE(engine.step());
  EXPECT_FALSE(engine.step());
  EXPECT_EQ(engine.executed(), 1u);
}

TEST(SimEngine, EventsCanCascade) {
  SimEngine engine;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 10) engine.schedule_after(0.1, recurse);
  };
  engine.schedule_at(0.0, recurse);
  engine.run();
  EXPECT_EQ(depth, 10);
}

// ---- run_until boundary semantics (these pin exactly what serve_workload
// and the fleet rely on: the peek at the earliest pending event) ---------

TEST(SimEngine, RunUntilFiresEventExactlyAtBoundary) {
  SimEngine engine;
  int fired = 0;
  engine.schedule_at(3.0, [&] { ++fired; });
  engine.schedule_at(3.0 + 1e-9, [&] { ++fired; });
  engine.run_until(3.0);  // <= t fires; the epsilon-later event stays
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(engine.now(), 3.0);
  EXPECT_EQ(engine.pending(), 1u);
}

TEST(SimEngine, RunUntilOnEmptyCalendarAdvancesNow) {
  SimEngine engine;
  engine.run_until(7.5);
  EXPECT_DOUBLE_EQ(engine.now(), 7.5);
  EXPECT_EQ(engine.executed(), 0u);
  // And never moves time backwards.
  engine.run_until(2.0);
  EXPECT_DOUBLE_EQ(engine.now(), 7.5);
}

TEST(SimEngine, RunUntilPicksUpReentrantSchedules) {
  // An event firing inside run_until(t) may schedule more events; those at
  // or before t run in the same call (including clamped past times), those
  // after t stay pending.
  SimEngine engine;
  std::vector<int> order;
  engine.schedule_at(1.0, [&] {
    order.push_back(1);
    engine.schedule_at(0.5, [&] { order.push_back(2); });   // clamps to 1.0
    engine.schedule_at(2.0, [&] { order.push_back(3); });   // within t
    engine.schedule_at(10.0, [&] { order.push_back(4); });  // beyond t
  });
  engine.run_until(2.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(engine.now(), 2.0);
  EXPECT_EQ(engine.pending(), 1u);
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(SimEngine, RunUntilThenRunDrainsInOrder) {
  SimEngine engine;
  std::vector<double> times;
  for (double t : {5.0, 1.0, 3.0, 2.0, 4.0}) {
    engine.schedule_at(t, [&times, &engine] { times.push_back(engine.now()); });
  }
  engine.run_until(2.5);
  EXPECT_EQ(times, (std::vector<double>{1.0, 2.0}));
  engine.run();
  EXPECT_EQ(times, (std::vector<double>{1.0, 2.0, 3.0, 4.0, 5.0}));
}

// ---- differential ordering: SimEngine vs reference binary heap ----------

/// The plainest calendar that meets the ordering contract: a
/// std::priority_queue of (time, seq, std::function) events.  SimEngine
/// orders 16-byte nodes and keeps closures in a slot pool; this oracle
/// shares none of that machinery, so agreeing logs pin the (time, seq)
/// order and the clamp, not the heap's layout.
class ReferenceHeapEngine {
 public:
  Seconds now() const noexcept { return now_; }

  void schedule_at(Seconds t, std::function<void()> fn) {
    if (t < now_) t = now_;
    queue_.push(Event{t, next_seq_++, std::move(fn)});
  }

  bool step() {
    if (queue_.empty()) return false;
    Event ev = queue_.top();
    queue_.pop();
    now_ = ev.time;
    ev.fn();
    return true;
  }

  void run() {
    while (step()) {
    }
  }

 private:
  struct Event {
    Seconds time;
    std::uint64_t seq;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const noexcept {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  Seconds now_ = 0.0;
  std::uint64_t next_seq_ = 0;
};

/// One randomized schedule on `Engine` that logs its execution order.
/// Event ids, spawn times, and cascade fan-out all come from a
/// deterministic Rng that advances *during execution*, so the log (and the
/// RNG stream itself) diverges at the first ordering difference.  Times are
/// quantized to a coarse grid to force plenty of exact (time, seq) ties,
/// and offsets dip negative to exercise the t < now() clamp.  The script
/// must not move: its closures point at it.
template <typename Engine>
struct ReplayScript {
  Engine& engine;
  Rng rng;
  std::vector<std::pair<int, double>> log;
  int budget;
  int next_id = 0;

  ReplayScript(Engine& e, std::uint64_t seed, int roots, int b)
      : engine(e), rng(seed), budget(b) {
    for (int i = 0; i < roots; ++i) spawn(quantize(rng.uniform(0.0, 50.0)));
  }

  double quantize(double t) { return std::floor(t * 4.0) / 4.0; }

  void spawn(double t) {
    const int id = next_id++;
    engine.schedule_at(t, [this, id] { fire(id); });
  }

  void fire(int id) {
    log.emplace_back(id, engine.now());
    const int kids = static_cast<int>(rng.uniform_int(0, 2));
    for (int k = 0; k < kids; ++k) {
      if (budget-- <= 0) return;
      // Negative offsets exercise the clamp; the quantized grid makes
      // same-time collisions (seq tie-breaks) common.
      spawn(engine.now() + quantize(rng.uniform(-2.0, 8.0)));
    }
  }
};

/// Replays one ReplayScript to completion and returns its log.
template <typename Engine>
std::vector<std::pair<int, double>> replay_script(Engine& engine,
                                                  std::uint64_t seed,
                                                  int roots, int budget) {
  ReplayScript<Engine> script(engine, seed, roots, budget);
  engine.run();
  return script.log;
}

/// replay_script on a fresh engine of type `Engine`.
template <typename Engine>
std::vector<std::pair<int, double>> replay_script(std::uint64_t seed,
                                                  int roots, int budget) {
  Engine engine;
  return replay_script(engine, seed, roots, budget);
}

TEST(SimEngine, DifferentialOrderingMatchesReferenceHeap) {
  for (std::uint64_t seed : {1ULL, 7ULL, 42ULL, 2026ULL, 0xdeadbeefULL}) {
    const auto engine = replay_script<SimEngine>(seed, 200, 4000);
    const auto heap = replay_script<ReferenceHeapEngine>(seed, 200, 4000);
    ASSERT_EQ(engine.size(), heap.size()) << "seed " << seed;
    ASSERT_EQ(engine, heap) << "seed " << seed;
  }
}

TEST(SimEngine, DifferentialOrderingOnDeepCalendar) {
  // 1500 roots keep the calendar several times deeper than any workload's
  // (peak 303 pending), so sifts run many levels and cascades interleave
  // with a long backlog; the order must still be exactly (time, seq).
  for (std::uint64_t seed : {3ULL, 99ULL}) {
    const auto engine = replay_script<SimEngine>(seed, 1500, 12000);
    const auto heap = replay_script<ReferenceHeapEngine>(seed, 1500, 12000);
    ASSERT_EQ(engine, heap) << "seed " << seed;
  }
}

TEST(SimEngine, DrainRefillDrainStaysOrdered) {
  // Re-using one engine across drains: each round refills an emptied heap
  // from a later now(), and must still run in time order.
  SimEngine engine;
  std::vector<double> times;
  Rng rng(11);
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 500; ++i) {
      engine.schedule_after(rng.uniform(0.0, 100.0),
                            [&] { times.push_back(engine.now()); });
    }
    engine.run();
  }
  EXPECT_EQ(times.size(), 2500u);
  EXPECT_TRUE(std::is_sorted(times.begin(), times.end()));
}

TEST(SimEngine, ResetOnPendingCalendarThrows) {
  SimEngine engine;
  engine.schedule_at(1.0, [] {});
  EXPECT_THROW(engine.reset(), std::invalid_argument);
  engine.run();
  engine.reset();
  EXPECT_EQ(engine.now(), 0.0);
  EXPECT_EQ(engine.last_event_s(), 0.0);
  EXPECT_EQ(engine.executed(), 0u);
}

TEST(SimEngine, ResetEngineReplaysLikeFreshEngine) {
  // One engine, reset between seeds, must order every script exactly like
  // a fresh engine per seed: same (id, time) log, including the clamps
  // and seq tie-breaks, and the same counters.  A run_until that stops at
  // a later boundary leaves now() past the last event; reset rewinds that
  // too.
  SimEngine reused;
  for (std::uint64_t seed : {1ULL, 7ULL, 42ULL, 2026ULL, 99ULL}) {
    SimEngine fresh;
    const auto want = replay_script(fresh, seed, 300, 6000);
    const auto got = replay_script(reused, seed, 300, 6000);
    ASSERT_EQ(got, want) << "seed " << seed;
    EXPECT_EQ(reused.executed(), fresh.executed());
    EXPECT_EQ(reused.last_event_s(), fresh.last_event_s());
    reused.run_until(1e9);
    reused.reset();
  }
}

/// Advances `scripts` in run_until slices, one calendar after another,
/// and schedules one more root per script at each boundary up to t = 100,
/// until every calendar drains.
void drive_in_slices(const std::vector<ReplayScript<SimEngine>*>& scripts) {
  for (Seconds until = 10.0;; until += 10.0) {
    bool pending = false;
    for (ReplayScript<SimEngine>* script : scripts) {
      script->engine.run_until(until);
      if (until <= 100.0) {
        script->spawn(until + script->quantize(script->rng.uniform(-2.0, 20.0)));
      }
      pending = pending || script->engine.pending() > 0;
    }
    if (!pending) return;
  }
}

TEST(SimEngine, SharedSlotPool) {
  // Two calendars on one pool, advanced in interleaved slices, each
  // execute exactly the order they execute alone: the pool only stores
  // closures, and every ordering decision is the calendar's own.
  SimEngine alone_a;
  SimEngine alone_b;
  ReplayScript<SimEngine> want_a(alone_a, 3, 150, 3000);
  ReplayScript<SimEngine> want_b(alone_b, 4, 150, 3000);
  drive_in_slices({&want_a});
  drive_in_slices({&want_b});

  SimEngine::SlotPool pool;
  {
    SimEngine a(pool);
    SimEngine b(pool);
    ReplayScript<SimEngine> got_a(a, 3, 150, 3000);
    ReplayScript<SimEngine> got_b(b, 4, 150, 3000);
    EXPECT_LT(pool.free_slots(), pool.slots());
    drive_in_slices({&got_a, &got_b});
    EXPECT_EQ(got_a.log, want_a.log);
    EXPECT_EQ(got_b.log, want_b.log);
    EXPECT_EQ(a.executed(), alone_a.executed());
    EXPECT_EQ(b.last_event_s(), alone_b.last_event_s());
    EXPECT_EQ(pool.free_slots(), pool.slots());

    // reset() rewinds a borrowing calendar like any other.
    a.reset();
    EXPECT_EQ(replay_script(a, 42, 200, 4000),
              replay_script<SimEngine>(42, 200, 4000));
  }
  EXPECT_EQ(pool.free_slots(), pool.slots());

  // A calendar destroyed with events still pending (799 left by
  // run_until, one far in the future) destroys their closures and hands
  // every slot back to the pool, which outlives it.
  const auto token = std::make_shared<int>(0);
  {
    SimEngine doomed(pool);
    for (int i = 0; i < 1000; ++i) {
      doomed.schedule_at(0.5 * i, [token] { (void)*token; });
    }
    doomed.run_until(100.0);
    doomed.schedule_at(1e6, [token] { (void)*token; });
    EXPECT_EQ(doomed.pending(), 800u);
    EXPECT_LT(pool.free_slots(), pool.slots());
  }
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_EQ(pool.free_slots(), pool.slots());
}

// ---- allocation-free steady state ---------------------------------------

TEST(SimEngine, SteadyStateEventPathDoesNotAllocate) {
  // Self-perpetuating churn with a platform-completion-sized capture: each
  // firing event schedules its successor, holding the pending population
  // constant.
  struct Churn {
    SimEngine* engine;
    Rng* rng;
    int* remaining;
    double payload[12] = {};  // ~96 capture bytes, like Platform's closure

    void operator()() {
      if ((*remaining)-- > 0) {
        engine->schedule_at(engine->now() + rng->uniform(0.0, 3.0),
                            Churn(*this));
      }
    }
  };

  // Identical passes over one engine: each keeps 512 events pending, so
  // the warm-up pass takes the slot pool and the heap to their high-water
  // marks.  The measured pass replays the same relative schedule and must
  // take the pure steady-state path — zero heap allocations across 20k
  // events.
  SimEngine engine;
  const auto run_pass = [&engine] {
    Rng rng(5);
    int remaining = 20000;
    for (int i = 0; i < 512; ++i) {
      engine.schedule_at(engine.now() + rng.uniform(0.0, 3.0),
                         Churn{&engine, &rng, &remaining});
    }
    engine.run();
  };
  run_pass();
  ASSERT_EQ(engine.pending(), 0u);

  const std::size_t allocs_before = g_alloc_count.load();
  run_pass();
  const std::size_t allocs_after = g_alloc_count.load();
  EXPECT_EQ(allocs_after - allocs_before, 0u)
      << "steady-state event path allocated";
}

TEST(SimEngine, RepeatChurnAfterResetDoesNotAllocate) {
  // The fleet's tenant-major loop resets one calendar between tenants.
  // Replaying an identical churn on the reset calendar reaches the same
  // peak depth, so the retained pool and heap capacity must cover it:
  // zero heap allocations.
  struct Churn {
    SimEngine* engine;
    Rng* rng;
    int* remaining;
    double payload[12] = {};

    void operator()() {
      if ((*remaining)-- > 0) {
        engine->schedule_at(engine->now() + rng->uniform(0.0, 3.0),
                            Churn(*this));
      }
    }
  };
  SimEngine engine;
  const auto churn = [&engine] {
    Rng rng(9);
    int remaining = 20000;
    for (int i = 0; i < 512; ++i) {
      engine.schedule_at(rng.uniform(0.0, 3.0),
                         Churn{&engine, &rng, &remaining});
    }
    engine.run();
    engine.reset();
  };
  // reset() keeps both, so every churn after the first must be
  // allocation-free.
  churn();
  const std::size_t allocs_before = g_alloc_count.load();
  churn();
  EXPECT_EQ(g_alloc_count.load() - allocs_before, 0u)
      << "a repeat churn on a reset calendar allocated";
}

// --------------------------------------------------------------- platform --
PlatformConfig small_platform() {
  PlatformConfig config;
  config.nodes = 2;
  config.pool.prewarm_per_function = 2;
  return config;
}

std::vector<FunctionModel> two_models() {
  return {make_micro_function(ResourceDim::Cpu),
          make_micro_function(ResourceDim::Network)};
}

TEST(Platform, InvokeCompletesWithExecTime) {
  SimEngine engine;
  Platform platform(engine, small_platform(), two_models());
  InvocationOutcome got;
  platform.invoke(0, 2000, 1, 1.0, 1.0,
                  [&](const InvocationOutcome& o) { got = o; });
  engine.run();
  const double expected =
      two_models()[0].exec_time(2000, 1, 1.0, 1.0);
  EXPECT_DOUBLE_EQ(got.exec_s, expected);
  EXPECT_DOUBLE_EQ(got.interference, 1.0);
  EXPECT_EQ(platform.invocations(), 1u);
}

TEST(Platform, WarmPodReusedNoColdStart) {
  SimEngine engine;
  Platform platform(engine, small_platform(), two_models());
  int cold = 0;
  for (int i = 0; i < 3; ++i) {
    platform.invoke(0, 1000, 1, 1.0, 1.0, [&](const InvocationOutcome& o) {
      cold += o.cold_start ? 1 : 0;
    });
    engine.run();
  }
  EXPECT_EQ(cold, 0);
  EXPECT_EQ(platform.cold_starts(), 0u);
}

TEST(Platform, ColdStartWhenPoolExhausted) {
  SimEngine engine;
  PlatformConfig config = small_platform();
  config.pool.prewarm_per_function = 0;  // no generic pods at all
  Platform platform(engine, config, two_models());
  bool cold = false;
  platform.invoke(0, 1000, 1, 1.0, 1.0,
                  [&](const InvocationOutcome& o) { cold = o.cold_start; });
  engine.run();
  EXPECT_TRUE(cold);
  EXPECT_EQ(platform.cold_starts(), 1u);
}

TEST(Platform, ColdStartSlowerThanWarm) {
  const PoolConfig pool;
  EXPECT_GT(pool.cold_start_s, pool.warm_start_s);
  SimEngine engine;
  PlatformConfig config = small_platform();
  config.pool.prewarm_per_function = 0;
  Platform platform(engine, config, two_models());
  Seconds cold_total = 0.0;
  platform.invoke(0, 1000, 1, 1.0, 1.0, [&](const InvocationOutcome& o) {
    cold_total = o.total();
  });
  engine.run();
  Seconds warm_total = 0.0;
  platform.invoke(0, 1000, 1, 1.0, 1.0, [&](const InvocationOutcome& o) {
    warm_total = o.total();
  });
  engine.run();
  EXPECT_GT(cold_total, warm_total);
}

TEST(Platform, ConcurrentInvocationsColocate) {
  SimEngine engine;
  Platform platform(engine, small_platform(), two_models());
  std::vector<int> coloc;
  for (int i = 0; i < 4; ++i) {
    platform.invoke(1, 1000, 1, 1.0, std::nullopt,
                    [&](const InvocationOutcome& o) {
                      coloc.push_back(o.colocated);
                    });
  }
  EXPECT_GE(platform.peak_colocation(1), 2);  // packed on one node
  engine.run();
  // Later invocations observed earlier busy pods of the same function.
  EXPECT_GT(*std::max_element(coloc.begin(), coloc.end()), 1);
}

TEST(Platform, PeakBusyCountersTrackEpochDemand) {
  // The fleet control plane's demand signal: busy pods now, and the
  // high-water mark since the last reset.
  SimEngine engine;
  Platform platform(engine, small_platform(), two_models());
  EXPECT_EQ(platform.pods_for_function(0), 0);
  EXPECT_EQ(platform.busy_pods_for(0), 0);
  EXPECT_EQ(platform.peak_busy_for(0), 0);
  for (int i = 0; i < 3; ++i) {
    platform.invoke(0, 1000, 1, 1.0, 1.0, [](const InvocationOutcome&) {});
  }
  EXPECT_EQ(platform.busy_pods_for(0), 3);
  EXPECT_EQ(platform.peak_busy_for(0), 3);
  EXPECT_EQ(platform.pods_for_function(0), 3);  // specialized on demand
  engine.run();
  // All done: busy drains, the peak survives until the epoch barrier
  // resets it...
  EXPECT_EQ(platform.busy_pods_for(0), 0);
  EXPECT_EQ(platform.peak_busy_for(0), 3);
  platform.reset_peak_busy();
  // ...and the new window starts from the current busy level.
  EXPECT_EQ(platform.peak_busy_for(0), 0);
  EXPECT_EQ(platform.pods_for_function(0), 3);  // footprint persists
  platform.invoke(0, 1000, 1, 1.0, 1.0, [](const InvocationOutcome&) {});
  EXPECT_EQ(platform.peak_busy_for(0), 1);
  engine.run();
  EXPECT_THROW(platform.busy_pods_for(7), std::invalid_argument);
}

TEST(Platform, EndogenousInterferenceGrowsWithColocation) {
  SimEngine engine;
  Platform platform(engine, small_platform(), two_models());
  std::vector<InvocationOutcome> outs;
  for (int i = 0; i < 5; ++i) {
    platform.invoke(1, 1000, 1, 1.0, std::nullopt,
                    [&](const InvocationOutcome& o) { outs.push_back(o); });
  }
  engine.run();
  double max_interf = 0.0;
  for (const auto& o : outs) max_interf = std::max(max_interf, o.interference);
  EXPECT_GT(max_interf, 1.2);  // network-bound contention kicked in
}

TEST(Platform, ExogenousMultiplierAppliedVerbatim) {
  SimEngine engine;
  Platform platform(engine, small_platform(), two_models());
  InvocationOutcome got;
  platform.invoke(0, 1500, 1, 2.0, 3.0,
                  [&](const InvocationOutcome& o) { got = o; });
  engine.run();
  EXPECT_DOUBLE_EQ(got.interference, 3.0);
  EXPECT_DOUBLE_EQ(got.exec_s, two_models()[0].exec_time(1500, 1, 2.0, 3.0));
}

TEST(Platform, BusyMillicoresTracksInFlight) {
  SimEngine engine;
  Platform platform(engine, small_platform(), two_models());
  platform.invoke(0, 2500, 1, 1.0, 1.0, [](const InvocationOutcome&) {});
  EXPECT_EQ(platform.busy_millicores(), 2500);
  engine.run();
  EXPECT_EQ(platform.busy_millicores(), 0);
}

TEST(Platform, NonBatchableRejectsBatch) {
  SimEngine engine;
  const auto va = make_va();
  Platform platform(engine, small_platform(), va.chain_models());
  EXPECT_THROW(
      platform.invoke(0, 1000, 2, 1.0, 1.0, [](const InvocationOutcome&) {}),
      std::invalid_argument);
}

TEST(Platform, InvalidInvokeArgsThrow) {
  SimEngine engine;
  Platform platform(engine, small_platform(), two_models());
  EXPECT_THROW(
      platform.invoke(9, 1000, 1, 1.0, 1.0, [](const InvocationOutcome&) {}),
      std::invalid_argument);
  EXPECT_THROW(
      platform.invoke(0, 0, 1, 1.0, 1.0, [](const InvocationOutcome&) {}),
      std::invalid_argument);
}

TEST(Platform, ResizeOnWarmReuse) {
  SimEngine engine;
  Platform platform(engine, small_platform(), two_models());
  // First at 1000, then at 3000: warm pod is resized, not cold-started.
  platform.invoke(0, 1000, 1, 1.0, 1.0, [](const InvocationOutcome&) {});
  engine.run();
  bool cold = true;
  platform.invoke(0, 3000, 1, 1.0, 1.0,
                  [&](const InvocationOutcome& o) { cold = o.cold_start; });
  EXPECT_EQ(platform.busy_millicores(), 3000);
  engine.run();
  EXPECT_FALSE(cold);
}

TEST(Platform, DeterministicAcrossRuns) {
  auto run_once = [] {
    SimEngine engine;
    Platform platform(engine, small_platform(), two_models());
    std::vector<double> times;
    for (int i = 0; i < 5; ++i) {
      platform.invoke(1, 1200, 1, 1.0, std::nullopt,
                      [&](const InvocationOutcome& o) {
                        times.push_back(o.exec_s);
                      });
    }
    engine.run();
    return times;
  };
  EXPECT_EQ(run_once(), run_once());
}


TEST(Platform, ScaleOutLimitQueuesInvocations) {
  SimEngine engine;
  PlatformConfig config = small_platform();
  config.pool.max_pods_per_function = 2;
  Platform platform(engine, config, two_models());
  std::vector<InvocationOutcome> outs;
  for (int i = 0; i < 5; ++i) {
    platform.invoke(0, 1000, 1, 1.0, 1.0,
                    [&](const InvocationOutcome& o) { outs.push_back(o); });
  }
  // Only two pods may exist: three invocations wait in the queue.
  EXPECT_EQ(platform.queued_invocations(), 3u);
  engine.run();
  ASSERT_EQ(outs.size(), 5u);
  EXPECT_EQ(platform.queued_invocations(), 0u);
  // The queued ones record a positive wait.
  std::size_t waited = 0;
  for (const auto& o : outs) waited += o.queued_s > 0.0 ? 1 : 0;
  EXPECT_EQ(waited, 3u);
}

TEST(Platform, QueueDrainsInFifoOrder) {
  SimEngine engine;
  PlatformConfig config = small_platform();
  config.pool.max_pods_per_function = 1;
  Platform platform(engine, config, two_models());
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    platform.invoke(0, 1000, 1, 1.0, 1.0,
                    [&order, i](const InvocationOutcome&) {
                      order.push_back(i);
                    });
  }
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Platform, UnlimitedPodsNeverQueue) {
  SimEngine engine;
  Platform platform(engine, small_platform(), two_models());
  for (int i = 0; i < 10; ++i) {
    platform.invoke(0, 1000, 1, 1.0, 1.0, [](const InvocationOutcome&) {});
  }
  EXPECT_EQ(platform.queued_invocations(), 0u);
  engine.run();
}

// A platform reset() to a new chain and seed must behave exactly like one
// built fresh, whatever it went through before: the fleet's static path
// recycles one Platform per shard across thousands of tenants.
struct ScriptRun {
  std::vector<InvocationOutcome> outcomes;
  std::uint64_t invocations = 0, cold_starts = 0, requeued = 0, queued = 0;
  std::vector<int> peak_busy, pods;
  Millicores busy_mc_mid = 0;
};

// One invocation script: a burst past the scale-out limit (queueing, warm
// and generic pods, cold starts), endogenous and exogenous interference,
// then a second burst on the warm pods.
ScriptRun run_platform_script(SimEngine& engine, Platform& platform) {
  ScriptRun run;
  run.outcomes.resize(24);
  for (int i = 0; i < 24; ++i) {
    const Seconds at = i < 16 ? 0.01 * i : 30.0 + 0.01 * i;
    engine.schedule_at(at, [&platform, &run, i] {
      const std::optional<double> exo =
          i % 3 == 0 ? std::nullopt : std::optional<double>(1.0 + 0.1 * i);
      platform.invoke(i % 3, 1000 + 150 * (i % 5), 1, 0.8 + 0.05 * i, exo,
                      [&run, i](const InvocationOutcome& o) {
                        run.outcomes[static_cast<std::size_t>(i)] = o;
                      });
    });
  }
  engine.run_until(0.2);
  run.busy_mc_mid = platform.busy_millicores();
  engine.run();
  run.invocations = platform.invocations();
  run.cold_starts = platform.cold_starts();
  run.requeued = platform.requeued();
  run.queued = platform.queued_total();
  for (int fn = 0; fn < 3; ++fn) {
    run.peak_busy.push_back(platform.peak_busy_for(fn));
    run.pods.push_back(platform.pods_for_function(fn));
  }
  return run;
}

void expect_same_outcome(const InvocationOutcome& a,
                         const InvocationOutcome& b) {
  EXPECT_EQ(a.queued_s, b.queued_s);
  EXPECT_EQ(a.startup_s, b.startup_s);
  EXPECT_EQ(a.exec_s, b.exec_s);
  EXPECT_EQ(a.interference, b.interference);
  EXPECT_EQ(a.colocated, b.colocated);
  EXPECT_EQ(a.pod, b.pod);
  EXPECT_EQ(a.node, b.node);
  EXPECT_EQ(a.cold_start, b.cold_start);
  EXPECT_EQ(a.preempted, b.preempted);
}

TEST(Platform, ResetMatchesFreshPlatform) {
  PlatformConfig before = small_platform();
  before.seed = 11;
  before.pool.max_pods_per_function = 2;
  PlatformConfig after = small_platform();
  after.nodes = 3;
  after.seed = 29;
  after.pool.prewarm_per_function = 1;
  after.pool.max_pods_per_function = 3;
  const std::vector<FunctionModel> ia = make_ia().chain_models();
  const std::vector<FunctionModel> va = make_va().chain_models();

  SimEngine engine;
  Platform recycled(engine, before, ia);
  // Warm, generic and cold acquisitions, queueing at the scale-out limit,
  // a preemption mid-flight and a storm multiplier.
  recycled.set_startup_multiplier(4.0);
  for (int i = 0; i < 9; ++i) {
    recycled.invoke(i % 3, 1200, 1, 1.0, std::nullopt,
                    [](const InvocationOutcome&) {});
  }
  engine.run_until(0.5);
  EXPECT_GT(recycled.preempt_busy(1, 1) + recycled.preempt_busy(2, 1), 0);
  engine.run();
  for (int i = 0; i < 3; ++i) {
    recycled.invoke(i, 900, 1, 1.0, 1.0, [](const InvocationOutcome&) {});
  }
  engine.run();
  EXPECT_GT(recycled.cold_starts(), 0u);
  EXPECT_GT(recycled.queued_total(), 0u);
  EXPECT_GT(recycled.requeued(), 0u);
  engine.reset();
  recycled.reset(after, va);
  EXPECT_EQ(recycled.functions().front().name(), va.front().name());
  EXPECT_EQ(recycled.startup_multiplier(), 1.0);
  const ScriptRun got = run_platform_script(engine, recycled);

  SimEngine fresh_engine;
  Platform fresh(fresh_engine, after, va);
  const ScriptRun want = run_platform_script(fresh_engine, fresh);

  ASSERT_EQ(got.outcomes.size(), want.outcomes.size());
  for (std::size_t i = 0; i < want.outcomes.size(); ++i) {
    SCOPED_TRACE(i);
    expect_same_outcome(got.outcomes[i], want.outcomes[i]);
  }
  EXPECT_EQ(got.invocations, want.invocations);
  EXPECT_EQ(got.cold_starts, want.cold_starts);
  EXPECT_EQ(got.requeued, want.requeued);
  EXPECT_EQ(got.queued, want.queued);
  EXPECT_GT(want.queued, 0u);  // the script reached the scale-out limit
  EXPECT_EQ(got.peak_busy, want.peak_busy);
  EXPECT_EQ(got.pods, want.pods);
  EXPECT_EQ(got.busy_mc_mid, want.busy_mc_mid);
  EXPECT_EQ(recycled.busy_millicores(), fresh.busy_millicores());
}

TEST(Platform, ResetWithInvocationInFlightThrows) {
  SimEngine engine;
  Platform platform(engine, small_platform(), two_models());
  platform.invoke(0, 1000, 1, 1.0, 1.0, [](const InvocationOutcome&) {});
  EXPECT_THROW(platform.reset(small_platform(), two_models()),
               std::invalid_argument);
  engine.run();
  EXPECT_NO_THROW(platform.reset(small_platform(), two_models()));
}

// ----------------------------------------------------------------- runner --
// One open-loop IA tenant through serve_workload.  run_until(t_warm) lets
// every retained-capacity structure reach its high-water mark: the engine's
// slot pool and heap, the platform's pods and idle lists, the runner's
// in-flight slab.  The rest of the run — steady-state arrivals, then the
// drain — must not touch the heap: no per-request state, no per-stage
// vector growth, no per-launch copy of a co-location distribution.
enum class Sizing { kStatic, kLiveContention };

std::size_t serve_tail_allocations(Sizing sizing, bool stage_detail) {
  const WorkloadSpec ia = make_ia();
  const std::vector<FunctionModel> models = ia.chain_models();
  RunConfig rc;
  rc.requests = 3000;
  rc.open_loop_rate = 10.0;
  rc.record_stage_detail = stage_detail;
  const CoLocationDistribution packed = CoLocationDistribution::concentrated(2.5);
  EpochFeed feed(models.size(), /*live=*/sizing == Sizing::kLiveContention);
  for (std::size_t s = 0; s < models.size(); ++s) feed.set_stage(s, packed);
  rc.colocation_provider = &feed;

  SimEngine engine;
  PlatformConfig pc = rc.platform;
  pc.seed = 17;
  Platform platform(engine, pc, models, rc.interference);
  std::unique_ptr<SizingPolicy> policy = std::make_unique<FixedSizingPolicy>(
      "fixed", std::vector<Millicores>(models.size(), 2000));
  if (sizing == Sizing::kLiveContention) {
    policy = std::make_unique<ContentionAwarePolicy>(std::move(policy), feed,
                                                     0.25);
  }
  RunResult out;
  serve_workload(engine, platform, ia, *policy, rc, out);

  // Arrivals span ~300 simulated seconds; warm through two thirds of them.
  engine.run_until(200.0);
  EXPECT_GT(out.requests.size(), 1000u);
  const std::size_t before = g_alloc_count.load();
  engine.run_until(std::numeric_limits<Seconds>::infinity());
  const std::size_t allocs = g_alloc_count.load() - before;
  EXPECT_EQ(engine.pending(), 0u);
  EXPECT_EQ(out.requests.size(), static_cast<std::size_t>(rc.requests));
  return allocs;
}

TEST(Runner, SteadyStateServeWorkloadDoesNotAllocate) {
  EXPECT_EQ(serve_tail_allocations(Sizing::kStatic, /*stage_detail=*/true),
            0u)
      << "static path with per-stage detail allocated";
  EXPECT_EQ(serve_tail_allocations(Sizing::kStatic, /*stage_detail=*/false),
            0u)
      << "static path without per-stage detail allocated";
  EXPECT_EQ(
      serve_tail_allocations(Sizing::kLiveContention, /*stage_detail=*/false),
      0u)
      << "live epoch feed with contention-aware sizing allocated";
}

// Several tenants' streams served on one calendar, on one calendar each,
// one after another on a calendar reset() in between, or on one calendar
// each over a shared slot pool, advanced tenant-major in run_until slices,
// must give every tenant the same records and platform tallies, bit for
// bit: a tenant's randomness, Platform and co-location are its own, and a
// schedule clamp only ever compares against the firing event's own time.
// The fleet's shard layouts, its tenant-major static loop and its
// per-tenant live calendars rest on this.
enum class CalendarLayout {
  kShared,
  kPerTenant,
  kResetBetween,
  kPerTenantSharedPool
};

struct ServedTenant {
  RunResult result;
  std::unique_ptr<Platform> platform;
  std::unique_ptr<SizingPolicy> policy;
};

struct ServedFleet {
  std::unique_ptr<SimEngine::SlotPool> pool;  // outlives the engines
  std::vector<std::unique_ptr<SimEngine>> engines;  // outlive the tenants
  std::vector<std::unique_ptr<ServedTenant>> tenants;
};

ServedFleet serve_tenants(CalendarLayout layout, PolicyCatalog& catalog) {
  constexpr int kTenants = 12;
  constexpr ArrivalKind kKinds[] = {ArrivalKind::Poisson, ArrivalKind::Mmpp,
                                    ArrivalKind::Diurnal};
  ServedFleet fleet;
  const bool shared_pool = layout == CalendarLayout::kPerTenantSharedPool;
  if (shared_pool) fleet.pool = std::make_unique<SimEngine::SlotPool>();
  if (layout == CalendarLayout::kShared ||
      layout == CalendarLayout::kResetBetween) {
    fleet.engines.push_back(std::make_unique<SimEngine>());
  }
  for (int i = 0; i < kTenants; ++i) {
    if (layout == CalendarLayout::kPerTenant) {
      fleet.engines.push_back(std::make_unique<SimEngine>());
    } else if (shared_pool) {
      fleet.engines.push_back(std::make_unique<SimEngine>(*fleet.pool));
    }
    SimEngine& engine = *fleet.engines.back();
    // VA configures an SLO at concurrency 1 only; IA alternates 1 and 2.
    const bool ia = i % 2 == 0;
    const WorkloadSpec workload = ia ? make_ia() : make_va();
    const Concurrency conc = ia ? 1 + (i / 2) % 2 : 1;
    const std::string policy_name = (i / 4) % 2 == 0 ? "fixed" : "janus";
    RunConfig rc;
    rc.requests = 80;
    rc.seed = 500 + static_cast<std::uint64_t>(i);
    rc.concurrency = conc;
    rc.slo = workload.slo(conc);
    rc.arrivals.kind = kKinds[i % 3];
    rc.arrivals.rate = 6.0 + static_cast<double>(i);
    rc.arrivals.burst_rate = 3.0 * rc.arrivals.rate;
    rc.arrivals.period_s = 40.0;
    rc.open_loop_rate = rc.arrivals.rate;

    auto tenant = std::make_unique<ServedTenant>();
    PlatformConfig pc = rc.platform;
    pc.seed = rc.seed ^ 0x9e3779b97f4a7c15ULL;
    tenant->platform = std::make_unique<Platform>(
        engine, pc, workload.chain_models(), rc.interference);
    tenant->policy =
        catalog.make_policy(policy_name, workload, rc.slo, conc, 1800);
    serve_workload(engine, *tenant->platform, workload, *tenant->policy, rc,
                   tenant->result);
    if (layout == CalendarLayout::kPerTenant ||
        layout == CalendarLayout::kResetBetween) {
      engine.run();
      EXPECT_EQ(engine.pending(), 0u);
      if (layout == CalendarLayout::kResetBetween) engine.reset();
    }
    fleet.tenants.push_back(std::move(tenant));
  }
  if (layout == CalendarLayout::kShared) fleet.engines.front()->run();
  if (shared_pool) {
    // Tenant-major slices, the way a live fleet shard drains its tenants
    // between barriers.
    for (Seconds until = 2.5;; until += 2.5) {
      bool pending = false;
      for (const auto& engine : fleet.engines) {
        engine->run_until(until);
        pending = pending || engine->pending() > 0;
      }
      if (!pending) break;
    }
  }
  return fleet;
}

TEST(Runner, TenantResultsIndependentOfCalendarSharing) {
  PolicyCatalogConfig cfg;
  cfg.profile_samples = 300;
  cfg.budget_step = 10;
  PolicyCatalog catalog(cfg);
  const ServedFleet shared = serve_tenants(CalendarLayout::kShared, catalog);
  for (const CalendarLayout layout :
       {CalendarLayout::kPerTenant, CalendarLayout::kResetBetween,
        CalendarLayout::kPerTenantSharedPool}) {
    SCOPED_TRACE(static_cast<int>(layout));
    const ServedFleet other = serve_tenants(layout, catalog);
    ASSERT_EQ(other.tenants.size(), shared.tenants.size());
    for (std::size_t t = 0; t < shared.tenants.size(); ++t) {
      SCOPED_TRACE(t);
      const ServedTenant& a = *shared.tenants[t];
      const ServedTenant& b = *other.tenants[t];
      EXPECT_EQ(b.platform->invocations(), a.platform->invocations());
      EXPECT_EQ(b.platform->cold_starts(), a.platform->cold_starts());
      ASSERT_EQ(b.result.requests.size(), a.result.requests.size());
      for (std::size_t r = 0; r < a.result.requests.size(); ++r) {
        const auto x = a.result.requests[r];
        const auto y = b.result.requests[r];
        ASSERT_EQ(y.e2e, x.e2e) << "request " << r;
        ASSERT_EQ(y.cpu_mc, x.cpu_mc) << "request " << r;
        ASSERT_EQ(y.violated, x.violated) << "request " << r;
        ASSERT_EQ(y.sizes.size(), x.sizes.size());
        ASSERT_EQ(y.stage_total.size(), x.stage_total.size());
        for (std::size_t s = 0; s < x.sizes.size(); ++s) {
          ASSERT_EQ(y.sizes[s], x.sizes[s]) << "request " << r;
          ASSERT_EQ(y.stage_total[s], x.stage_total[s]) << "request " << r;
        }
      }
    }
  }
}

// A tenant served through a recycled serve state (one RunResult), on a
// reset() engine and a reset Platform, must get exactly the records of
// fresh objects: the fleet's static path runs every tenant of a shard
// through one of each.  The tenants alternate chains, arrival processes
// (and the closed loop), stage detail, feeds and span tracing, so each
// reuse changes what the state holds.
struct RecycleCase {
  bool ia;
  ArrivalKind kind;
  bool closed_loop;
  bool live;
  bool detail;
  bool traced;
};

constexpr RecycleCase kRecycleCases[] = {
    // ia, arrivals, closed loop, live feed, stage detail, traced
    {true, ArrivalKind::Poisson, false, false, true, false},
    {false, ArrivalKind::Mmpp, true, false, false, true},
    {true, ArrivalKind::Diurnal, false, true, false, false},
    {false, ArrivalKind::Poisson, false, true, true, false},
    {true, ArrivalKind::Mmpp, false, false, false, false},
};

RunConfig recycle_config(const RecycleCase& c, std::size_t i,
                         const CoLocationProvider& feed, TraceRing* ring) {
  RunConfig rc;
  rc.requests = 60;
  rc.seed = 900 + i;
  rc.arrivals.kind = c.kind;
  rc.arrivals.rate = 8.0 + static_cast<double>(i);
  rc.arrivals.burst_rate = 3.0 * rc.arrivals.rate;
  rc.arrivals.period_s = 30.0;
  rc.open_loop_rate = c.closed_loop ? 0.0 : rc.arrivals.rate;
  rc.record_stage_detail = c.detail;
  rc.colocation_provider = &feed;
  if (c.traced) {
    rc.trace_ring = ring;
    rc.trace_tenant = static_cast<std::uint32_t>(i);
  }
  return rc;
}

std::unique_ptr<SizingPolicy> recycle_policy(const RecycleCase& c,
                                             std::size_t stages,
                                             const CoLocationProvider& feed) {
  std::unique_ptr<SizingPolicy> policy = std::make_unique<FixedSizingPolicy>(
      "fixed", std::vector<Millicores>(stages, 1700));
  if (c.live) {
    policy = std::make_unique<ContentionAwarePolicy>(std::move(policy), feed,
                                                     0.25);
  }
  return policy;
}

struct ServedRecords {
  std::vector<double> e2e, cpu;
  std::vector<bool> violated;
  std::vector<Millicores> sizes;
  std::vector<Seconds> stage_total;
  std::uint64_t invocations = 0, cold_starts = 0;
};

ServedRecords collect(const RunResult& result, const Platform& platform) {
  ServedRecords got;
  for (const auto& r : result.requests) {
    got.e2e.push_back(r.e2e);
    got.cpu.push_back(r.cpu_mc);
    got.violated.push_back(r.violated != 0);
    got.sizes.insert(got.sizes.end(), r.sizes.begin(), r.sizes.end());
    got.stage_total.insert(got.stage_total.end(), r.stage_total.begin(),
                           r.stage_total.end());
  }
  got.invocations = platform.invocations();
  got.cold_starts = platform.cold_starts();
  return got;
}

TEST(Runner, ReusedServeStateMatchesFresh) {
  const WorkloadSpec ia = make_ia();
  const WorkloadSpec va = make_va();
  const std::vector<FunctionModel> ia_chain = ia.chain_models();
  const std::vector<FunctionModel> va_chain = va.chain_models();
  const CoLocationDistribution packed =
      CoLocationDistribution::concentrated(2.4);
  EpochFeed static_feed(3, /*live=*/false);
  EpochFeed live_feed(3, /*live=*/true);
  for (std::size_t s = 0; s < 3; ++s) live_feed.set_stage(s, packed);

  SimEngine engine;
  std::unique_ptr<Platform> platform;
  RunResult recycled;
  TraceRing recycled_ring(1024);
  for (std::size_t i = 0; i < std::size(kRecycleCases); ++i) {
    SCOPED_TRACE(i);
    const RecycleCase& c = kRecycleCases[i];
    const WorkloadSpec& workload = c.ia ? ia : va;
    const std::vector<FunctionModel>& chain = c.ia ? ia_chain : va_chain;
    const CoLocationProvider& feed =
        c.live ? static_cast<const CoLocationProvider&>(live_feed)
               : static_feed;
    TraceRing fresh_ring(1024);
    const RunConfig fresh_rc = recycle_config(c, i, feed, &fresh_ring);
    const RunConfig rc = recycle_config(c, i, feed, &recycled_ring);
    PlatformConfig pc = rc.platform;
    pc.seed = rc.seed ^ 0x5bd1e995ULL;

    SimEngine fresh_engine;
    Platform fresh_platform(fresh_engine, pc, chain, rc.interference);
    const auto fresh_policy = recycle_policy(c, chain.size(), feed);
    RunResult fresh;
    serve_workload(fresh_engine, fresh_platform, workload, *fresh_policy,
                   fresh_rc, fresh);
    fresh_engine.run();
    const ServedRecords want = collect(fresh, fresh_platform);

    if (platform) {
      platform->reset(pc, chain, rc.interference);
    } else {
      platform = std::make_unique<Platform>(engine, pc, chain,
                                            rc.interference);
    }
    auto policy = recycle_policy(c, chain.size(), feed);
    recycled.requests = RequestLog();
    const std::uint64_t spans_before = recycled_ring.recorded();
    serve_workload(engine, *platform, workload, *policy, rc, recycled);
    engine.run();
    const ServedRecords got = collect(recycled, *platform);
    EXPECT_EQ(recycled_ring.recorded() - spans_before, fresh_ring.recorded());
    EXPECT_EQ(fresh_ring.recorded(), c.traced ? 180u : 0u);
    // Retiring is optional: after odd tenants serve_workload's own
    // re-initialization is all the next tenant gets.
    if (i % 2 == 0) retire_serve_state(recycled);
    policy.reset();
    engine.reset();

    ASSERT_EQ(got.e2e.size(), static_cast<std::size_t>(rc.requests));
    EXPECT_EQ(got.e2e, want.e2e);
    EXPECT_EQ(got.cpu, want.cpu);
    EXPECT_EQ(got.violated, want.violated);
    EXPECT_EQ(got.sizes, want.sizes);
    EXPECT_EQ(got.stage_total, want.stage_total);
    EXPECT_EQ(got.sizes.size(), c.detail ? got.e2e.size() * 3 : 0u);
    EXPECT_EQ(got.invocations, want.invocations);
    EXPECT_EQ(got.cold_starts, want.cold_starts);
  }
}

TEST(Runner, ReusingServeStateInFlightThrows) {
  const WorkloadSpec ia = make_ia();
  EpochFeed feed(3, /*live=*/false);
  const RecycleCase c{true, ArrivalKind::Poisson, false, false, false, false};
  const RunConfig rc = recycle_config(c, 0, feed, nullptr);
  SimEngine engine;
  Platform platform(engine, rc.platform, ia.chain_models(), rc.interference);
  const auto policy = recycle_policy(c, 3, feed);
  RunResult result;
  serve_workload(engine, platform, ia, *policy, rc, result);
  engine.run_until(1.0);
  ASSERT_GT(engine.pending(), 0u);
  EXPECT_THROW(serve_workload(engine, platform, ia, *policy, rc, result),
               std::invalid_argument);
  EXPECT_THROW(retire_serve_state(result), std::invalid_argument);
  engine.run();
  EXPECT_EQ(result.requests.size(), static_cast<std::size_t>(rc.requests));
  EXPECT_NO_THROW(retire_serve_state(result));
}

// serve_workload's contract: the platform wraps the serving engine and
// hosts the workload's chain functions, in order.  IA and VA both have
// three stages, so a count check alone would serve VA with IA's models.
TEST(Runner, ServeRejectsMismatchedPlatform) {
  const WorkloadSpec ia = make_ia();
  const WorkloadSpec va = make_va();
  RunConfig rc;
  rc.requests = 5;
  FixedSizingPolicy policy("fixed", std::vector<Millicores>(3, 1500));
  SimEngine engine;
  Platform ia_platform(engine, rc.platform, ia.chain_models());
  RunResult wrong_chain;
  EXPECT_THROW(serve_workload(engine, ia_platform, va, policy, rc, wrong_chain),
               std::invalid_argument);
  std::vector<FunctionModel> reversed = ia.chain_models();
  std::reverse(reversed.begin(), reversed.end());
  Platform reversed_platform(engine, rc.platform, reversed);
  RunResult wrong_order;
  EXPECT_THROW(
      serve_workload(engine, reversed_platform, ia, policy, rc, wrong_order),
      std::invalid_argument);
  SimEngine other;
  RunResult wrong_engine;
  EXPECT_THROW(serve_workload(other, ia_platform, ia, policy, rc, wrong_engine),
               std::invalid_argument);
  EXPECT_EQ(engine.pending(), 0u);
  EXPECT_EQ(other.pending(), 0u);
  RunResult ok;
  serve_workload(engine, ia_platform, ia, policy, rc, ok);
  engine.run();
  EXPECT_EQ(ok.requests.size(), 5u);
}

// Tenant turnover on the fleet's static path: after the warm-up, every
// further 10-request open-loop tenant served through the recycled engine,
// Platform and serve state allocates exactly this many times.  The tenants
// share a seed, so each reaches the same high-water marks (peak in-flight
// slots, pods, calendar slots) as the warm-up: what is left is the
// turnover cost alone.  Platform, serve state and calendar are all warm
// after one tenant (reset() keeps the heap's capacity:
// SimEngine.RepeatChurnAfterResetDoesNotAllocate), so one tenant warms up.
TEST(Runner, RecycledTenantTurnoverAllocationBudget) {
  const WorkloadSpec ia = make_ia();
  const std::vector<FunctionModel> chain = ia.chain_models();
  EpochFeed feed(3, /*live=*/false);
  SimEngine engine;
  std::unique_ptr<Platform> platform;
  RunResult result;
  std::vector<std::size_t> per_tenant;
  for (std::size_t t = 0; t < 6; ++t) {
    const std::size_t before = g_alloc_count.load();
    RunConfig rc;
    rc.requests = 10;
    rc.seed = 40;
    rc.open_loop_rate = 10.0;
    rc.record_stage_detail = false;
    rc.colocation_is_default = false;
    rc.colocation_provider = &feed;
    PlatformConfig pc = rc.platform;
    pc.seed = rc.seed ^ 0x9e3779b97f4a7c15ULL;
    if (platform) {
      platform->reset(pc, chain, rc.interference);
    } else {
      platform = std::make_unique<Platform>(engine, pc, chain,
                                            rc.interference);
    }
    auto policy = std::make_unique<FixedSizingPolicy>(
        "fixed", std::vector<Millicores>(chain.size(), 1800));
    result.requests = RequestLog();
    serve_workload(engine, *platform, ia, *policy, rc, result);
    engine.run();
    retire_serve_state(result);
    policy.reset();
    result.requests.release();
    engine.reset();
    per_tenant.push_back(g_alloc_count.load() - before);
  }
  // Per recycled tenant:
  //   1  RunConfig's default co-location weights (rc.colocation),
  //   2  the policy object and its per-stage size vector,
  //   1  the arrival process (make_arrivals),
  //   3  the log: its arena's first block, the arena's block list and the
  //      log's chunk index.
  constexpr std::size_t kPerTenant = 7;
  for (std::size_t t = 1; t < per_tenant.size(); ++t) {
    EXPECT_EQ(per_tenant[t], kPerTenant) << "tenant " << t;
  }
}

// ------------------------------------------------------------------ fleet --
// Per-tenant setup cost of a streamed static fleet, end to end through
// run_fleet: plan (interned workloads, catalog lookups, packing), shard
// turnover (policy, arrival process, log chunks; each shard's Platform and
// serve state are recycled), simulation and fold.  At six-figure tenant
// counts every allocation here is paid 100k times.  This mix reads 12.4
// per tenant; building a Platform and serve state per tenant read 74.2.
TEST(Fleet, StreamedTenantAllocationBudget) {
  constexpr int kTenants = 2048;
  FleetConfig config;
  config.tenants = make_tenant_mix(kTenants, 10, 10.0, ArrivalKind::Poisson,
                                   /*mixed_kinds=*/true);
  config.shards = 2;
  config.stream_metrics = true;
  const std::size_t before = g_alloc_count.load();
  const FleetResult result = run_fleet(config);
  const std::size_t allocs = g_alloc_count.load() - before;
  EXPECT_EQ(result.total_requests, static_cast<std::size_t>(kTenants) * 10u);
  const double per_tenant =
      static_cast<double>(allocs) / static_cast<double>(kTenants);
  EXPECT_LE(per_tenant, 14.0) << allocs << " allocations for " << kTenants
                               << " tenants";
}

}  // namespace
}  // namespace janus
