#include "exp/runner.hpp"

#include <cstdint>
#include <memory>

#include "sim/engine.hpp"

namespace janus {

EmpiricalDistribution RunResult::e2e_distribution() const {
  std::vector<double> samples;
  samples.reserve(requests.size());
  for (const auto& r : requests) samples.push_back(r.e2e);
  return EmpiricalDistribution(std::move(samples));
}

double RunResult::mean_cpu() const {
  if (requests.empty()) return 0.0;
  double total = 0.0;
  for (const auto& r : requests) total += r.cpu_mc;
  return total / static_cast<double>(requests.size());
}

double RunResult::violation_rate() const {
  if (requests.empty()) return 0.0;
  std::size_t v = 0;
  for (const auto& r : requests) v += r.violated ? 1 : 0;
  return static_cast<double>(v) / static_cast<double>(requests.size());
}

double RunResult::e2e_percentile(double p) const {
  return e2e_distribution().percentile(p);
}

namespace {

/// The request-randomness stream, factored so the lazy per-request path in
/// serve_workload and the eager draw_requests() helper consume *the same*
/// rng in the same order — a draw is a pure function of (seed, index).
struct DrawContext {
  const std::vector<FunctionModel>* models = nullptr;  // the chain; not owned
  CoLocationDistribution coloc;
  std::vector<CoLocationDistribution> per_stage;  // provider snapshot
  Concurrency concurrency = 1;
  InterferenceModel interference;
  Rng rng{0};

  static DrawContext make(const std::vector<FunctionModel>& models,
                          const RunConfig& config) {
    DrawContext ctx;
    ctx.models = &models;
    require(config.colocation_provider == nullptr ||
                config.colocation_provider->stages() == models.size(),
            "co-location provider needs one distribution per chain stage");
    ctx.coloc =
        config.colocation_is_default
            ? CoLocationDistribution::for_concurrency(config.concurrency)
            : config.colocation;
    // Snapshot the provider's distributions once: the draw stream must be
    // consumed identically on every run (paired requests), even when a
    // live provider shifts under it mid-run.
    if (config.colocation_provider != nullptr) {
      ctx.per_stage.reserve(models.size());
      for (std::size_t s = 0; s < models.size(); ++s) {
        ctx.per_stage.push_back(
            config.colocation_provider->stage_distribution(s));
      }
    }
    ctx.concurrency = config.concurrency;
    ctx.interference = config.interference;
    ctx.rng = Rng(config.seed).split(0x5eedULL);
    return ctx;
  }

  /// Draws the next request into `draw`, reusing its capacity: a draw
  /// already sized for the chain is refilled without allocating.
  JANUS_HOT void next_into(RequestDraw& draw) {
    draw.ws.clear();
    draw.interference.clear();
    for (std::size_t s = 0; s < models->size(); ++s) {
      const FunctionModel& model = (*models)[s];
      // janus-lint: allow(hot-path-growth) cleared, never shrunk: a draw
      // reused for the same chain already holds one entry per stage.
      draw.ws.push_back(model.sample_ws(concurrency, rng));
      const CoLocationDistribution& dist =
          per_stage.empty() ? coloc : per_stage[s];
      const int n = dist.sample(rng);
      // janus-lint: allow(hot-path-growth) same retained capacity as ws.
      draw.interference.push_back(
          interference.sample_multiplier(model.dim(), n, rng));
    }
  }
};

}  // namespace

std::vector<RequestDraw> draw_requests(const WorkloadSpec& workload,
                                       const RunConfig& config) {
  require(config.requests > 0, "run needs >= 1 request");
  const std::vector<FunctionModel> models = workload.chain_models();
  DrawContext ctx = DrawContext::make(models, config);
  std::vector<RequestDraw> draws(static_cast<std::size_t>(config.requests));
  for (auto& draw : draws) ctx.next_into(draw);
  return draws;
}

namespace {

/// One in-flight request's execution state, driven by platform callbacks.
/// Lives in ServeState's slab; a finished request's slot — and the
/// capacity of its draw and record vectors — is reused by a later one.
struct InFlight {
  RequestDraw draw;
  std::size_t index = 0;  // request index (live interference rng stream)
  std::size_t stage = 0;
  Seconds elapsed = 0.0;
  RequestRecord record;
};

/// Everything one serve_workload call needs while its events drain.  Owned
/// by the RunResult it fills (RunResult::serve_state); the scheduled
/// closures hold raw pointers to it, which the RunResult's outlive-the-run
/// contract keeps valid.  In-flight requests live in an indexed slab, so
/// the request path neither allocates nor touches a refcount once the slab
/// has reached the run's peak in-flight count.
struct ServeState {
  DrawContext draws;              // lazy stream; consumed in index order
  std::size_t total_requests = 0;
  Platform* platform = nullptr;
  SizingPolicy* policy = nullptr;
  RunResult* out = nullptr;
  std::size_t stages = 0;
  Seconds slo = 0.0;
  Concurrency concurrency = 1;
  bool endogenous_interference = false;
  bool record_detail = true;
  bool closed_loop = false;
  std::size_t next_request = 0;  // closed-loop cursor
  // In-flight slab: `slots` only grows (to the peak in-flight count) and
  // `free_slots` is a LIFO of finished slots, its capacity kept at the
  // slab's so returning a slot never reallocates.
  std::vector<InFlight> slots;
  std::vector<std::uint32_t> free_slots;
  // Open-loop arrivals as a chained event ladder: arrival i schedules
  // arrival i+1 when it fires, so the calendar holds O(1) arrival events
  // per tenant instead of the whole stream.  The rng consumption (and so
  // every arrival time) is identical to the historical pre-scheduled loop.
  SimEngine* engine = nullptr;
  std::unique_ptr<ArrivalProcess> process;
  Rng arrivals_rng{0};
  Seconds arrival_time = 0.0;
  std::size_t next_arrival = 0;
  // Live co-location feed (epoch-driven): the multiplier is drawn at
  // stage-launch time from the distribution in effect *now*.  The rng for
  // request r / stage s is derived from (seed, r, s) alone, so neither
  // event interleaving nor the shard count can shift any draw — only the
  // epoch's distribution can.
  const CoLocationProvider* live_feed = nullptr;
  Rng live_rng_base{0};
  InterferenceModel interference;
  // Span tracing (null = off): sampled by request index, so the recorded
  // set is a pure function of the config, never of event interleaving.
  TraceRing* trace_ring = nullptr;
  std::size_t trace_sample_every = 1;
  std::uint32_t trace_tenant = 0;
};

/// Fixed-width span from one completed stage invocation.  The span start
/// is reconstructed as now() - total: the completion event fires exactly
/// queued+startup+exec simulated seconds after the invocation entered the
/// platform, so the subtraction is exact in the same sense the simulation
/// is — identical doubles at any shard count.
void record_span(const ServeState& st, const InFlight& req,
                 Millicores size, const InvocationOutcome& outcome) {
  SpanRecord span;
  span.tenant = st.trace_tenant;
  span.request = static_cast<std::uint32_t>(req.index);
  span.stage = static_cast<std::uint16_t>(req.stage);
  span.cold = outcome.cold_start ? 1 : 0;
  span.queued = outcome.queued_s > 0.0 ? 1 : 0;
  span.pod = outcome.pod;
  span.node = outcome.node;
  span.colocated = outcome.colocated;
  span.size_mc = size;
  span.start_s = st.platform->now() - outcome.total();
  span.queued_s = outcome.queued_s;
  span.startup_s = outcome.startup_s;
  span.exec_s = outcome.exec_s;
  span.interference = outcome.interference;
  st.trace_ring->record(span);
}

/// Cold path: adds one slab slot, pre-sized for the chain so its draw and
/// record vectors never grow once it is in use, and frees it.
void grow_slab(ServeState& st) {
  InFlight& fresh = st.slots.emplace_back();
  fresh.draw.ws.reserve(st.stages);
  fresh.draw.interference.reserve(st.stages);
  if (st.record_detail) {
    fresh.record.sizes.reserve(st.stages);
    fresh.record.stage_total.reserve(st.stages);
  }
  st.free_slots.reserve(st.slots.capacity());
  st.free_slots.push_back(static_cast<std::uint32_t>(st.slots.size() - 1));
}

void launch_stage(ServeState& st, std::uint32_t slot);

/// Claims a slot for request `index` and draws it.  Requests start in
/// index order (sequential closed loop, chained open-loop arrivals), so
/// drawing here consumes the 0x5eed stream exactly as the eager
/// draw_requests() table does.
JANUS_HOT std::uint32_t make_request(ServeState& st, std::size_t index) {
  if (st.free_slots.empty()) grow_slab(st);
  const std::uint32_t slot = st.free_slots.back();
  st.free_slots.pop_back();
  InFlight& req = st.slots[slot];
  st.draws.next_into(req.draw);
  req.index = index;
  req.stage = 0;
  req.elapsed = 0.0;
  req.record.cpu_mc = 0.0;  // e2e and violated are set when it completes
  req.record.sizes.clear();
  req.record.stage_total.clear();
  return slot;
}

JANUS_HOT void start_request(ServeState& st, std::uint32_t slot) {
  st.policy->on_request_start(st.slots[slot].draw);
  launch_stage(st, slot);
}

/// Completion of the current stage of the request in `slot`: account it,
/// then launch the next stage or retire the request.
JANUS_HOT void complete_stage(ServeState& st, std::uint32_t slot,
                              Millicores size,
                              const InvocationOutcome& outcome) {
  InFlight& req = st.slots[slot];
  if (st.trace_ring != nullptr && req.index % st.trace_sample_every == 0) {
    record_span(st, req, size, outcome);
  }
  req.elapsed += outcome.total();
  req.record.cpu_mc += static_cast<double>(size);
  if (st.record_detail) {
    // janus-lint: allow(hot-path-growth) reserved to the chain length in
    // grow_slab and cleared, never shrunk, when the slot is reused.
    req.record.sizes.push_back(size);
    // janus-lint: allow(hot-path-growth) same retained capacity as sizes.
    req.record.stage_total.push_back(outcome.total());
  }
  ++req.stage;
  if (req.stage < st.stages) {
    launch_stage(st, slot);
    return;
  }
  req.record.e2e = req.elapsed;
  req.record.violated = req.elapsed > st.slo;
  // janus-lint: allow(hot-path-growth) serve_workload reserved the log
  // for every request of the run, so the append fills retained capacity.
  st.out->requests.push_back(req.record);
  // janus-lint: allow(hot-path-growth) grow_slab keeps the free list's
  // capacity at the slab's, and it never holds more than every slot.
  st.free_slots.push_back(slot);
  if (st.closed_loop && st.next_request < st.total_requests) {
    // Next request enters the moment this one finished — the paper's
    // sequential measurement loop, expressed as an event chain so the
    // engine can be shared.
    start_request(st, make_request(st, st.next_request++));
  }
}

JANUS_HOT void launch_stage(ServeState& st, std::uint32_t slot) {
  const InFlight& req = st.slots[slot];
  const Millicores size =
      st.policy->size_for_stage(req.stage, req.elapsed, req.draw);
  std::optional<double> exo;
  if (!st.endogenous_interference) {
    if (st.live_feed != nullptr) {
      Rng rng = st.live_rng_base.split(req.index * st.stages + req.stage);
      const int n = st.live_feed->stage_distribution(req.stage).sample(rng);
      exo = st.interference.sample_multiplier(
          (*st.draws.models)[req.stage].dim(), n, rng);
    } else {
      exo = req.draw.interference[req.stage];
    }
  }
  ServeState* state = &st;  // owned by the RunResult, which outlives the run
  st.platform->invoke(static_cast<int>(req.stage), size, st.concurrency,
                      req.draw.ws[req.stage], exo,
                      [state, slot, size](const InvocationOutcome& outcome) {
                        complete_stage(*state, slot, size, outcome);
                      });
}

/// Schedules arrival `next_arrival` and, when it fires, the one after it.
JANUS_HOT void schedule_next_arrival(ServeState& st) {
  if (st.next_arrival >= st.total_requests) return;
  const std::size_t i = st.next_arrival++;
  st.arrival_time = st.process->next(st.arrival_time, st.arrivals_rng);
  ServeState* state = &st;
  st.engine->schedule_at(st.arrival_time, [state, i] {
    schedule_next_arrival(*state);
    start_request(*state, make_request(*state, i));
  });
}

}  // namespace

void serve_workload(SimEngine& engine, Platform& platform,
                    const WorkloadSpec& workload, SizingPolicy& policy,
                    const RunConfig& config, RunResult& out) {
  require(config.slo > 0.0, "SLO must be > 0");
  require(config.requests > 0, "run needs >= 1 request");
  require(workload.workflow.is_chain() &&
              platform.function_count() == workload.workflow.size(),
          "platform must host exactly the workload's chain functions");
  require(out.serve_state == nullptr,
          "result already holds a serve_workload run");
  auto state = std::make_shared<ServeState>();
  ServeState& st = *state;
  out.serve_state = std::move(state);
  st.draws = DrawContext::make(platform.functions(), config);
  st.total_requests = static_cast<std::size_t>(config.requests);
  st.platform = &platform;
  st.policy = &policy;
  st.out = &out;
  st.stages = platform.function_count();
  st.slo = config.slo;
  st.concurrency = config.concurrency;
  st.endogenous_interference = config.endogenous_interference;
  st.record_detail = config.record_stage_detail;
  if (config.trace_ring != nullptr) {
    require(config.trace_sample_every >= 1,
            "trace sampling stride must be >= 1");
    st.trace_ring = config.trace_ring;
    st.trace_sample_every =
        static_cast<std::size_t>(config.trace_sample_every);
    st.trace_tenant = config.trace_tenant;
  }
  if (config.colocation_provider != nullptr &&
      config.colocation_provider->live()) {
    st.live_feed = config.colocation_provider;
    st.live_rng_base = Rng(config.seed).split(0x11feULL);
    st.interference = config.interference;
  }

  out.policy_name = policy.name();
  out.slo = config.slo;
  out.requests.configure(st.stages, config.record_stage_detail);
  out.requests.reserve(out.requests.size() + st.total_requests);

  if (config.open_loop_rate > 0.0) {
    // Open loop: pluggable arrival process; requests overlap on the
    // platform.  The base rate stays the legacy open_loop_rate knob; the
    // MMPP burst rate scales with it so the spec's burst/base ratio — the
    // process's *shape* — survives the override.
    ArrivalSpec spec = config.arrivals;
    if (spec.rate > 0.0) {
      spec.burst_rate *= config.open_loop_rate / spec.rate;
    }
    spec.rate = config.open_loop_rate;
    st.engine = &engine;
    st.process = make_arrivals(spec);
    st.arrivals_rng = Rng(config.seed).split(0xa11aULL);
    st.arrival_time = engine.now();
    schedule_next_arrival(st);
  } else {
    // Closed loop: one request at a time (the paper's 1000-request runs).
    st.closed_loop = true;
    st.next_request = 1;
    start_request(st, make_request(st, 0));
  }
}

RunResult run_workload(const WorkloadSpec& workload, SizingPolicy& policy,
                       const RunConfig& config) {
  SimEngine engine;
  PlatformConfig platform_config = config.platform;
  platform_config.seed = config.seed ^ 0x9e3779b97f4a7c15ULL;
  Platform platform(engine, platform_config, workload.chain_models(),
                    config.interference);
  RunResult result;
  serve_workload(engine, platform, workload, policy, config, result);
  engine.run();
  return result;
}

}  // namespace janus
