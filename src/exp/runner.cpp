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

  /// (Re)starts the stream for `config` over `chain`.  The co-location
  /// weights are copy-assigned into the vectors this context already
  /// holds, so a recycled context (serve_workload's, reused across a
  /// shard's tenants) refills them without allocating.
  void init(const std::vector<FunctionModel>& chain, const RunConfig& config) {
    require(config.colocation_provider == nullptr ||
                config.colocation_provider->stages() == chain.size(),
            "co-location provider needs one distribution per chain stage");
    models = &chain;
    if (config.colocation_is_default) {
      coloc = CoLocationDistribution::for_concurrency(config.concurrency);
    } else {
      coloc = config.colocation;
    }
    // Snapshot the provider's distributions once: the draw stream must be
    // consumed identically on every run (paired requests), even when a
    // live provider shifts under it mid-run.
    if (config.colocation_provider != nullptr) {
      per_stage.resize(chain.size());
      for (std::size_t s = 0; s < chain.size(); ++s) {
        per_stage[s] = config.colocation_provider->stage_distribution(s);
      }
    } else {
      per_stage.clear();
    }
    concurrency = config.concurrency;
    interference = config.interference;
    rng = Rng(config.seed).split(0x5eedULL);
  }

  static DrawContext make(const std::vector<FunctionModel>& chain,
                          const RunConfig& config) {
    DrawContext ctx;
    ctx.init(chain, config);
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
  std::size_t completed = 0;      // requests of this run in the log
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
  // Open-loop arrivals as a chain of events: arrival i schedules
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

  /// Every request of the run has completed: no slot is in use and no
  /// event of the run is left on the calendar.  A state that never served
  /// is drained too.
  bool drained() const noexcept { return completed == total_requests; }
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

/// Sizes a slot's draw and record vectors for the run's chain, so they
/// never grow once the slot is in use.
void reserve_slot(const ServeState& st, InFlight& slot) {
  slot.draw.ws.reserve(st.stages);
  slot.draw.interference.reserve(st.stages);
  if (st.record_detail) {
    slot.record.sizes.reserve(st.stages);
    slot.record.stage_total.reserve(st.stages);
  }
}

/// Cold path: adds one slab slot, pre-sized for the chain, and frees it.
void grow_slab(ServeState& st) {
  reserve_slot(st, st.slots.emplace_back());
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
    // janus-lint: allow(hot-path-growth) reserved to the chain length by
    // reserve_slot and cleared, never shrunk, when the slot is reused.
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
  ++st.completed;
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
  require(&platform.engine() == &engine,
          "platform must wrap the engine serve_workload schedules on");
  require(workload.workflow.is_chain() &&
              platform.function_count() == workload.workflow.size(),
          "platform must host exactly the workload's chain functions");
  // Chain order, walked in place (chain_order() would allocate per tenant):
  // the chain's single source, then each node's single successor.
  FunctionId id = 0;
  while (!workload.workflow.predecessors(id).empty()) ++id;
  for (const FunctionModel& hosted : platform.functions()) {
    require(hosted.name() == workload.model_of(id).name(),
            "platform functions do not match the workload's chain, in order");
    const auto& next = workload.workflow.successors(id);
    if (!next.empty()) id = next.front();
  }

  require(config.trace_ring == nullptr || config.trace_sample_every >= 1,
          "trace sampling stride must be >= 1");
  std::unique_ptr<ArrivalProcess> process;
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
    process = make_arrivals(spec);
  }
  out.requests.configure(platform.function_count(),
                         config.record_stage_detail);
  out.requests.reserve(out.requests.size() +
                       static_cast<std::size_t>(config.requests));

  auto* state = static_cast<ServeState*>(out.serve_state.get());
  if (state == nullptr) {
    auto fresh = std::make_shared<ServeState>();
    state = fresh.get();
    out.serve_state = std::move(fresh);
  }
  ServeState& st = *state;
  require(st.drained(), "result's serve state still has requests in flight");
  // Every per-run field is set below; the slab (`slots`, `free_slots`, all
  // free) and the draw context's vectors keep their capacity.
  st.draws.init(platform.functions(), config);
  st.total_requests = static_cast<std::size_t>(config.requests);
  st.completed = 0;
  st.platform = &platform;
  st.policy = &policy;
  st.out = &out;
  st.stages = platform.function_count();
  st.slo = config.slo;
  st.concurrency = config.concurrency;
  st.endogenous_interference = config.endogenous_interference;
  st.record_detail = config.record_stage_detail;
  st.closed_loop = false;
  st.next_request = 0;
  // A reused slot sized for a shorter chain, or without detail, is re-sized
  // here rather than on the request path.
  for (InFlight& slot : st.slots) reserve_slot(st, slot);
  st.engine = &engine;
  st.process = std::move(process);
  st.arrivals_rng = st.process != nullptr
                        ? Rng(config.seed).split(0xa11aULL)
                        : Rng(0);
  st.arrival_time = engine.now();
  st.next_arrival = 0;
  st.live_feed = nullptr;
  st.live_rng_base = Rng(0);
  st.interference = InterferenceModel{};
  st.trace_ring = nullptr;
  st.trace_sample_every = 1;
  st.trace_tenant = 0;
  if (config.trace_ring != nullptr) {
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

  if (st.process != nullptr) {
    schedule_next_arrival(st);
  } else {
    // Closed loop: one request at a time (the paper's 1000-request runs).
    st.closed_loop = true;
    st.next_request = 1;
    start_request(st, make_request(st, 0));
  }
}

void retire_serve_state(RunResult& out) {
  auto* st = static_cast<ServeState*>(out.serve_state.get());
  if (st == nullptr) return;
  require(st->drained(), "serve state retired with requests in flight");
  st->draws.models = nullptr;
  st->platform = nullptr;
  st->policy = nullptr;
  st->out = nullptr;
  st->engine = nullptr;
  st->process.reset();
  st->live_feed = nullptr;
  st->trace_ring = nullptr;
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
