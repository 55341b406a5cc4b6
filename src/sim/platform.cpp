#include "sim/platform.hpp"

#include <algorithm>

namespace janus {

Platform::Platform(SimEngine& engine, PlatformConfig config,
                   std::vector<FunctionModel> functions,
                   InterferenceModel interference)
    : engine_(engine), functions_(std::move(functions)) {
  reset(config, functions_, interference);
}

void Platform::reset(PlatformConfig config,
                     const std::vector<FunctionModel>& functions,
                     InterferenceModel interference) {
  require(config.nodes > 0, "platform needs >= 1 node");
  require(!functions.empty(), "platform needs >= 1 function");
  require(std::none_of(pods_.begin(), pods_.end(),
                       [](const Pod& p) { return p.busy || p.preempted; }),
          "platform reset with an invocation in flight");
  config_ = config;
  if (&functions != &functions_) functions_ = functions;  // the ctor's own
  interference_ = interference;
  rng_ = Rng(config_.seed);
  cold_starts_ = 0;
  invocations_ = 0;
  preempted_pods_ = 0;
  requeued_ = 0;
  queued_total_ = 0;
  startup_mult_ = 1.0;
  obs_ = nullptr;

  const std::size_t fns = functions_.size();
  nodes_.assign(static_cast<std::size_t>(config_.nodes),
                Node{config_.node.capacity_mc, 0});
  pods_per_function_.assign(fns, 0);
  idle_.resize(fns + 1);
  for (auto& idle : idle_) idle.clear();
  pending_.resize(fns);
  for (auto& waiting : pending_) waiting.clear();
  busy_per_cell_.assign(nodes_.size() * fns, 0);
  pods_per_cell_.assign(nodes_.size() * fns, 0);
  busy_per_function_.assign(fns, 0);
  peak_busy_per_function_.assign(fns, 0);

  // Pre-warm the generic pool, spread round-robin across nodes (Fission's
  // PoolManager keeps a pool of generic pods that get specialized on first
  // use, which is what gives it "excellent performance against cold starts").
  const int generic =
      config_.pool.prewarm_per_function * static_cast<int>(fns);
  const auto prewarmed = static_cast<std::size_t>(std::max(generic, 0));
  pods_.clear();
  pods_.reserve(prewarmed);
  idle_[0].reserve(prewarmed);
  for (int i = 0; i < generic; ++i) {
    Pod pod;
    pod.node = i % config_.nodes;
    pods_.push_back(pod);
    idle_[0].push_back(static_cast<int>(pods_.size()) - 1);
  }
}

const FunctionModel& Platform::function(int fn_index) const {
  require(fn_index >= 0 &&
              static_cast<std::size_t>(fn_index) < functions_.size(),
          "function index out of range");
  return functions_[static_cast<std::size_t>(fn_index)];
}

JANUS_HOT int Platform::place(int fn_index, Millicores size) {
  // Prefer the node already hosting the most pods of this function
  // (co-location packing), then the least-loaded node with room.  The
  // per-node counts come from the incremental pods_per_cell_ counters, not
  // a scan over all pods.
  int best = -1;
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    if (nodes_[n].used + size > nodes_[n].capacity) continue;
    if (best < 0 ||
        pods_per_cell_[cell(static_cast<int>(n), fn_index)] >
            pods_per_cell_[cell(best, fn_index)]) {
      best = static_cast<int>(n);
    }
  }
  if (best < 0) {
    // Saturated cluster: fall back to the least-used node (the simulator
    // allows oversubscription rather than rejecting, like CPU shares).
    best = 0;
    for (std::size_t n = 1; n < nodes_.size(); ++n) {
      if (nodes_[n].used < nodes_[static_cast<std::size_t>(best)].used) {
        best = static_cast<int>(n);
      }
    }
  }
  return best;
}

JANUS_HOT Platform::Acquired Platform::acquire(int fn_index, Millicores size) {
  // 1. Warm pod already specialized for this function.
  auto& warm = idle_[static_cast<std::size_t>(fn_index) + 1];
  if (!warm.empty()) {
    const int pod = warm.back();
    warm.pop_back();
    // Resize in place: adjust the node's accounting to the new size.
    auto& p = pods_[static_cast<std::size_t>(pod)];
    nodes_[static_cast<std::size_t>(p.node)].used += size - p.size;
    p.size = size;
    return {pod, 0.0, false};
  }
  // Startup delays below scale with the cold-start-storm multiplier
  // (startup_mult_ == 1.0 outside a storm window, which multiplies
  // exactly, so calm runs stay bit-identical to the pre-chaos code).
  // 2. Specialize a generic pre-warmed pod.
  auto& generic = idle_[0];
  const bool can_grow =
      config_.pool.max_pods_per_function <= 0 ||
      pods_per_function_[static_cast<std::size_t>(fn_index)] <
          config_.pool.max_pods_per_function;
  if (!generic.empty() && can_grow) {
    const int pod = generic.back();
    generic.pop_back();
    auto& p = pods_[static_cast<std::size_t>(pod)];
    p.fn_index = fn_index;
    // Keep the historical placement input: the pod being specialized used
    // to be counted on its generic (round-robin) node during the pods_
    // scan, and that +1 participates in packing tie-breaks.  Reproduce it
    // exactly so placements — and therefore Table I and fleet metrics —
    // stay bit-identical with the pre-counter code.
    ++pods_per_cell_[cell(p.node, fn_index)];
    const int placed = place(fn_index, size);
    --pods_per_cell_[cell(p.node, fn_index)];
    p.node = placed;
    p.size = size;
    nodes_[static_cast<std::size_t>(p.node)].used += size;
    ++pods_per_cell_[cell(p.node, fn_index)];
    ++pods_per_function_[static_cast<std::size_t>(fn_index)];
    reserve_warm_capacity(fn_index);
    return {pod, config_.pool.warm_start_s * startup_mult_, false};
  }
  // 3. Cold start a fresh pod — unless the scale-out limit is reached, in
  // which case the invocation must wait for a pod to free up.
  if (!can_grow) return {-1, 0.0, false};
  Pod p;
  p.fn_index = fn_index;
  p.node = place(fn_index, size);
  p.size = size;
  nodes_[static_cast<std::size_t>(p.node)].used += size;
  // janus-lint: allow(hot-path-growth) cold-start pod creation: the fleet
  // reaches a steady pod population, after which this branch never runs
  // (and a simulated cold start already pays 450 ms, dwarfing the alloc).
  pods_.push_back(p);
  ++pods_per_cell_[cell(p.node, fn_index)];
  ++pods_per_function_[static_cast<std::size_t>(fn_index)];
  reserve_warm_capacity(fn_index);
  ++cold_starts_;
  return {static_cast<int>(pods_.size()) - 1,
          config_.pool.cold_start_s * startup_mult_, true};
}

void Platform::reserve_warm_capacity(int fn_index) {
  auto& warm = idle_[static_cast<std::size_t>(fn_index) + 1];
  const auto pods = static_cast<std::size_t>(
      pods_per_function_[static_cast<std::size_t>(fn_index)]);
  if (warm.capacity() < pods) {
    warm.reserve(std::max(pods, 2 * warm.capacity()));
  }
}

JANUS_HOT void Platform::invoke(int fn_index, Millicores size, Concurrency c,
                                double ws_factor,
                                std::optional<double> exogenous_interference,
                                InvokeFn&& done) {
  const FunctionModel& model = function(fn_index);
  require(size > 0, "size must be > 0 millicores");
  require(c >= 1, "concurrency must be >= 1");
  require(c == 1 || model.batchable(), "function is not batchable");

  const Acquired got = acquire(fn_index, size);
  if (got.pod < 0) {
    // Scale-out limit hit: queue until a pod of this function frees up.
    ++queued_total_;
    JANUS_OBS(obs_, ++obs_->queued);
    // janus-lint: allow(hot-path-growth) saturation slow path — the
    // invocation is about to wait a pod's service time anyway.
    pending_[static_cast<std::size_t>(fn_index)].push_back(
        {size, c, ws_factor, exogenous_interference, std::move(done),
         engine_.now()});
    return;
  }
  start_on_pod(fn_index, got, size, c, ws_factor, exogenous_interference,
               /*queued_s=*/0.0, std::move(done));
}

JANUS_HOT void Platform::start_on_pod(
    int fn_index, const Acquired& got, Millicores size, Concurrency c,
    double ws_factor, std::optional<double> exogenous_interference,
    Seconds queued_s, InvokeFn&& done) {
  const FunctionModel& model = function(fn_index);
  auto& pod = pods_[static_cast<std::size_t>(got.pod)];
  pod.busy = true;
  ++invocations_;

  InvocationOutcome outcome;
  outcome.queued_s = queued_s;
  outcome.startup_s = got.startup;
  outcome.cold_start = got.cold;
  outcome.pod = got.pod;
  outcome.node = pod.node;
  // Counter already includes this pod (just marked busy), so it is >= 1 —
  // same value the old O(pods) scan produced.
  outcome.colocated =
      std::max(++busy_per_cell_[cell(pod.node, fn_index)], 1);
  const int busy_now = ++busy_per_function_[static_cast<std::size_t>(fn_index)];
  peak_busy_per_function_[static_cast<std::size_t>(fn_index)] =
      std::max(peak_busy_per_function_[static_cast<std::size_t>(fn_index)],
               busy_now);
  if (exogenous_interference.has_value()) {
    outcome.interference = *exogenous_interference;
  } else {
    outcome.interference =
        interference_.sample_multiplier(model.dim(), outcome.colocated, rng_);
  }
  outcome.exec_s = model.exec_time(size, c, ws_factor, outcome.interference);
  pod.exec_single = outcome.exec_s;

  schedule_completion(got.startup + outcome.exec_s, got.pod, fn_index,
                      outcome, std::move(done));
}

JANUS_HOT void Platform::schedule_completion(Seconds delay, int pod_index,
                                             int fn_index,
                                             const InvocationOutcome& outcome,
                                             InvokeFn&& done) {
  // The only move of `done` on the invocation path: into this closure
  // (and with it into the engine's slot), where the event calls it in
  // place.  Every hop before this one passed it by reference.
  engine_.schedule_after(
      delay, [this, pod_index, fn_index, outcome,
              done = std::move(done)]() mutable {
        finish_invocation(pod_index, fn_index, outcome, done);
      });
}

JANUS_HOT void Platform::finish_invocation(int pod_index, int fn_index,
                                           InvocationOutcome outcome,
                                           InvokeFn& done) {
  auto& p = pods_[static_cast<std::size_t>(pod_index)];
  if (p.preempted) {
    // The pod was killed mid-flight (chaos preemption): its accounting was
    // unwound at kill time and it never returns to the idle pool.  The
    // invocation loses its work and re-enters the acquire path, re-paying
    // the execution the pod recorded when this attempt started.
    const Millicores size = p.size;
    const Seconds exec_single = p.exec_single;
    p.preempted = false;
    p.size = 0;       // tombstone: not on any idle list, never reused,
    p.fn_index = -1;  // never counted again
    ++requeued_;
    if (outcome.preempted < 255) ++outcome.preempted;
    retry_invocation(fn_index, size, exec_single, outcome, std::move(done));
    return;  // no pod went idle, so nothing to drain
  }
  p.busy = false;
  --busy_per_cell_[cell(p.node, fn_index)];
  --busy_per_function_[static_cast<std::size_t>(fn_index)];
  // janus-lint: allow(hot-path-growth) reserve_warm_capacity sized the
  // warm list for every pod of the function when this pod was specialized.
  idle_[static_cast<std::size_t>(fn_index) + 1].push_back(pod_index);
  done(outcome);

  // Drain one queued invocation of this function, if any (FIFO).
  auto& waiting = pending_[static_cast<std::size_t>(fn_index)];
  if (!waiting.empty()) {
    PendingInvocation next = std::move(waiting.front());
    waiting.erase(waiting.begin());
    const Acquired reacquired = acquire(fn_index, next.size);
    // A pod just went idle, so reacquisition cannot fail.
    const Seconds queued_s = engine_.now() - next.enqueued_at;
    if (next.retry_exec_s >= 0.0) {
      resume_retry(fn_index, reacquired, next.size, next.retry_exec_s,
                   next.prior, queued_s, std::move(next.done));
    } else {
      start_on_pod(fn_index, reacquired, next.size, next.concurrency,
                   next.ws_factor, next.exogenous_interference, queued_s,
                   std::move(next.done));
    }
  }
}

JANUS_HOT void Platform::retry_invocation(int fn_index, Millicores size,
                                          Seconds exec_single,
                                          InvocationOutcome prior,
                                          InvokeFn&& done) {
  const Acquired got = acquire(fn_index, size);
  if (got.pod < 0) {
    // Scale-out limit: the retry waits in the same FIFO as fresh
    // invocations, resuming with its accumulated outcome.
    ++queued_total_;
    JANUS_OBS(obs_, ++obs_->queued);
    PendingInvocation entry;
    entry.size = size;
    entry.concurrency = 1;   // unused on retry: exec is re-paid verbatim
    entry.ws_factor = 0.0;   // likewise
    entry.done = std::move(done);
    entry.enqueued_at = engine_.now();
    entry.retry_exec_s = exec_single;
    entry.prior = prior;
    // janus-lint: allow(hot-path-growth) saturation slow path — the retry
    // is about to wait a pod's service time anyway.
    pending_[static_cast<std::size_t>(fn_index)].push_back(std::move(entry));
    return;
  }
  resume_retry(fn_index, got, size, exec_single, prior, /*queued_s=*/0.0,
               std::move(done));
}

JANUS_HOT void Platform::resume_retry(int fn_index, const Acquired& got,
                                      Millicores size, Seconds exec_single,
                                      InvocationOutcome prior,
                                      Seconds queued_s, InvokeFn&& done) {
  (void)size;
  auto& pod = pods_[static_cast<std::size_t>(got.pod)];
  pod.busy = true;
  pod.exec_single = exec_single;
  // Not a new invocation (invocations_ untouched): the same request
  // re-pays startup + exec with its original interference draw, so
  // preemption perturbs no rng stream.
  InvocationOutcome outcome = prior;
  outcome.queued_s += queued_s;
  outcome.startup_s += got.startup;
  outcome.exec_s += exec_single;
  outcome.cold_start = outcome.cold_start || got.cold;
  outcome.pod = got.pod;
  outcome.node = pod.node;
  outcome.colocated =
      std::max(++busy_per_cell_[cell(pod.node, fn_index)], 1);
  const int busy_now =
      ++busy_per_function_[static_cast<std::size_t>(fn_index)];
  peak_busy_per_function_[static_cast<std::size_t>(fn_index)] =
      std::max(peak_busy_per_function_[static_cast<std::size_t>(fn_index)],
               busy_now);
  schedule_completion(got.startup + exec_single, got.pod, fn_index, outcome,
                      std::move(done));
}

int Platform::preempt_busy(int fn_index, int max_pods) {
  (void)function(fn_index);  // range check
  if (max_pods <= 0) return 0;
  int killed = 0;
  for (std::size_t i = 0; i < pods_.size() && killed < max_pods; ++i) {
    Pod& p = pods_[i];
    if (!p.busy || p.preempted || p.fn_index != fn_index) continue;
    // Kill: leave placement + busy accounting immediately; the pending
    // completion event sees the flag and retries the invocation.
    p.busy = false;
    p.preempted = true;
    --busy_per_cell_[cell(p.node, fn_index)];
    --busy_per_function_[static_cast<std::size_t>(fn_index)];
    --pods_per_cell_[cell(p.node, fn_index)];
    --pods_per_function_[static_cast<std::size_t>(fn_index)];
    nodes_[static_cast<std::size_t>(p.node)].used -= p.size;
    ++preempted_pods_;
    ++killed;
  }
  return killed;
}

void Platform::set_startup_multiplier(double m) {
  require(m > 0.0, "startup multiplier must be > 0");
  startup_mult_ = m;
}

int Platform::peak_colocation(int fn_index) const {
  int peak = 0;
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    peak = std::max(peak, busy_per_cell_[cell(static_cast<int>(n), fn_index)]);
  }
  return peak;
}

int Platform::pods_for_function(int fn_index) const {
  (void)function(fn_index);  // range check
  return pods_per_function_[static_cast<std::size_t>(fn_index)];
}

int Platform::busy_pods_for(int fn_index) const {
  (void)function(fn_index);
  return busy_per_function_[static_cast<std::size_t>(fn_index)];
}

int Platform::peak_busy_for(int fn_index) const {
  (void)function(fn_index);
  return peak_busy_per_function_[static_cast<std::size_t>(fn_index)];
}

void Platform::reset_peak_busy() {
  peak_busy_per_function_ = busy_per_function_;
}

std::size_t Platform::queued_invocations() const noexcept {
  std::size_t total = 0;
  for (const auto& waiting : pending_) total += waiting.size();
  return total;
}

Millicores Platform::busy_millicores() const {
  Millicores total = 0;
  for (const auto& pod : pods_) {
    if (pod.busy) total += pod.size;
  }
  return total;
}

}  // namespace janus
