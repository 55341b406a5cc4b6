// Discrete-event simulation engine.
//
// The calendar is a bucketed ladder queue instead of one binary heap:
//
//  * `current_` — the bucket being drained, kept as a small binary
//    min-heap of 16-byte (time, seq|slot) nodes: pops and mid-bucket
//    inserts cost O(log bucket) sifts over cache-hot nodes, never a
//    closure move or a vector memmove.
//  * `rungs_` — the ladder: fixed-width time buckets covering
//    [ladder_start_, ladder_end_).  Insertion is an O(1) push_back into
//    the right bucket; a bucket is heapified only when it becomes current.
//  * `far_` — unsorted overflow for events at or beyond ladder_end_.
//    When the ladder drains, far_ is re-bucketed into a fresh ladder whose
//    width adapts to the observed event density (epoch advance).
//
// Near-sorted arrival streams (open-loop load generators) make both
// enqueue and dequeue amortized O(1) versus the heap's O(log n), and the
// constant factor shrinks further because closures are placement-built
// directly into a slot pool (no per-event malloc/free, no relocation) and
// the ordering structures move 16-byte nodes, not closures.
//
// The slot pool (SimEngine::SlotPool) may be shared.  A default-built
// engine owns a private pool; SimEngine(SlotPool&) borrows one, so many
// small calendars (the live fleet's one per tenant) recycle one warm set
// of slots.  The contract for engines that share a pool:
//  * one thread at a time drives them — the pool has no locks;
//  * the pool outlives every engine borrowing it (an engine destroyed
//    with events still pending returns their slots to the pool);
//  * the 16M in-flight slot space belongs to the pool: it bounds the sum
//    of pending events over all the engines sharing it.
//
// Ordering contract (unchanged from the heap engine, and what keeps fleet
// metrics bit-identical at any shard count): events execute in strict
// (time, insertion-seq) order, and a schedule_at with t < now() is clamped
// to now() — it fires as soon as possible, after any already-queued events
// at now().
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "common/annotations.hpp"
#include "common/inline_function.hpp"
#include "common/types.hpp"
#include "obs/obs.hpp"

namespace janus {

/// Inline capture budget for one scheduled event.  The largest producer is
/// Platform's completion closure: `this`, two indices, the 48-byte
/// InvocationOutcome and the caller's 64-byte InvokeFn fill it exactly.
/// exp/runner's own captures are 16 bytes each — the stage completion
/// ({state, slab slot, size}, carried inside that InvokeFn) and the
/// open-loop arrival ({state, request index}) — because all request state
/// lives in the runner's slab, not in closures.  Every capture is
/// static_asserted against its budget at its construction site by
/// InlineFunction itself.  Keep this as small as those captures allow:
/// slot size times pending events is the pool's working set, and
/// large-fleet runs keep ~100k events pending.
inline constexpr std::size_t kEventCaptureBytes = 128;
using EventFn = InlineFunction<void(), kEventCaptureBytes>;

class SimEngine {
 public:
  /// Closure storage: fixed slabs of EventFn-sized slots that never move,
  /// plus a LIFO free list (a freed slot is reused first, while its line
  /// is still hot).  See the file comment for the sharing contract.
  ///
  /// alignas(64): every acquire and release writes the free list's header
  /// (its end pointer), so a pool must own its cache line.  The fleet keeps
  /// one pool per shard side by side in one vector; unaligned, two shards'
  /// headers share a line and every event on one shard invalidates it on
  /// the other's core — measured, that false sharing cost the live fleet
  /// most of what per-tenant calendars gain.
  class alignas(64) SlotPool {
   public:
    SlotPool() = default;
    SlotPool(const SlotPool&) = delete;
    SlotPool& operator=(const SlotPool&) = delete;

    /// Slots that exist: free ones plus those holding a pending closure.
    std::size_t slots() const noexcept { return slabs_.size() * kSlabSlots; }
    /// Slots ready for the next acquire.
    std::size_t free_slots() const noexcept { return free_.size(); }

   private:
    friend class SimEngine;
    static constexpr std::uint64_t kSlotBits = 24;  // 16M in-flight closures
    static constexpr std::size_t kSlabSlots = 256;  // closures per slab
    struct Slot {
      alignas(std::max_align_t) unsigned char bytes[sizeof(EventFn)];
    };

    JANUS_HOT EventFn* at(std::uint32_t slot) noexcept {
      return reinterpret_cast<EventFn*>(
          slabs_[slot / kSlabSlots][slot % kSlabSlots].bytes);
    }

    /// Placement-builds the callable into a free slot; returns its index.
    template <typename F>
    JANUS_HOT std::uint32_t acquire(F&& fn) {
      if (free_.empty()) grow();
      const std::uint32_t slot = free_.back();
      free_.pop_back();
      ::new (static_cast<void*>(at(slot))) EventFn(std::forward<F>(fn));
      return slot;
    }

    JANUS_HOT void release(std::uint32_t slot) noexcept {
      at(slot)->~EventFn();
      // janus-lint: allow(hot-path-growth) free list capacity is reserved
      // in grow for every slot that exists; push_back never reallocates.
      free_.push_back(slot);
    }

    void grow();

    std::vector<std::unique_ptr<Slot[]>> slabs_;
    std::vector<std::uint32_t> free_;
  };

  /// An engine with its own slot pool.
  SimEngine();
  /// An engine whose closures live in `pool` (see the sharing contract).
  explicit SimEngine(SlotPool& pool) noexcept : pool_(&pool) {}
  SimEngine(const SimEngine&) = delete;
  SimEngine& operator=(const SimEngine&) = delete;
  ~SimEngine();

  Seconds now() const noexcept { return now_; }

  /// Time of the most recently executed event (0.0 before any ran).
  /// Unlike now(), run_until's boundary clamp never advances it, so after
  /// a drain-to-infinity run it still reads the true makespan — what the
  /// fleet reports as sim_end_s for achieved-throughput accounting.
  Seconds last_event_s() const noexcept { return last_event_; }

  /// Schedules `fn` at absolute simulated time `t`.  A `t` earlier than
  /// now() is clamped to now(): the event fires "as soon as possible",
  /// after any already-queued events at now() (insertion order still
  /// breaks the tie).  Load generators that draw arrivals lazily can
  /// therefore hand the engine a time that slipped into the past without
  /// special-casing; time never flows backwards.
  ///
  /// The callable is placement-built directly into the engine's slot pool
  /// (through EventFn, which bounds and static_asserts its capture size);
  /// on the steady-state path scheduling performs zero heap allocations.
  template <typename F>
  JANUS_HOT void schedule_at(Seconds t, F&& fn) {
    if (t < now_) t = now_;  // clamp: the past is served "now"
    require(next_seq_ < kMaxSeq, "event sequence space exhausted");
    const EventNode node{
        t, (next_seq_++ << kSlotBits) | pool_->acquire(std::forward<F>(fn))};
    ++size_;
    JANUS_OBS(obs_, obs_->note_pending(size_));
    if (t < current_end_) {
      // Into the bucket being drained: O(log bucket) sift.  The node's
      // globally-largest seq makes it drain after already-queued peers at
      // the same time — the clamp contract.
      // janus-lint: allow(hot-path-growth) drain bucket keeps its capacity
      // across epochs (swap in prepare_next recycles it); amortized-free.
      current_.push_back(node);
      std::push_heap(current_.begin(), current_.end(), Later{});
    } else if (next_rung_ < active_rungs_ && t < ladder_end_) {
      // O(1) bucket append.  The double-precision index is weakly
      // monotone in t, so bucket membership can never invert event order;
      // the clamps guard the FP edges (a boundary-time event must not
      // land in a bucket the drain already passed, nor off the ladder).
      const double didx = (t - ladder_start_) * inv_width_;
      std::size_t idx = didx >= static_cast<double>(active_rungs_)
                            ? active_rungs_ - 1
                            : static_cast<std::size_t>(didx);
      idx = std::min(std::max(idx, next_rung_), active_rungs_ - 1);
      // janus-lint: allow(hot-path-growth) rungs_ never shrinks, so bucket
      // vectors retain their high-water capacity across epochs.
      rungs_[idx].push_back(node);
    } else {
      // janus-lint: allow(hot-path-growth) far_ is cleared (capacity kept)
      // on every rebucket; growth settles after the first epoch.
      far_.push_back(node);
    }
  }

  /// Schedules `fn` after `delay` seconds (>= 0).
  template <typename F>
  JANUS_HOT void schedule_after(Seconds delay, F&& fn) {
    require(delay >= 0.0, "negative delay");
    schedule_at(now_ + delay, std::forward<F>(fn));
  }

  /// Executes the next event; returns false when the calendar is empty.
  JANUS_HOT bool step() {
    if (current_.empty() && !prepare_next()) return false;
    std::pop_heap(current_.begin(), current_.end(), Later{});
    const EventNode node = current_.back();
    current_.pop_back();
    --size_;
    now_ = node.time;
    last_event_ = node.time;
    ++executed_;
#if defined(__GNUC__) || defined(__clang__)
    // Overlap the next closure's (possibly cold) slot fetch with this
    // event's execution; with 100k+ pending events the pool outgrows
    // cache and this hides most of the dequeue's DRAM latency.
    if (!current_.empty()) {
      __builtin_prefetch(pool_->at(current_.front().slot()));
    }
#endif
    // Invoke in place — no relocation.  The Slot[] slabs never move even
    // if a re-entrant schedule_at grows the pool, so the pointer stays
    // valid; the guard releases the slot after the closure returns — or
    // during unwinding if it throws, so the capture is still destroyed
    // (matching the old engine, where the heap Event died with the stack).
    struct SlotGuard {
      SlotPool* pool;
      std::uint32_t slot;
      ~SlotGuard() { pool->release(slot); }
    } guard{pool_, node.slot()};
    (*pool_->at(guard.slot))();
    return true;
  }

  /// Runs until the calendar drains.
  void run();

  /// Runs until simulated time passes `t` or the calendar drains.  An
  /// event at exactly `t` still fires; now() ends at `t` even when the
  /// calendar drains earlier (or was empty).
  void run_until(Seconds t);

  std::size_t pending() const noexcept { return size_; }
  std::uint64_t executed() const noexcept { return executed_; }

  /// Rewinds a drained calendar to t = 0 so a new, independent simulation
  /// can reuse it: now(), last_event_s(), the insertion sequence,
  /// executed() and the ladder cursors restart from a fresh engine's
  /// values, while the slot pool and bucket capacities are kept.  A reset
  /// engine therefore orders any schedule exactly like a fresh one, and
  /// once capacities settle, repeating a workload allocates nothing.
  /// Throws if events are still pending.
  void reset();

  /// Arms the calendar-occupancy gauge (self-profiling pillar); null (the
  /// default) keeps the hook a single never-taken branch in schedule_at.
  /// The sink must outlive the engine's run and is written only from the
  /// thread driving this engine.
  void set_obs(EngineObs* obs) noexcept { obs_ = obs; }

 private:
  /// 16-byte calendar node: time plus (seq << 24 | slot).  seq lives in
  /// the high 40 bits so comparing the packed word compares seq (unique
  /// per event, so the slot bits never decide anything); the closure lives
  /// in the slot pool.  Every sort/heap/bucket operation therefore moves
  /// 16 hot bytes and never touches capture bytes.
  struct EventNode {
    Seconds time;
    std::uint64_t seq_slot;

    std::uint32_t slot() const noexcept {
      return static_cast<std::uint32_t>(seq_slot & kSlotMask);
    }
  };
  static constexpr std::uint64_t kSlotBits = SlotPool::kSlotBits;
  static constexpr std::uint64_t kSlotMask = (1ULL << kSlotBits) - 1;
  static constexpr std::uint64_t kMaxSeq = 1ULL << (64 - kSlotBits);

  /// Strict (time, seq) total order, expressed as "executes later" so the
  /// STL heap helpers keep the soonest event at the root.  seq is unique,
  /// which is what makes the ladder reproduce the reference binary heap's
  /// execution order exactly.
  struct Later {
    bool operator()(const EventNode& a, const EventNode& b) const noexcept {
      if (a.time != b.time) return a.time > b.time;
      return a.seq_slot > b.seq_slot;
    }
  };

  static constexpr std::size_t kTargetRungSize = 64;  // events per bucket
  static constexpr std::size_t kMaxRungs = 1u << 14;

  /// Materializes the next non-empty bucket (or re-buckets far_) into
  /// current_; returns false when the whole calendar is empty.
  bool prepare_next();
  void rebucket();

  static constexpr Seconds kInf = std::numeric_limits<Seconds>::infinity();

  // Drain bucket: min-heap on (time, seq); holds events < current_end_.
  std::vector<EventNode> current_;
  Seconds current_end_ = -kInf;

  // Ladder: rungs_[i] spans [ladder_start_ + i*width, + width); only
  // rungs_[next_rung_ .. active_rungs_) still hold events.  rungs_ never
  // shrinks, so bucket vectors keep their capacity across epochs.
  std::vector<std::vector<EventNode>> rungs_;
  std::size_t next_rung_ = 0;
  std::size_t active_rungs_ = 0;
  Seconds ladder_start_ = 0.0;
  Seconds ladder_end_ = -kInf;
  double inv_width_ = 0.0;
  Seconds width_ = 0.0;

  // Overflow beyond ladder_end_, re-bucketed on epoch advance.
  std::vector<EventNode> far_;

  // Where closures live: own_pool_ for a default-built engine, else a
  // borrowed pool.
  std::unique_ptr<SlotPool> own_pool_;
  SlotPool* pool_;

  Seconds now_ = 0.0;
  Seconds last_event_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t size_ = 0;
  EngineObs* obs_ = nullptr;
};

}  // namespace janus
