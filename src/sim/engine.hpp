// Discrete-event simulation engine.
//
// The calendar is one binary min-heap of 16-byte (time, seq|slot) nodes,
// kept by std::push_heap / std::pop_heap.  Closures never enter it: they
// are placement-built into a slot pool (no per-event malloc/free, no
// relocation), so every sift moves 16 hot bytes, never capture bytes.
//
// Why a plain heap: every calendar holds one tenant — the fleet gives
// each tenant its own engine — and the deepest one any workload reaches
// holds a few hundred pending events.  At that depth a heap of 16-byte
// nodes spans a few KiB and its O(log n) sifts stay in L1, so a bucketed
// calendar queue, which amortizes to O(1) only at 100k+ pending, would
// just add bookkeeping: every new tenant's first events would pay for a
// bucket layout they never reuse.
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
// Ordering contract (what keeps fleet metrics bit-identical at any shard
// count): events execute in strict (time, insertion-seq) order, and a
// schedule_at with t < now() is clamped to now() — it fires as soon as
// possible, after any already-queued events at now().
#pragma once

#include <algorithm>
#include <cstdint>
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
/// slot size times pending events is the pool's working set, and a live
/// shard's pool holds the pending events of every tenant it runs.
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
    // janus-lint: allow(hot-path-growth) the heap keeps its capacity
    // across reset(), so growth settles at the calendar's peak depth.
    heap_.push_back(node);
    // The node's globally-largest seq makes it fire after already-queued
    // peers at the same time — the clamp contract.
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    JANUS_OBS(obs_, obs_->note_pending(heap_.size()));
  }

  /// Schedules `fn` after `delay` seconds (>= 0).
  template <typename F>
  JANUS_HOT void schedule_after(Seconds delay, F&& fn) {
    require(delay >= 0.0, "negative delay");
    schedule_at(now_ + delay, std::forward<F>(fn));
  }

  /// Executes the next event; returns false when the calendar is empty.
  JANUS_HOT bool step() {
    if (heap_.empty()) return false;
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    const EventNode node = heap_.back();
    heap_.pop_back();
    now_ = node.time;
    last_event_ = node.time;
    ++executed_;
#if defined(__GNUC__) || defined(__clang__)
    // Overlap the next closure's (possibly cold) slot fetch with this
    // event's execution: a shard's pool is shared by every tenant it
    // runs, so the next slot need not be cache-resident.
    if (!heap_.empty()) __builtin_prefetch(pool_->at(heap_.front().slot()));
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

  std::size_t pending() const noexcept { return heap_.size(); }
  std::uint64_t executed() const noexcept { return executed_; }

  /// Rewinds a drained calendar to t = 0 so a new, independent simulation
  /// can reuse it: now(), last_event_s(), the insertion sequence,
  /// and executed() restart from a fresh engine's values, while the slot
  /// pool and the heap's capacity are kept.  A reset engine therefore
  /// orders any schedule exactly like a fresh one, and repeating a
  /// workload that fits the kept capacity allocates nothing.
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
  /// in the slot pool.  Every heap sift therefore moves 16 hot bytes and
  /// never touches capture bytes.
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
  /// so the order is total and the heap's internal layout never decides
  /// which of two events fires first.
  struct Later {
    bool operator()(const EventNode& a, const EventNode& b) const noexcept {
      if (a.time != b.time) return a.time > b.time;
      return a.seq_slot > b.seq_slot;
    }
  };

  // Min-heap on (time, seq) under Later: front() is the next event.
  std::vector<EventNode> heap_;

  // Where closures live: own_pool_ for a default-built engine, else a
  // borrowed pool.
  std::unique_ptr<SlotPool> own_pool_;
  SlotPool* pool_;

  Seconds now_ = 0.0;
  Seconds last_event_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  EngineObs* obs_ = nullptr;
};

}  // namespace janus
