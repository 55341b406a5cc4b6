#include "sim/engine.hpp"

namespace janus {

SimEngine::SimEngine()
    : own_pool_(std::make_unique<SlotPool>()), pool_(own_pool_.get()) {}

SimEngine::~SimEngine() {
  // Destroy closures of any never-executed events (run_until stopped, or
  // the owner tore down mid-simulation) and hand their slots back: a
  // borrowed pool lives on.
  for (const EventNode& n : current_) pool_->release(n.slot());
  for (std::size_t r = next_rung_; r < active_rungs_; ++r) {
    for (const EventNode& n : rungs_[r]) pool_->release(n.slot());
  }
  for (const EventNode& n : far_) pool_->release(n.slot());
}

void SimEngine::SlotPool::grow() {
  require(slots() < (1ULL << kSlotBits) - kSlabSlots,
          "event slot space exhausted (16M in-flight events)");
  const auto base = static_cast<std::uint32_t>(slots());
  slabs_.push_back(std::make_unique<Slot[]>(kSlabSlots));
  free_.reserve(slots());
  // Reversed so the new slab's slots hand out in ascending order.
  for (std::size_t i = kSlabSlots; i > 0; --i) {
    free_.push_back(base + static_cast<std::uint32_t>(i - 1));
  }
}

void SimEngine::rebucket() {
  // Epoch advance: the ladder is spent, so the far list becomes the new
  // ladder.  Width adapts to the observed density (~kTargetRungSize events
  // per bucket); everything is distributed O(1) per event and each bucket
  // is heapified only when it becomes current.
  Seconds lo = kInf, hi = -kInf;
  for (const EventNode& n : far_) {
    lo = std::min(lo, n.time);
    hi = std::max(hi, n.time);
  }
  std::size_t buckets =
      std::min(std::max<std::size_t>(far_.size() / kTargetRungSize, 1),
               kMaxRungs);
  Seconds width = buckets > 1 ? (hi - lo) / static_cast<Seconds>(buckets) : 0.0;
  if (!(width > 0.0)) {  // all-equal times (or a single bucket)
    buckets = 1;
    width = 1.0;
  }
  if (rungs_.size() < buckets) rungs_.resize(buckets);
  ladder_start_ = lo;
  width_ = width;
  inv_width_ = 1.0 / width;
  // ladder_end_ must sit at or above every time placed in the ladder, so
  // the far-overflow routing in schedule_at can never send an event behind
  // one already laddered (lo + width*buckets can round below hi).
  ladder_end_ = std::max(lo + width * static_cast<Seconds>(buckets), hi);
  next_rung_ = 0;
  active_rungs_ = buckets;
  for (const EventNode& n : far_) {
    const double didx = (n.time - ladder_start_) * inv_width_;
    const std::size_t idx = didx >= static_cast<double>(buckets)
                                ? buckets - 1
                                : static_cast<std::size_t>(didx);
    rungs_[idx].push_back(n);
  }
  far_.clear();
}

JANUS_HOT bool SimEngine::prepare_next() {
  for (;;) {
    if (!current_.empty()) return true;
    while (next_rung_ < active_rungs_) {
      std::vector<EventNode>& rung = rungs_[next_rung_];
      ++next_rung_;
      if (rung.empty()) continue;
      current_.swap(rung);  // recycles current_'s capacity into the rung
      const bool last = next_rung_ == active_rungs_;
      // The last rung's boundary is ladder_end_, NOT infinity: far_ may
      // already hold events (>= ladder_end_), and an event scheduled
      // during this drain must join them — inserting it into current_
      // would let it overtake an older far event with a smaller time.
      current_end_ = last ? ladder_end_
                          : ladder_start_ +
                                width_ * static_cast<Seconds>(next_rung_);
      if (!last) {
        // FP stragglers: boundary-time events the index placed one bucket
        // early.  Push them into the next rung so the current_ invariant
        // (all times < current_end_) holds exactly.
        for (std::size_t i = 0; i < current_.size();) {
          if (current_[i].time >= current_end_) {
            // janus-lint: allow(hot-path-growth) FP stragglers are a
            // handful per rung at most, into a capacity-retaining bucket.
            rungs_[next_rung_].push_back(current_[i]);
            current_[i] = current_.back();
            current_.pop_back();
          } else {
            ++i;
          }
        }
      }
      std::make_heap(current_.begin(), current_.end(), Later{});
      if (!current_.empty()) return true;
    }
    if (far_.empty()) {
      current_end_ = -kInf;  // fully drained: next schedule starts fresh
      ladder_end_ = -kInf;
      active_rungs_ = 0;
      next_rung_ = 0;
      return false;
    }
    rebucket();
  }
}

void SimEngine::reset() {
  require(size_ == 0, "SimEngine::reset needs a drained calendar");
  // Empty buckets may sit anywhere behind stale cursors; clearing the
  // cursors makes the next schedule_at start a fresh ladder via far_.
  current_end_ = -kInf;
  next_rung_ = 0;
  active_rungs_ = 0;
  ladder_start_ = 0.0;
  ladder_end_ = -kInf;
  inv_width_ = 0.0;
  width_ = 0.0;
  now_ = 0.0;
  last_event_ = 0.0;
  next_seq_ = 0;
  executed_ = 0;
}

JANUS_HOT void SimEngine::run() {
  while (step()) {
  }
}

JANUS_HOT void SimEngine::run_until(Seconds t) {
  // prepare_next materializes the next bucket so its heap root is the
  // earliest pending event — the peek the boundary test needs.  An event
  // scheduled at <= t by a firing event is picked up on the next
  // iteration.
  while ((!current_.empty() || prepare_next()) &&
         current_.front().time <= t) {
    step();
  }
  if (now_ < t) now_ = t;
}

}  // namespace janus
