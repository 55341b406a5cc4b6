#include "sim/engine.hpp"

namespace janus {

SimEngine::SimEngine()
    : own_pool_(std::make_unique<SlotPool>()), pool_(own_pool_.get()) {}

SimEngine::~SimEngine() {
  // Destroy closures of any never-executed events (run_until stopped, or
  // the owner tore down mid-simulation) and hand their slots back: a
  // borrowed pool lives on.
  for (const EventNode& n : heap_) pool_->release(n.slot());
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

void SimEngine::reset() {
  require(heap_.empty(), "SimEngine::reset needs a drained calendar");
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
  // The heap root is the earliest pending event — the peek the boundary
  // test needs.  An event scheduled at <= t by a firing event is picked
  // up on the next iteration.
  while (!heap_.empty() && heap_.front().time <= t) step();
  if (now_ < t) now_ = t;
}

}  // namespace janus
