#include "sim/engine.h"

#include "obs/registry.h"

namespace scale::sim {

bool Engine::cancel(EventId id) {
  const std::uint32_t slot = slot_of(id);
  if (slot >= pool_.size()) return false;
  Slot& s = pool_[slot];
  // Generation matches iff this exact event is still armed: release_slot
  // bumps it the moment an event fires or is cancelled.
  if (s.generation != generation_of(id)) return false;
  // Move the callback out before releasing: its captures' destructors may
  // re-enter the engine (and grow pool_), so they must run after all slot
  // bookkeeping is done. The stale heap entry is skipped on pop.
  InlineAction doomed = std::move(s.action);
  release_slot(slot);
  ++stale_;  // its heap entry remains until popped
  return true;
}

void Engine::run(std::uint64_t limit) {
  for (std::uint64_t i = 0; i < limit; ++i) {
    if (!pop_one()) return;
  }
}

void Engine::run_until(Time t) {
  SCALE_CHECK(t >= now_);
  while (!heap_.empty()) {
    const HeapEntry top = heap_[0];
    if (stale_ != 0 && pool_[top.slot()].seq != top.seq()) {
      heap_pop_top();
      --stale_;
      continue;
    }
    if (top.at_us > t.count_us()) break;
    fire_top(top);
  }
  now_ = t;
}

void Engine::export_metrics(obs::MetricsRegistry& reg,
                            const std::string& prefix) const {
  reg.set_counter(prefix + ".events_processed", processed_);
  reg.set_counter(prefix + ".events_scheduled", next_seq_);
  reg.set(prefix + ".queue_depth", static_cast<double>(live_));
  reg.set(prefix + ".now_ms", now_.to_ms());
}

}  // namespace scale::sim
