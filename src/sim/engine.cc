#include "src/sim/engine.h"

#include <algorithm>

namespace ntrace {

EventId Engine::PushEvent(SimTime due, InlineFunction fn, SimDuration period) {
  uint32_t index;
  if (free_head_ != kNoSlot) {
    index = free_head_;
    free_head_ = slots_[index].next_free;
  } else {
    index = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  EventSlot& slot = slots_[index];
  // Generations disambiguate reused slots; a wrap needs 2^32 allocations
  // landing back on the same slot, far beyond any simulated fleet.
  const EventId id = (next_generation_++ << 32) | index;
  slot.id = id;
  slot.cancelled = false;
  slot.next_free = kNoSlot;
  slot.fn = std::move(fn);
  const HeapEntry entry{due.ticks(), next_seq_++, index};
  if (period.ticks() > 0) {
    timers_.push_back(Timer{entry, period});
  } else {
    HeapPush(entry);
  }
  return id;
}

void Engine::FreeSlot(uint32_t index) {
  EventSlot& slot = slots_[index];
  slot.fn.Reset();
  slot.id = 0;
  slot.next_free = free_head_;
  free_head_ = index;
}

void Engine::HeapPush(HeapEntry entry) {
  heap_.push_back(entry);
  size_t i = heap_.size() - 1;
  while (i > 0) {
    const size_t parent = (i - 1) >> 2;
    if (!HeapEntryLess(entry, heap_[parent])) {
      break;
    }
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = entry;
}

void Engine::HeapPopRoot() {
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  const size_t n = heap_.size();
  if (n == 0) {
    return;
  }
  size_t i = 0;
  for (;;) {
    const size_t first_child = (i << 2) + 1;
    if (first_child >= n) {
      break;
    }
    size_t best = first_child;
    const size_t end = std::min(first_child + 4, n);
    for (size_t c = first_child + 1; c < end; ++c) {
      if (HeapEntryLess(heap_[c], heap_[best])) {
        best = c;
      }
    }
    if (!HeapEntryLess(heap_[best], last)) {
      break;
    }
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = last;
}

void Engine::Cancel(EventId id) {
  const uint32_t index = static_cast<uint32_t>(id);
  if (index < slots_.size() && slots_[index].id == id) {
    slots_[index].cancelled = true;
  }
}

void Engine::AdvanceBy(SimDuration latency) {
  assert(latency.ticks() >= 0);
  now_ += latency;
}

bool Engine::DispatchNext(SimTime limit) {
  for (;;) {
    Timer* timer = nullptr;
    for (Timer& t : timers_) {
      if (timer == nullptr || HeapEntryLess(t.next, timer->next)) {
        timer = &t;
      }
    }
    const bool from_timer =
        timer != nullptr && (heap_.empty() || HeapEntryLess(timer->next, heap_.front()));
    if (!from_timer && heap_.empty()) {
      return false;
    }
    const HeapEntry top = from_timer ? timer->next : heap_.front();
    if (top.due > limit.ticks()) {
      return false;
    }
    if (!from_timer) {
      HeapPopRoot();
    }
    EventSlot& slot = slots_[top.slot];
    if (slot.cancelled) {
      if (from_timer) {
        *timer = timers_.back();  // Unordered array: swap-remove.
        timers_.pop_back();
      }
      FreeSlot(top.slot);
      continue;
    }
    // Fire at the due time unless a synchronous AdvanceBy already moved the
    // clock past it; the clock never runs backwards.
    if (top.due > now_.ticks()) {
      now_ = SimTime(top.due);
    }
    ++events_dispatched_;
    current_dispatch_due_ = SimTime(top.due);
    if (from_timer) {
      // Re-arm before dispatch (new seq, same slot) so a Cancel from inside
      // the callback stops the already-armed next firing, and so the next
      // firing orders after everything scheduled before this one fired.
      timer->next = HeapEntry{top.due + timer->period.ticks(), next_seq_++, top.slot};
      slot.fn();
    } else {
      // Invoke in place (deque slots never move), then recycle. Freeing
      // after the call keeps a self-Cancel inside the callback harmless.
      slot.fn();
      FreeSlot(top.slot);
    }
    return true;
  }
}

void Engine::RunUntil(SimTime until) {
  while (DispatchNext(until)) {
  }
  if (now_ < until) {
    now_ = until;
  }
  // Code that runs after RunUntil returns (session teardown between run
  // legs) executes outside any dispatched callback; anchor it at `until` so
  // the dispatch-due sequence stays nondecreasing.
  current_dispatch_due_ = until;
}

void Engine::RunAll() {
  while (DispatchNext(SimTime(INT64_MAX))) {
  }
}

}  // namespace ntrace
