// Discrete-event simulation engine.
//
// The engine owns the simulated clock (100 ns ticks) and a priority queue of
// scheduled callbacks. Two time-advancing mechanisms coexist:
//
//   1. Scheduled events (Schedule / SchedulePeriodic): workload think times,
//      session arrivals, the cache manager's 1-second lazy-writer scan, the
//      trace agent's daily 4 AM snapshot.
//   2. Synchronous latency (AdvanceBy): an I/O call computes its service time
//      from the device model and bumps the clock as if the issuing thread had
//      blocked for it.
//
// Events whose due time was overtaken by an AdvanceBy fire as soon as control
// returns to Run(), at the advanced clock. This models one "foreground"
// thread of activity per callback with background activity interleaved at
// event granularity -- deliberately simpler than full thread scheduling (see
// DESIGN.md section 2): the paper's statistics are usage patterns, not device
// queueing, and the distortion is bounded by single-operation latencies
// (microseconds to milliseconds) against event periods of seconds.
//
// Memory discipline (DESIGN.md section 9): the dispatch loop is
// allocation-free in steady state. Callbacks live in InlineFunction slots
// (no std::function heap traffic), slots are recycled through a free list
// inside a chunked deque (stable addresses, so a callback can run in place
// while nested Schedule calls grow the pool), and the one-shot queue is a
// 4-ary implicit heap of 24-byte entries keyed (due, seq). Periodic events
// (the lazy writer's tick, the agent's daily snapshot: a handful per system)
// live in a small array beside the heap instead, so a re-arm is an in-place
// update rather than a pop and push through a heap that may hold a whole
// replay's pre-scheduled bursts. Dispatch takes the smaller (due, seq) of
// the heap top and the earliest timer, and both draw seq from one counter,
// so the total dispatch order is the same as one heap holding everything.
// Cancel is O(1): an EventId encodes (generation << 32 | slot), and a stale
// generation makes cancelling an already-fired one-shot a harmless no-op.

#ifndef SRC_SIM_ENGINE_H_
#define SRC_SIM_ENGINE_H_

#include <cassert>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "src/base/inline_function.h"
#include "src/base/time.h"

namespace ntrace {

// Identifies a scheduled event so it can be cancelled.
using EventId = uint64_t;

class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  SimTime Now() const { return now_; }

  // Schedule `fn` to run `delay` from now. Returns an id for Cancel().
  template <typename F>
  EventId Schedule(SimDuration delay, F&& fn) {
    assert(delay.ticks() >= 0);
    return PushEvent(now_ + delay, InlineFunction(std::forward<F>(fn)), SimDuration());
  }

  // Schedule `fn` at an absolute time (clamped to now if in the past).
  template <typename F>
  EventId ScheduleAt(SimTime when, F&& fn) {
    if (when < now_) {
      when = now_;
    }
    return PushEvent(when, InlineFunction(std::forward<F>(fn)), SimDuration());
  }

  // Schedule `fn` every `period`, first firing after `initial_delay`.
  // Cancelling the returned id stops future firings.
  template <typename F>
  EventId SchedulePeriodic(SimDuration initial_delay, SimDuration period, F&& fn) {
    assert(period.ticks() > 0);
    return PushEvent(now_ + initial_delay, InlineFunction(std::forward<F>(fn)), period);
  }

  // Cancel a pending (or periodic) event. Safe to call on already-fired
  // one-shot ids (no-op).
  void Cancel(EventId id);

  // Synchronously consume latency: advances the clock without dispatching
  // queued events (they fire when control returns to Run()).
  void AdvanceBy(SimDuration latency);

  // Run until the event queue is empty or the clock reaches `until`.
  // Events due at exactly `until` are executed.
  void RunUntil(SimTime until);

  // Run until the event queue is empty.
  void RunAll();

  // Number of events dispatched so far (for tests and sanity checks).
  uint64_t events_dispatched() const { return events_dispatched_; }

  // Due time of the event currently (or most recently) dispatched. While a
  // callback runs, this is the heap due it fired at -- the anchor from which
  // any synchronous AdvanceBy latency inside the callback is measured. After
  // RunUntil returns it is `until`, so code that runs between RunUntil calls
  // (e.g. end-of-session teardown) observes its own anchor rather than a
  // stale one. Dispatch order is nondecreasing in this value, which is what
  // lets the trace replayer reconstruct per-callback bursts from records.
  SimTime current_dispatch_due() const { return current_dispatch_due_; }

 private:
  static constexpr uint32_t kNoSlot = UINT32_MAX;

  // 24 bytes; the heap only shuffles these, never the callables.
  struct HeapEntry {
    int64_t due;
    uint64_t seq;  // Tie-break: FIFO among same-time events.
    uint32_t slot;
  };

  // A periodic event: its next firing and its period.
  struct Timer {
    HeapEntry next;
    SimDuration period;
  };

  struct EventSlot {
    EventId id = 0;  // 0 = free; otherwise (generation << 32) | index.
    uint32_t next_free = kNoSlot;
    bool cancelled = false;
    InlineFunction fn;
  };

  static bool HeapEntryLess(const HeapEntry& a, const HeapEntry& b) {
    return a.due != b.due ? a.due < b.due : a.seq < b.seq;
  }

  // A zero `period` schedules a one-shot onto the heap, a positive one a
  // periodic timer.
  EventId PushEvent(SimTime due, InlineFunction fn, SimDuration period);
  void FreeSlot(uint32_t index);
  void HeapPush(HeapEntry entry);
  void HeapPopRoot();
  bool DispatchNext(SimTime limit);

  SimTime now_;
  SimTime current_dispatch_due_;
  uint64_t next_seq_ = 0;
  uint64_t next_generation_ = 1;  // Keeps EventIds nonzero and unique.
  uint64_t events_dispatched_ = 0;
  std::vector<HeapEntry> heap_;  // One-shots: 4-ary implicit min-heap on (due, seq).
  // Periodic events, unordered (the earliest is found by a scan: there are
  // only a few). A cancelled timer stays until its next firing is reached,
  // as a cancelled one-shot stays in the heap.
  std::vector<Timer> timers_;
  // Chunked so slot addresses stay stable while a running callback
  // schedules new events; freed slots recycle through free_head_, so the
  // pool stops growing once the workload's peak in-flight count is reached.
  std::deque<EventSlot> slots_;
  uint32_t free_head_ = kNoSlot;
};

}  // namespace ntrace

#endif  // SRC_SIM_ENGINE_H_
