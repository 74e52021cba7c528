// Unit tests: src/sim (the discrete-event engine).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <functional>
#include <map>
#include <new>
#include <queue>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/base/rng.h"
#include "src/sim/engine.h"

// Counting global operator new: proves the engine's steady-state dispatch
// loop is allocation-free (DESIGN.md §9). Replacing the allocator in this TU
// affects the whole test binary, but only the EngineAllocation tests read
// the counter.
namespace {
std::atomic<size_t> g_alloc_count{0};

void* CountedAlloc(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace ntrace {
namespace {

TEST(Engine, EventsFireInTimeOrder) {
  Engine engine;
  std::vector<int> order;
  engine.Schedule(SimDuration::Seconds(3), [&] { order.push_back(3); });
  engine.Schedule(SimDuration::Seconds(1), [&] { order.push_back(1); });
  engine.Schedule(SimDuration::Seconds(2), [&] { order.push_back(2); });
  engine.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(engine.Now(), SimTime() + SimDuration::Seconds(3));
}

TEST(Engine, SameTimeEventsFifo) {
  Engine engine;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    engine.Schedule(SimDuration::Seconds(1), [&order, i] { order.push_back(i); });
  }
  engine.RunAll();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Engine, ScheduleAtClampsPast) {
  Engine engine;
  engine.AdvanceBy(SimDuration::Seconds(10));
  bool fired = false;
  engine.ScheduleAt(SimTime() + SimDuration::Seconds(5), [&] {
    fired = true;
  });
  engine.RunAll();
  EXPECT_TRUE(fired);
  EXPECT_EQ(engine.Now(), SimTime() + SimDuration::Seconds(10));
}

TEST(Engine, RunUntilStopsAtLimit) {
  Engine engine;
  int fired = 0;
  engine.Schedule(SimDuration::Seconds(1), [&] { ++fired; });
  engine.Schedule(SimDuration::Seconds(5), [&] { ++fired; });
  engine.RunUntil(SimTime() + SimDuration::Seconds(2));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(engine.Now(), SimTime() + SimDuration::Seconds(2));
  engine.RunAll();
  EXPECT_EQ(fired, 2);
}

TEST(Engine, RunUntilIncludesBoundary) {
  Engine engine;
  bool fired = false;
  engine.Schedule(SimDuration::Seconds(2), [&] { fired = true; });
  engine.RunUntil(SimTime() + SimDuration::Seconds(2));
  EXPECT_TRUE(fired);
}

TEST(Engine, CancelPreventsFiring) {
  Engine engine;
  bool fired = false;
  const EventId id = engine.Schedule(SimDuration::Seconds(1), [&] { fired = true; });
  engine.Cancel(id);
  engine.RunAll();
  EXPECT_FALSE(fired);
}

TEST(Engine, PeriodicFiresRepeatedlyUntilCancelled) {
  Engine engine;
  int count = 0;
  EventId id = 0;
  id = engine.SchedulePeriodic(SimDuration::Seconds(1), SimDuration::Seconds(1), [&] {
    if (++count == 5) {
      engine.Cancel(id);
    }
  });
  engine.RunUntil(SimTime() + SimDuration::Seconds(100));
  EXPECT_EQ(count, 5);
}

TEST(Engine, PeriodicCadenceIsExact) {
  Engine engine;
  std::vector<int64_t> times;
  const EventId id = engine.SchedulePeriodic(SimDuration::Seconds(2), SimDuration::Seconds(3),
                                             [&] { times.push_back(engine.Now().ticks()); });
  engine.RunUntil(SimTime() + SimDuration::Seconds(12));
  engine.Cancel(id);
  ASSERT_GE(times.size(), 3u);
  EXPECT_EQ(times[0], SimDuration::Seconds(2).ticks());
  EXPECT_EQ(times[1], SimDuration::Seconds(5).ticks());
  EXPECT_EQ(times[2], SimDuration::Seconds(8).ticks());
}

TEST(Engine, AdvanceByMovesClockWithoutDispatch) {
  Engine engine;
  bool fired = false;
  engine.Schedule(SimDuration::Seconds(1), [&] { fired = true; });
  engine.AdvanceBy(SimDuration::Seconds(5));
  EXPECT_FALSE(fired);  // Dispatch happens in Run*, not AdvanceBy.
  EXPECT_EQ(engine.Now(), SimTime() + SimDuration::Seconds(5));
  engine.RunAll();
  EXPECT_TRUE(fired);
  // The overtaken event fired at the advanced clock, not its due time.
  EXPECT_EQ(engine.Now(), SimTime() + SimDuration::Seconds(5));
}

TEST(Engine, CallbackAdvancingClockDelaysLaterEvents) {
  Engine engine;
  SimTime second_fire;
  engine.Schedule(SimDuration::Seconds(1), [&] {
    engine.AdvanceBy(SimDuration::Seconds(10));  // Synchronous latency.
  });
  engine.Schedule(SimDuration::Seconds(2), [&] { second_fire = engine.Now(); });
  engine.RunAll();
  // The second event was due at t=2 but could only run after the first
  // callback consumed 10 seconds.
  EXPECT_EQ(second_fire, SimTime() + SimDuration::Seconds(11));
}

TEST(Engine, NestedSchedulingWorks) {
  Engine engine;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 10) {
      engine.Schedule(SimDuration::Seconds(1), recurse);
    }
  };
  engine.Schedule(SimDuration::Seconds(1), recurse);
  engine.RunAll();
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(engine.Now(), SimTime() + SimDuration::Seconds(10));
}

TEST(Engine, DispatchCountTracks) {
  Engine engine;
  for (int i = 0; i < 7; ++i) {
    engine.Schedule(SimDuration::Seconds(i + 1), [] {});
  }
  engine.RunAll();
  EXPECT_EQ(engine.events_dispatched(), 7u);
}

TEST(Engine, CancelPeriodicMidStream) {
  Engine engine;
  int count = 0;
  const EventId id =
      engine.SchedulePeriodic(SimDuration::Seconds(1), SimDuration::Seconds(1), [&] { ++count; });
  engine.RunUntil(SimTime() + SimDuration::Seconds(3));
  engine.Cancel(id);
  engine.RunUntil(SimTime() + SimDuration::Seconds(10));
  EXPECT_EQ(count, 3);
}

// Periodic timers live beside the one-shot heap, so these pin that the
// merged dispatch order is still one total order on (due, seq): whatever
// was scheduled (or re-armed) first fires first among same-tick events.
TEST(EngineTimers, SameTickPeriodicAndOneShotsDispatchInSeqOrder) {
  Engine engine;
  std::vector<char> order;
  engine.Schedule(SimDuration::Seconds(1), [&] { order.push_back('A'); });
  const EventId p = engine.SchedulePeriodic(SimDuration::Seconds(1), SimDuration::Seconds(1), [&] {
    order.push_back('P');
    if (engine.Now() == SimTime() + SimDuration::Seconds(1)) {
      // Scheduled after P re-armed for t=2, so it fires after P there.
      engine.Schedule(SimDuration::Seconds(1), [&] { order.push_back('D'); });
    }
  });
  engine.Schedule(SimDuration::Seconds(1), [&] { order.push_back('B'); });
  // Scheduled before P's first firing re-armed it: fires before P at t=2.
  engine.Schedule(SimDuration::Seconds(2), [&] { order.push_back('C'); });
  engine.RunUntil(SimTime() + SimDuration::Seconds(2));
  engine.Cancel(p);
  EXPECT_EQ(order, (std::vector<char>{'A', 'P', 'B', 'C', 'P', 'D'}));
  EXPECT_EQ(engine.events_dispatched(), 6u);
}

TEST(EngineTimers, PeriodicPushedFirstFiresFirst) {
  Engine engine;
  std::vector<char> order;
  const EventId p = engine.SchedulePeriodic(SimDuration::Seconds(1), SimDuration::Seconds(1),
                                            [&] { order.push_back('P'); });
  engine.Schedule(SimDuration::Seconds(1), [&] { order.push_back('A'); });
  engine.RunUntil(SimTime() + SimDuration::Seconds(1));
  engine.Cancel(p);
  EXPECT_EQ(order, (std::vector<char>{'P', 'A'}));
  EXPECT_EQ(engine.current_dispatch_due(), SimTime() + SimDuration::Seconds(1));
}

TEST(EngineTimers, CancelFromAnotherEventStopsPeriodic) {
  Engine engine;
  std::vector<int64_t> fired;
  const EventId p = engine.SchedulePeriodic(SimDuration::Seconds(1), SimDuration::Seconds(1),
                                            [&] { fired.push_back(engine.Now().ticks()); });
  // Due at t=3 and scheduled before P's third re-arm, so it runs first at
  // that tick and P never fires there.
  engine.Schedule(SimDuration::Seconds(3), [&] { engine.Cancel(p); });
  engine.RunUntil(SimTime() + SimDuration::Seconds(10));
  const int64_t s = SimDuration::Seconds(1).ticks();
  EXPECT_EQ(fired, (std::vector<int64_t>{s, 2 * s}));
  EXPECT_EQ(engine.events_dispatched(), 3u);
  // The cancelled timer's slot is recycled; its stale id cannot touch the
  // timer that reuses it.
  int count = 0;
  engine.SchedulePeriodic(SimDuration::Seconds(1), SimDuration::Seconds(1), [&] { ++count; });
  engine.Cancel(p);
  engine.RunUntil(SimTime() + SimDuration::Seconds(13));
  EXPECT_EQ(count, 3);
}

TEST(EngineTimers, CancelFromOwnCallbackStopsPeriodic) {
  Engine engine;
  int count = 0;
  EventId p = 0;
  p = engine.SchedulePeriodic(SimDuration::Seconds(1), SimDuration::Seconds(2), [&] {
    if (++count == 2) {
      engine.Cancel(p);
    }
  });
  engine.Schedule(SimDuration::Seconds(20), [] {});
  engine.RunAll();  // Terminates: the cancelled timer leaves the queue.
  EXPECT_EQ(count, 2);
  EXPECT_EQ(engine.events_dispatched(), 3u);
  EXPECT_EQ(engine.Now(), SimTime() + SimDuration::Seconds(20));
}

TEST(EngineTimers, EqualPeriodTimersInterleave) {
  Engine engine;
  std::string labels;
  std::vector<int64_t> times;
  auto log = [&](char c) {
    labels.push_back(c);
    times.push_back(engine.Now().ticks());
  };
  const EventId a = engine.SchedulePeriodic(SimDuration::Seconds(1), SimDuration::Seconds(1),
                                            [&] { log('a'); });
  const EventId b = engine.SchedulePeriodic(SimDuration::Seconds(1), SimDuration::Seconds(1),
                                            [&] { log('b'); });
  const EventId c = engine.SchedulePeriodic(SimDuration::Millis(1500), SimDuration::Seconds(1),
                                            [&] { log('c'); });
  engine.RunUntil(SimTime() + SimDuration::Seconds(3));
  engine.Cancel(a);
  engine.Cancel(b);
  engine.Cancel(c);
  const int64_t s = SimDuration::Seconds(1).ticks();
  const int64_t h = s / 2;
  EXPECT_EQ(labels, "abcabcab");
  EXPECT_EQ(times, (std::vector<int64_t>{s, s, s + h, 2 * s, 2 * s, 2 * s + h, 3 * s, 3 * s}));
}

// Reference engine: every event, periodic or not, in one binary heap on
// (due, seq), as the engine worked before timers moved off the heap.
class HeapOnlyEngine {
 public:
  int64_t Now() const { return now_; }
  uint64_t events_dispatched() const { return dispatched_; }

  uint64_t Schedule(int64_t delay, std::function<void()> fn) {
    return Push(now_ + delay, 0, std::move(fn));
  }
  uint64_t SchedulePeriodic(int64_t initial, int64_t period, std::function<void()> fn) {
    return Push(now_ + initial, period, std::move(fn));
  }
  void Cancel(uint64_t id) {
    auto it = events_.find(id);
    if (it != events_.end()) {
      it->second.cancelled = true;
    }
  }
  void AdvanceBy(int64_t ticks) { now_ += ticks; }
  void RunUntil(int64_t until) {
    while (!heap_.empty() && std::get<0>(heap_.top()) <= until) {
      [[maybe_unused]] const auto [due, seq, id] = heap_.top();
      heap_.pop();
      Event& ev = events_.at(id);
      if (ev.cancelled) {
        events_.erase(id);
        continue;
      }
      now_ = std::max(now_, due);
      ++dispatched_;
      if (ev.period > 0) {
        heap_.emplace(due + ev.period, next_seq_++, id);
        ev.fn();
      } else {
        ev.fn();
        events_.erase(id);
      }
    }
    now_ = std::max(now_, until);
  }

 private:
  struct Event {
    std::function<void()> fn;
    int64_t period = 0;
    bool cancelled = false;
  };
  using Entry = std::tuple<int64_t, uint64_t, uint64_t>;  // (due, seq, id)

  uint64_t Push(int64_t due, int64_t period, std::function<void()> fn) {
    const uint64_t id = next_id_++;
    events_[id] = Event{std::move(fn), period, false};
    heap_.emplace(due, next_seq_++, id);
    return id;
  }

  int64_t now_ = 0;
  uint64_t dispatched_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t next_id_ = 1;
  std::map<uint64_t, Event> events_;  // Node-based: entries stay put while fn runs.
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap_;
};

// Adapts Engine to HeapOnlyEngine's tick-based interface.
struct EngineTicks {
  Engine engine;
  int64_t Now() const { return engine.Now().ticks(); }
  uint64_t events_dispatched() const { return engine.events_dispatched(); }
  uint64_t Schedule(int64_t delay, std::function<void()> fn) {
    return engine.Schedule(SimDuration::Ticks(delay), std::move(fn));
  }
  uint64_t SchedulePeriodic(int64_t initial, int64_t period, std::function<void()> fn) {
    return engine.SchedulePeriodic(SimDuration::Ticks(initial), SimDuration::Ticks(period),
                                   std::move(fn));
  }
  void Cancel(uint64_t id) { engine.Cancel(id); }
  void AdvanceBy(int64_t ticks) { engine.AdvanceBy(SimDuration::Ticks(ticks)); }
  void RunUntil(int64_t until) { engine.RunUntil(SimTime(until)); }
};

// A seeded random workload: callbacks schedule one-shots on a coarse grid
// (so many land on the same tick as a timer), consume latency, start new
// periodic timers and cancel earlier events of either kind. Returns the
// dispatch log as (label, clock) pairs. Labels and draws follow dispatch
// order, so two engines agree only if they dispatch in the same order.
template <typename E>
std::vector<std::pair<int, int64_t>> RunRandomSchedule(E& e, uint64_t seed) {
  constexpr int64_t kQuantum = 2500000;  // 0.25 s.
  Rng rng(seed);
  std::vector<std::pair<int, int64_t>> log;
  std::vector<uint64_t> ids;
  int next_label = 0;
  std::function<void(int)> fire = [&](int label) {
    log.emplace_back(label, e.Now());
    if (log.size() > 20000) {
      return;
    }
    const int64_t roll = rng.UniformInt(0, 99);
    if (roll < 55) {
      for (int64_t n = rng.UniformInt(1, 2); n > 0; --n) {
        const int l = next_label++;
        ids.push_back(e.Schedule(kQuantum * rng.UniformInt(0, 8), [&fire, l] { fire(l); }));
      }
    } else if (roll < 65) {
      e.AdvanceBy(rng.UniformInt(1, kQuantum));
    } else if (roll < 70) {
      const int l = next_label++;
      ids.push_back(e.SchedulePeriodic(kQuantum * rng.UniformInt(0, 4),
                                       kQuantum * rng.UniformInt(1, 4), [&fire, l] { fire(l); }));
    } else if (roll < 85 && !ids.empty()) {
      e.Cancel(ids[static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(ids.size()) - 1))]);
    }
  };
  // Two standing timers, as a simulated machine has (lazy writer, daily
  // snapshot), plus a burst of pre-scheduled one-shots.
  for (int64_t period : {4 * kQuantum, 7 * kQuantum}) {
    const int l = next_label++;
    ids.push_back(e.SchedulePeriodic(period, period, [&fire, l] { fire(l); }));
  }
  for (int i = 0; i < 40; ++i) {
    const int l = next_label++;
    ids.push_back(e.Schedule(kQuantum * rng.UniformInt(0, 40), [&fire, l] { fire(l); }));
  }
  for (int leg = 1; leg <= 40; ++leg) {
    e.RunUntil(leg * 2 * kQuantum);
  }
  return log;
}

class EngineReferenceParityTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EngineReferenceParityTest, DispatchMatchesHeapOnlyEngine) {
  HeapOnlyEngine reference;
  EngineTicks engine;
  const auto expected = RunRandomSchedule(reference, GetParam());
  const auto actual = RunRandomSchedule(engine, GetParam());
  ASSERT_GT(expected.size(), 100u);
  EXPECT_EQ(actual, expected);
  EXPECT_EQ(engine.events_dispatched(), reference.events_dispatched());
  EXPECT_EQ(engine.Now(), reference.Now());
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineReferenceParityTest, ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(EngineAllocation, SteadyStateScheduleCancelDispatchIsAllocationFree) {
  Engine engine;
  uint64_t fired = 0;

  // Warm-up: grow the slot pool and heap array past anything the steady
  // state needs, then drain. Allocations here are expected and ignored.
  for (int i = 0; i < 512; ++i) {
    engine.Schedule(SimDuration::Micros(i + 1), [&] { ++fired; });
  }
  const EventId periodic = engine.SchedulePeriodic(
      SimDuration::Micros(50), SimDuration::Micros(50), [&] { ++fired; });
  engine.RunUntil(SimTime() + SimDuration::Millis(1));

  // Steady state: one-shot churn, cancellations, periodic re-arms and clock
  // advances must recycle pooled slots and heap capacity -- zero heap
  // allocations across the whole loop.
  const size_t allocs_before = g_alloc_count.load(std::memory_order_relaxed);
  const uint64_t fired_before = fired;
  for (int round = 0; round < 10000; ++round) {
    const EventId doomed = engine.Schedule(SimDuration::Micros(10), [&] { ++fired; });
    engine.Schedule(SimDuration::Micros(5), [&] { ++fired; });
    engine.ScheduleAt(engine.Now() + SimDuration::Micros(7), [&] { ++fired; });
    engine.Cancel(doomed);
    engine.AdvanceBy(SimDuration::Micros(3));
    engine.RunUntil(engine.Now() + SimDuration::Micros(20));
  }
  const size_t allocs_after = g_alloc_count.load(std::memory_order_relaxed);

  EXPECT_EQ(allocs_after, allocs_before) << "engine hot path allocated on the heap";
  EXPECT_GT(fired, fired_before);  // The loop really dispatched events.
  engine.Cancel(periodic);
}

}  // namespace
}  // namespace ntrace
