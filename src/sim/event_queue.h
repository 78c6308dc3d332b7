// Discrete-event engine. Single-threaded: events fire in (time, insertion
// order) sequence, and handlers may schedule further events. This is the
// backbone every other simulated component (RNIC DMA engine, CPU
// scheduler, workload generators) hangs off.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <optional>
#include <queue>
#include <type_traits>
#include <vector>

#include "sim/task.h"
#include "sim/time.h"

namespace rdx::sim {

class EventQueue {
 public:
  using Handler = std::function<void()>;
  using EventId = std::uint64_t;

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  SimTime Now() const { return now_; }

  // Schedules `fn` to run at absolute time `at` (clamped to Now()).
  // Returns an id usable with Cancel().
  EventId ScheduleAt(SimTime at, Handler fn);

  // Schedules `fn` to run `delay` ns from now.
  EventId ScheduleAfter(Duration delay, Handler fn);

  // Cancels a pending event and destroys its handler. Cancelling an
  // already-fired or unknown id is a no-op. O(1).
  void Cancel(EventId id);

  // Runs events until the queue drains. Returns the number of events run.
  std::uint64_t Run();

  // Runs events with fire time <= `until`, then sets Now() to `until` if
  // the simulation reached it without running dry first.
  std::uint64_t RunUntil(SimTime until);

  // Runs at most one event. Returns false if the queue was empty.
  bool Step();

  bool Empty() const { return live_events_ == 0; }

 private:
  // Heap entries are small and ordered by (time, seq); handlers live in
  // `slots_`. An id names its slot in the low 32 bits and its issue order
  // in the high ones, so an id is pending exactly while its slot still
  // holds it; a heap entry whose slot moved on was cancelled.
  struct Event {
    SimTime at;
    std::uint64_t seq;
    EventId id;
    bool operator>(const Event& other) const {
      if (at != other.at) return at > other.at;
      return seq > other.seq;
    }
  };
  struct Slot {
    EventId id = 0;  // 0: free
    Handler fn;
  };

  // The slot that holds `id`, or nullptr if `id` is not pending.
  Slot* PendingSlot(EventId id);
  bool PopAndRun();
  void DiscardCancelledTop();

  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::size_t live_events_ = 0;
};

// Awaitable timer: resumes the awaiting coroutine `delay` ns from now.
inline auto Sleep(EventQueue& events, Duration delay) {
  return Await<void>([&events, delay](auto done) {
    events.ScheduleAfter(delay, std::move(done));
  });
}

// Drives `task` from code that is not a coroutine: starts it, steps the
// queue until it finishes and returns its result. Events still pending
// then (a flush, a poller's next tick) stay queued. A task the queue
// drains under can never finish: that aborts.
template <class T>
T RunToCompletion(EventQueue& events, Task<T> task) {
  std::optional<std::conditional_t<std::is_void_v<T>, bool, T>> result;
  if constexpr (std::is_void_v<T>) {
    Start(std::move(task), [&result] { result.emplace(true); });
  } else {
    Start(std::move(task),
          [&result](T value) { result.emplace(std::move(value)); });
  }
  while (!result.has_value()) {
    if (!events.Step()) {
      std::fprintf(stderr,
                   "RunToCompletion: the event queue drained before the "
                   "task finished\n");
      std::abort();
    }
  }
  if constexpr (!std::is_void_v<T>) return std::move(*result);
}

}  // namespace rdx::sim
