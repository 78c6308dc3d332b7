// Processor-sharing CPU model. Each simulated node owns one CpuScheduler;
// work (request handling, agent verify/JIT, state polling) is submitted as
// a cycle demand and completes after a virtual-time interval that depends
// on how many tasks share the cores. This is what makes control-path /
// data-path contention (Fig 2c, the Redis experiment) emerge from the
// model instead of being hard-coded.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "sim/event_queue.h"
#include "sim/time.h"

namespace rdx::sim {

class CpuScheduler {
 public:
  using TaskId = std::uint64_t;
  using Completion = std::function<void()>;

  // `cores` hardware threads, each retiring `hz` cycles per second when
  // not oversubscribed.
  CpuScheduler(EventQueue& events, int cores, double hz);
  CpuScheduler(const CpuScheduler&) = delete;
  CpuScheduler& operator=(const CpuScheduler&) = delete;

  // Submits a task needing `cycles` cycles; `on_done` fires (via the event
  // queue) when it has received that much service. Egalitarian processor
  // sharing: with A active tasks, each runs at hz * min(1, cores/A).
  // Tasks that finish in the same event fire one after another, in the
  // order described at `slot_of_`.
  TaskId Submit(std::uint64_t cycles, Completion on_done);

  // Aborts a running task; its completion never fires. Unknown/finished
  // ids are ignored. A task counts as finished from the event in which
  // it completes, so a completion that aborts a peer of its own batch
  // changes nothing: the peer's completion still fires.
  void Abort(TaskId id);

  int ActiveTasks() const { return static_cast<int>(remaining_.size()); }
  int cores() const { return cores_; }
  double hz() const { return hz_; }

  // Time-averaged fraction of core capacity in use since construction.
  double Utilization() const;

 private:
  struct Task {
    TaskId id;
    Completion on_done;
  };

  // Applies service accrued since last_update_ to all active tasks.
  void Settle();
  // (Re)schedules the next completion event.
  void Reschedule();
  void OnCompletionEvent();
  // Swap-removes slot `slot` from the dense arrays, keeping slot_of_ and
  // min_slot_ pointing at the moved task.
  void RemoveSlot(std::size_t slot);
  // Points min_slot_ at the least remaining demand (0 when idle).
  void RescanMin();

  double PerTaskRate() const;  // cycles per ns per task

  EventQueue& events_;
  const int cores_;
  const double hz_;

  // Active tasks, dense and in no particular order: slot i is
  // remaining_[i] + tasks_[i]. Settle is one contiguous pass over
  // remaining_.
  std::vector<double> remaining_;
  std::vector<Task> tasks_;
  // Slot of the least remaining demand. Every task is served the same
  // `served` per settle and float subtraction rounds monotonically, so a
  // settle never changes which slot holds the minimum: only completions
  // and aborts of the minimum rescan.
  std::size_t min_slot_ = 0;
  // Task id -> slot. When several tasks finish in one event, they fire in
  // this map's iteration order, which depends on the exact sequence of
  // emplace/erase calls (one emplace per Submit, one erase per completion
  // or abort, never a reserve). That order is implementation-defined:
  // another standard library may give another one, and model results
  // depend on it. A hash map exists here only to reproduce that order,
  // until ROADMAP item 10 defines a same-event order.
  using SlotMap = std::unordered_map<TaskId, std::uint32_t>;
  SlotMap slot_of_;
  TaskId next_id_ = 1;
  SimTime last_update_ = 0;
  EventQueue::EventId pending_event_ = 0;
  bool has_pending_event_ = false;

  // OnCompletionEvent scratch, kept to avoid per-event allocation.
  struct BatchEntry {
    SlotMap::iterator it;
    std::uint32_t next;  // batch index of the next finisher in map order
    bool follows;        // another finisher precedes this one
  };
  std::vector<std::uint32_t> finished_;
  std::vector<BatchEntry> batch_;
  std::vector<Completion> done_;

  // Busy integral for Utilization(): sum over time of min(active, cores).
  double busy_core_ns_ = 0.0;
  SimTime created_at_ = 0;
};

// Awaitable CPU charge: resumes the awaiting coroutine once `cycles` of
// service on `cpu` completed.
inline auto Charge(CpuScheduler& cpu, std::uint64_t cycles) {
  return Await<void>(
      [&cpu, cycles](auto done) { cpu.Submit(cycles, std::move(done)); });
}

}  // namespace rdx::sim
