// Processor-sharing CPU model. Each simulated node owns one CpuScheduler;
// work (request handling, agent verify/JIT, state polling) is submitted as
// a cycle demand and completes after a virtual-time interval that depends
// on how many tasks share the cores. This is what makes control-path /
// data-path contention (Fig 2c, the Redis experiment) emerge from the
// model instead of being hard-coded.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>

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
  TaskId Submit(std::uint64_t cycles, Completion on_done);

  // Aborts a running task; its completion never fires. Unknown/finished
  // ids are ignored.
  void Abort(TaskId id);

  int ActiveTasks() const { return static_cast<int>(tasks_.size()); }
  int cores() const { return cores_; }
  double hz() const { return hz_; }

  // Time-averaged fraction of core capacity in use since construction.
  double Utilization() const;

 private:
  struct Task {
    double remaining_cycles;
    Completion on_done;
  };

  // Applies service accrued since last_update_ to all active tasks.
  void Settle();
  // (Re)schedules the next completion event.
  void Reschedule();
  void OnCompletionEvent();

  double PerTaskRate() const;  // cycles per ns per task

  EventQueue& events_;
  const int cores_;
  const double hz_;

  std::unordered_map<TaskId, Task> tasks_;
  TaskId next_id_ = 1;
  SimTime last_update_ = 0;
  EventQueue::EventId pending_event_ = 0;
  bool has_pending_event_ = false;

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
