#include "sim/cpu.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <iterator>
#include <utility>

namespace rdx::sim {

namespace {
// Completion slop: tasks whose remaining demand falls below this many
// cycles are considered done, absorbing floating-point drift.
constexpr double kEpsilonCycles = 1e-3;
// Marks a slot_of_ value as a batch index rather than a slot.
constexpr std::uint32_t kBatchTag = 1u << 31;
}  // namespace

CpuScheduler::CpuScheduler(EventQueue& events, int cores, double hz)
    : events_(events), cores_(cores), hz_(hz) {
  assert(cores_ > 0 && hz_ > 0);
  last_update_ = events_.Now();
  created_at_ = events_.Now();
}

double CpuScheduler::PerTaskRate() const {
  if (remaining_.empty()) return 0.0;
  const double share =
      std::min(1.0, static_cast<double>(cores_) /
                        static_cast<double>(remaining_.size()));
  return hz_ * share / 1e9;  // cycles per nanosecond
}

void CpuScheduler::Settle() {
  const SimTime now = events_.Now();
  const double elapsed_ns = static_cast<double>(now - last_update_);
  if (elapsed_ns > 0 && !remaining_.empty()) {
    const double served = elapsed_ns * PerTaskRate();
    for (double& r : remaining_) r -= served;
    busy_core_ns_ +=
        elapsed_ns *
        std::min<double>(static_cast<double>(remaining_.size()), cores_);
  }
  last_update_ = now;
}

void CpuScheduler::Reschedule() {
  if (has_pending_event_) {
    events_.Cancel(pending_event_);
    has_pending_event_ = false;
  }
  if (remaining_.empty()) return;
  const double min_remaining = std::max(remaining_[min_slot_], 0.0);
  const double rate = PerTaskRate();
  const Duration dt =
      static_cast<Duration>(std::ceil(min_remaining / rate));
  pending_event_ = events_.ScheduleAfter(dt, [this] { OnCompletionEvent(); });
  has_pending_event_ = true;
}

void CpuScheduler::RemoveSlot(std::size_t slot) {
  const std::size_t last = remaining_.size() - 1;
  if (slot != last) {
    remaining_[slot] = remaining_[last];
    tasks_[slot] = std::move(tasks_[last]);
    slot_of_.find(tasks_[slot].id)->second = static_cast<std::uint32_t>(slot);
    if (min_slot_ == last) min_slot_ = slot;
  }
  remaining_.pop_back();
  tasks_.pop_back();
}

void CpuScheduler::RescanMin() {
  min_slot_ = 0;
  for (std::size_t i = 1; i < remaining_.size(); ++i) {
    if (remaining_[i] < remaining_[min_slot_]) min_slot_ = i;
  }
}

CpuScheduler::TaskId CpuScheduler::Submit(std::uint64_t cycles,
                                          Completion on_done) {
  Settle();
  const TaskId id = next_id_++;
  const std::size_t slot = remaining_.size();
  slot_of_.emplace(id, static_cast<std::uint32_t>(slot));
  remaining_.push_back(static_cast<double>(cycles));
  tasks_.push_back(Task{id, std::move(on_done)});
  if (remaining_[slot] < remaining_[min_slot_]) min_slot_ = slot;
  Reschedule();
  return id;
}

void CpuScheduler::Abort(TaskId id) {
  Settle();
  if (auto it = slot_of_.find(id); it != slot_of_.end()) {
    const std::size_t slot = it->second;
    slot_of_.erase(it);
    const bool was_min = slot == min_slot_;
    RemoveSlot(slot);
    if (was_min) RescanMin();
  }
  Reschedule();
}

void CpuScheduler::OnCompletionEvent() {
  has_pending_event_ = false;
  Settle();
  // One scan: the finished slots, in ascending order, and the survivors'
  // minimum.
  finished_.clear();
  min_slot_ = 0;
  bool have_min = false;
  for (std::size_t i = 0; i < remaining_.size(); ++i) {
    if (remaining_[i] <= kEpsilonCycles) {
      finished_.push_back(static_cast<std::uint32_t>(i));
    } else if (!have_min || remaining_[i] < remaining_[min_slot_]) {
      min_slot_ = i;
      have_min = true;
    }
  }
  // Completions may Submit() or run the queue re-entrantly, so they are
  // collected into a vector this call owns; done_ only lends its capacity.
  std::vector<Completion> done = std::move(done_);
  if (finished_.size() == 1) {
    Task& task = tasks_[finished_[0]];
    slot_of_.erase(task.id);
    done.push_back(std::move(task.on_done));
  } else if (finished_.size() > 1) {
    // A batch fires in slot_of_'s iteration order (see cpu.h). Each
    // finished entry is tagged with its batch index, then a walk forward
    // from each one stops at the next tagged entry. The walks cover
    // disjoint stretches, from the first finished entry to the end; in
    // kv_ebpf the finishers, the oldest tasks, sit at the end.
    const auto k = static_cast<std::uint32_t>(finished_.size());
    batch_.clear();
    for (std::uint32_t j = 0; j < k; ++j) {
      const auto it = slot_of_.find(tasks_[finished_[j]].id);
      it->second = kBatchTag | j;
      batch_.push_back({it, 0, false});
    }
    for (BatchEntry& entry : batch_) {
      auto it = std::next(entry.it);
      while (it != slot_of_.end() && (it->second & kBatchTag) == 0) ++it;
      if (it != slot_of_.end()) {
        entry.next = it->second & ~kBatchTag;
        batch_[entry.next].follows = true;
      }
    }
    std::uint32_t j = 0;
    while (batch_[j].follows) ++j;
    for (std::uint32_t n = 0; n < k; ++n, j = batch_[j].next) {
      done.push_back(std::move(tasks_[finished_[j]].on_done));
      slot_of_.erase(batch_[j].it);
    }
  }
  // Descending, so each swap-remove moves a survivor into the hole.
  for (auto slot = finished_.rbegin(); slot != finished_.rend(); ++slot) {
    RemoveSlot(*slot);
  }
  Reschedule();
  for (auto& fn : done) {
    if (fn) fn();
  }
  done.clear();
  done_ = std::move(done);
}

double CpuScheduler::Utilization() const {
  const SimTime now = events_.Now();
  const double span = static_cast<double>(now - created_at_);
  if (span <= 0) return 0.0;
  double busy = busy_core_ns_;
  // Include the in-flight interval since the last settle.
  const double elapsed = static_cast<double>(now - last_update_);
  if (elapsed > 0 && !remaining_.empty()) {
    busy += elapsed * std::min<double>(static_cast<double>(remaining_.size()),
                                       cores_);
  }
  return busy / (span * cores_);
}

}  // namespace rdx::sim
