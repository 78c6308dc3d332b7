#include "sim/event_queue.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace rdx::sim {

EventQueue::EventId EventQueue::ScheduleAt(SimTime at, Handler fn) {
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  const std::uint64_t seq = next_seq_++;
  const EventId id = (seq + 1) << 32 | slot;
  slots_[slot] = Slot{id, std::move(fn)};
  queue_.push(Event{std::max(at, now_), seq, id});
  ++live_events_;
  return id;
}

EventQueue::EventId EventQueue::ScheduleAfter(Duration delay, Handler fn) {
  return ScheduleAt(now_ + std::max<Duration>(delay, 0), std::move(fn));
}

EventQueue::Slot* EventQueue::PendingSlot(EventId id) {
  const std::uint64_t slot = id & 0xffffffffu;
  if (id == 0 || slot >= slots_.size() || slots_[slot].id != id) {
    return nullptr;
  }
  return &slots_[slot];
}

void EventQueue::Cancel(EventId id) {
  Slot* slot = PendingSlot(id);
  if (slot == nullptr) return;
  // Free the slot before the handler dies: destroying it may run
  // destructors that schedule or cancel events.
  Handler dead = std::move(slot->fn);
  slot->id = 0;
  free_slots_.push_back(static_cast<std::uint32_t>(id & 0xffffffffu));
  --live_events_;
}

// Pops cancelled entries off the top of the heap so that queue_.top() is
// always a live event (or the heap is empty).
void EventQueue::DiscardCancelledTop() {
  while (!queue_.empty() && PendingSlot(queue_.top().id) == nullptr) {
    queue_.pop();
  }
}

bool EventQueue::PopAndRun() {
  DiscardCancelledTop();
  if (queue_.empty()) return false;
  const Event ev = queue_.top();
  queue_.pop();
  assert(ev.at >= now_ && "event scheduled in the past");
  now_ = ev.at;
  Slot& slot = slots_[ev.id & 0xffffffffu];
  Handler fn = std::move(slot.fn);
  slot.id = 0;
  free_slots_.push_back(static_cast<std::uint32_t>(ev.id & 0xffffffffu));
  --live_events_;
  fn();
  return true;
}

std::uint64_t EventQueue::Run() {
  std::uint64_t n = 0;
  while (PopAndRun()) ++n;
  return n;
}

std::uint64_t EventQueue::RunUntil(SimTime until) {
  std::uint64_t n = 0;
  for (;;) {
    DiscardCancelledTop();
    if (queue_.empty() || queue_.top().at > until) break;
    if (PopAndRun()) ++n;
  }
  now_ = std::max(now_, until);
  return n;
}

bool EventQueue::Step() { return PopAndRun(); }

}  // namespace rdx::sim
