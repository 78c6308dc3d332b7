// Differential test of the dense sim::CpuScheduler against MapCpuScheduler,
// the std::unordered_map scheduler it replaced, kept here only as the
// oracle. Seeded random traces drive both the same way: cohorts of equal
// demands submitted at one ns, resubmits and aborts from completion
// callbacks (live tasks, unknown ids, and peers that finished in the
// same event), on 1, 2 and 24 cores. Every completion's ns, id and
// position within its event, ActiveTasks() and Utilization() at that
// moment, and the number of events run must be identical. Completion
// events share timestamps with the trace's own events, so a different
// Cancel/ScheduleAfter sequence shows up as a different FIFO tie order.
#include <gtest/gtest.h>

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "sim/cpu.h"
#include "sim/event_queue.h"

namespace rdx::sim {
namespace {

// The map-based processor-sharing scheduler, as it stood before the dense
// rewrite: every Settle, Reschedule and completion walks the map.
class MapCpuScheduler {
 public:
  using TaskId = std::uint64_t;
  using Completion = std::function<void()>;

  MapCpuScheduler(EventQueue& events, int cores, double hz)
      : events_(events), cores_(cores), hz_(hz) {
    assert(cores_ > 0 && hz_ > 0);
    last_update_ = events_.Now();
    created_at_ = events_.Now();
  }

  TaskId Submit(std::uint64_t cycles, Completion on_done) {
    Settle();
    const TaskId id = next_id_++;
    tasks_.emplace(id,
                   Task{static_cast<double>(cycles), std::move(on_done)});
    Reschedule();
    return id;
  }

  void Abort(TaskId id) {
    Settle();
    tasks_.erase(id);
    Reschedule();
  }

  int ActiveTasks() const { return static_cast<int>(tasks_.size()); }

  double Utilization() const {
    const SimTime now = events_.Now();
    const double span = static_cast<double>(now - created_at_);
    if (span <= 0) return 0.0;
    double busy = busy_core_ns_;
    const double elapsed = static_cast<double>(now - last_update_);
    if (elapsed > 0 && !tasks_.empty()) {
      busy += elapsed * std::min<double>(static_cast<double>(tasks_.size()),
                                         cores_);
    }
    return busy / (span * cores_);
  }

 private:
  static constexpr double kEpsilonCycles = 1e-3;

  struct Task {
    double remaining_cycles;
    Completion on_done;
  };

  double PerTaskRate() const {
    if (tasks_.empty()) return 0.0;
    const double share =
        std::min(1.0, static_cast<double>(cores_) /
                          static_cast<double>(tasks_.size()));
    return hz_ * share / 1e9;
  }

  void Settle() {
    const SimTime now = events_.Now();
    const double elapsed_ns = static_cast<double>(now - last_update_);
    if (elapsed_ns > 0 && !tasks_.empty()) {
      const double served = elapsed_ns * PerTaskRate();
      for (auto& [id, task] : tasks_) task.remaining_cycles -= served;
      busy_core_ns_ +=
          elapsed_ns *
          std::min<double>(static_cast<double>(tasks_.size()), cores_);
    }
    last_update_ = now;
  }

  void Reschedule() {
    if (has_pending_event_) {
      events_.Cancel(pending_event_);
      has_pending_event_ = false;
    }
    if (tasks_.empty()) return;
    double min_remaining = 0.0;
    bool first = true;
    for (const auto& [id, task] : tasks_) {
      if (first || task.remaining_cycles < min_remaining) {
        min_remaining = task.remaining_cycles;
        first = false;
      }
    }
    min_remaining = std::max(min_remaining, 0.0);
    const double rate = PerTaskRate();
    const Duration dt =
        static_cast<Duration>(std::ceil(min_remaining / rate));
    pending_event_ =
        events_.ScheduleAfter(dt, [this] { OnCompletionEvent(); });
    has_pending_event_ = true;
  }

  void OnCompletionEvent() {
    has_pending_event_ = false;
    Settle();
    std::vector<Completion> done;
    for (auto it = tasks_.begin(); it != tasks_.end();) {
      if (it->second.remaining_cycles <= kEpsilonCycles) {
        done.push_back(std::move(it->second.on_done));
        it = tasks_.erase(it);
      } else {
        ++it;
      }
    }
    Reschedule();
    for (auto& fn : done) {
      if (fn) fn();
    }
  }

  EventQueue& events_;
  const int cores_;
  const double hz_;
  std::unordered_map<TaskId, Task> tasks_;
  TaskId next_id_ = 1;
  SimTime last_update_ = 0;
  EventQueue::EventId pending_event_ = 0;
  bool has_pending_event_ = false;
  double busy_core_ns_ = 0.0;
  SimTime created_at_ = 0;
};

// One completion callback as the trace saw it.
struct Fired {
  SimTime at;
  std::uint64_t id;
  int batch_pos;  // callbacks before it at the same ns
  int active;
  double utilization;
  bool operator==(const Fired&) const = default;
};

struct TraceResult {
  std::vector<Fired> fired;
  std::uint64_t events = 0;
  double final_utilization = 0;
  // Coverage counters, so a trace that stopped exercising a case fails.
  int batches = 0;          // ns with >= 2 completions
  int peer_aborts = 0;      // aborts of a peer that fired at the same ns
  int unknown_aborts = 0;
  int live_aborts = 0;
};

constexpr int kMaxTasks = 128;

// Cycle demands: small round ones collide often; the odd ones, scaled to
// the core's capacity so the load stays near it, drift.
std::uint64_t PickCycles(Rng& rng, double capacity_ghz) {
  static constexpr std::uint64_t kRound[] = {100, 250, 1000, 3400};
  if (rng.NextBool(0.3)) return kRound[rng.NextBounded(4)];
  return 1 + rng.NextBounded(static_cast<std::uint64_t>(600 * capacity_ghz));
}

template <class Cpu>
class Trace {
 public:
  Trace(std::uint64_t seed, int cores, double hz)
      : rng_(seed), cpu_(events_, cores, hz), capacity_ghz_(cores * hz / 1e9) {}

  TraceResult Run(SimTime horizon) {
    horizon_ = horizon;
    events_.ScheduleAt(0, [this] { Arrive(); });
    out_.events = events_.Run();
    out_.final_utilization = cpu_.Utilization();
    return out_;
  }

 private:
  void Submit(std::uint64_t cycles) {
    if (cpu_.ActiveTasks() >= kMaxTasks) return;
    const std::uint64_t id = cpu_.Submit(cycles, [this, slot = live_.size()] {
      OnDone(slot);
    });
    live_.push_back(id);
  }

  void SubmitCohort(std::uint64_t max_size) {
    const std::uint64_t cycles = PickCycles(rng_, capacity_ghz_);
    const std::uint64_t n = 1 + rng_.NextBounded(max_size);
    for (std::uint64_t i = 0; i < n; ++i) Submit(cycles);
  }

  // Aborts a random task ever submitted (running or not), or an id the
  // scheduler never issued.
  void AbortSomething() {
    if (!live_.empty() && rng_.NextBool(0.8)) {
      cpu_.Abort(live_[rng_.NextBounded(live_.size())]);
      ++out_.live_aborts;
    } else {
      cpu_.Abort(1'000'000 + rng_.NextBounded(1000));
      ++out_.unknown_aborts;
    }
  }

  // A trace event. Half its gaps are on a coarse grid, so that it often
  // shares its ns with a completion event.
  void Arrive() {
    SubmitCohort(rng_.NextBool(0.5) ? 8 : 1);
    const SimTime next =
        events_.Now() + (rng_.NextBool(0.5) ? 50 * rng_.NextBounded(40)
                                            : 1 + rng_.NextBounded(2000));
    if (next < horizon_) events_.ScheduleAt(next, [this] { Arrive(); });
    // Only now, so that the abort's reschedule moves a completion event
    // behind the arrival just queued; if they share a ns, they swap.
    if (rng_.NextBool(0.2)) AbortSomething();
  }

  void OnDone(std::size_t slot) {
    const SimTime now = events_.Now();
    if (now != batch_at_) {
      batch_at_ = now;
      batch_.clear();
    }
    if (batch_.size() == 1) ++out_.batches;
    out_.fired.push_back({now, live_[slot], static_cast<int>(batch_.size()),
                          cpu_.ActiveTasks(), cpu_.Utilization()});
    batch_.push_back(live_[slot]);
    if (batch_.size() >= 2 && rng_.NextBool(0.3)) {
      // Already finished, so ignored; it must not disturb the others.
      cpu_.Abort(batch_[rng_.NextBounded(batch_.size() - 1)]);
      ++out_.peer_aborts;
    }
    if (rng_.NextBool(0.1)) AbortSomething();
    if (now < horizon_ && rng_.NextBool(0.7)) SubmitCohort(2);
  }

  Rng rng_;
  EventQueue events_;
  Cpu cpu_;
  const double capacity_ghz_;
  SimTime horizon_ = 0;
  std::vector<std::uint64_t> live_;  // every id submitted, by submit order
  SimTime batch_at_ = -1;
  std::vector<std::uint64_t> batch_;  // ids fired at batch_at_
  TraceResult out_;
};

struct Shape {
  int cores;
  double hz;
};

void PrintTo(const Shape& shape, std::ostream* os) {
  *os << shape.cores << " cores at " << shape.hz << " Hz";
}

class CpuDiff : public ::testing::TestWithParam<Shape> {};

TEST_P(CpuDiff, MatchesMapSchedulerOnRandomTraces) {
  const Shape shape = GetParam();
  TraceResult total;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    const SimTime horizon = 100'000;
    const TraceResult want =
        Trace<MapCpuScheduler>(seed, shape.cores, shape.hz).Run(horizon);
    const TraceResult got =
        Trace<CpuScheduler>(seed, shape.cores, shape.hz).Run(horizon);
    ASSERT_EQ(got.fired.size(), want.fired.size()) << "seed " << seed;
    for (std::size_t i = 0; i < want.fired.size(); ++i) {
      const Fired& w = want.fired[i];
      const Fired& g = got.fired[i];
      ASSERT_TRUE(g == w)
          << "seed " << seed << ", completion " << i << ": want id " << w.id
          << " at " << w.at << " (pos " << w.batch_pos << ", active "
          << w.active << "), got id " << g.id << " at " << g.at << " (pos "
          << g.batch_pos << ", active " << g.active << ")";
    }
    EXPECT_EQ(got.events, want.events) << "seed " << seed;
    EXPECT_EQ(got.final_utilization, want.final_utilization)
        << "seed " << seed;
    total.fired.insert(total.fired.end(), want.fired.begin(),
                       want.fired.end());
    total.batches += want.batches;
    total.peer_aborts += want.peer_aborts;
    total.unknown_aborts += want.unknown_aborts;
    total.live_aborts += want.live_aborts;
  }
  // The traces reach the cases the comparison is about.
  EXPECT_GT(total.fired.size(), 1000u);
  EXPECT_GT(total.batches, 50);
  EXPECT_GT(total.peer_aborts, 10);
  EXPECT_GT(total.unknown_aborts, 10);
  EXPECT_GT(total.live_aborts, 10);
  const auto busiest = std::max_element(
      total.fired.begin(), total.fired.end(),
      [](const Fired& a, const Fired& b) { return a.active < b.active; });
  EXPECT_GE(busiest->active, shape.cores);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CpuDiff,
    ::testing::Values(Shape{1, 1e9}, Shape{1, 3.4e9}, Shape{2, 1e9},
                      Shape{2, 3.4e9}, Shape{24, 1e9}, Shape{24, 3.4e9}),
    [](const ::testing::TestParamInfo<Shape>& info) {
      return std::to_string(info.param.cores) + "core" +
             (info.param.hz == 1e9 ? "_1GHz" : "_3_4GHz");
    });

}  // namespace
}  // namespace rdx::sim
