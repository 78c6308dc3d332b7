// Unit tests for the simulation substrate: event queue semantics,
// processor-sharing CPU model, cache-coherence model, link model.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/cache.h"
#include "sim/cost_model.h"
#include "sim/cpu.h"
#include "sim/event_queue.h"
#include "sim/network.h"
#include "sim/task.h"

namespace rdx::sim {
namespace {

// ---- EventQueue ----

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.ScheduleAt(30, [&] { order.push_back(3); });
  q.ScheduleAt(10, [&] { order.push_back(1); });
  q.ScheduleAt(20, [&] { order.push_back(2); });
  EXPECT_EQ(q.Run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.Now(), 30);
}

TEST(EventQueue, FifoAtSameTimestamp) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.ScheduleAt(5, [&order, i] { order.push_back(i); });
  }
  q.Run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, HandlersCanScheduleMore) {
  EventQueue q;
  int fired = 0;
  q.ScheduleAt(1, [&] {
    ++fired;
    q.ScheduleAfter(5, [&] { ++fired; });
  });
  q.Run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(q.Now(), 6);
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool ran = false;
  auto id = q.ScheduleAt(10, [&] { ran = true; });
  q.Cancel(id);
  EXPECT_EQ(q.Run(), 0u);
  EXPECT_FALSE(ran);
  EXPECT_TRUE(q.Empty());
}

TEST(EventQueue, CancelOneOfMany) {
  EventQueue q;
  std::vector<int> order;
  q.ScheduleAt(1, [&] { order.push_back(1); });
  auto id = q.ScheduleAt(2, [&] { order.push_back(2); });
  q.ScheduleAt(3, [&] { order.push_back(3); });
  q.Cancel(id);
  q.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueue, RunUntilStopsAtBoundary) {
  EventQueue q;
  int fired = 0;
  q.ScheduleAt(10, [&] { ++fired; });
  q.ScheduleAt(20, [&] { ++fired; });
  q.ScheduleAt(30, [&] { ++fired; });
  EXPECT_EQ(q.RunUntil(20), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(q.Now(), 20);
  q.Run();
  EXPECT_EQ(fired, 3);
}

TEST(EventQueue, RunUntilAdvancesTimeWhenIdle) {
  EventQueue q;
  q.RunUntil(12345);
  EXPECT_EQ(q.Now(), 12345);
}

TEST(EventQueue, RunUntilSkipsCancelledHead) {
  EventQueue q;
  bool late_ran = false;
  auto id = q.ScheduleAt(5, [] {});
  q.ScheduleAt(50, [&] { late_ran = true; });
  q.Cancel(id);
  q.RunUntil(10);
  EXPECT_FALSE(late_ran);  // the 50-event must not leak past the bound
  EXPECT_EQ(q.Now(), 10);
}

TEST(EventQueue, CancelAfterFireIsNoOp) {
  EventQueue q;
  bool b_ran = false;
  const auto a = q.ScheduleAt(1, [] {});
  q.ScheduleAt(10, [&] { b_ran = true; });
  ASSERT_TRUE(q.Step());
  q.Cancel(a);       // already fired
  q.Cancel(a + 99);  // never issued
  EXPECT_FALSE(q.Empty());
  EXPECT_EQ(q.Run(), 1u);
  EXPECT_TRUE(b_ran);
  EXPECT_TRUE(q.Empty());
}

TEST(EventQueue, PastSchedulingClampsToNow) {
  EventQueue q;
  q.ScheduleAt(100, [] {});
  q.Run();
  int fired_at = 0;
  q.ScheduleAt(5, [&] { fired_at = static_cast<int>(q.Now()); });
  q.Run();
  EXPECT_EQ(fired_at, 100);
}

// ---- Task ----

// Bumps a counter when destroyed: marks a coroutine frame's end.
struct Counted {
  int* destroyed;
  ~Counted() { ++*destroyed; }
};

Task<int> Immediate(int v) { co_return v; }

Task<int> Leaf(EventQueue& q, int* destroyed) {
  Counted local{destroyed};
  co_await Sleep(q, 5);
  co_return 1;
}

Task<int> Parent(EventQueue& q, int* destroyed) {
  Counted local{destroyed};
  const int a = co_await Leaf(q, destroyed);
  const int b = co_await Immediate(10);
  const int c = co_await Leaf(q, destroyed);
  co_return a + b + c;
}

Task<int> AwaitCallee(std::vector<std::string>* log) {
  const int v = co_await Await<int>([log](auto done) {
    log->push_back("callee calls back");
    done(7);
    done(8);  // a second call is ignored
    log->push_back("callee returns");
  });
  log->push_back("resumed");
  co_return v;
}

TEST(Task, SyncCallbackResumesBeforeCalleeReturns) {
  std::vector<std::string> log;
  Start(AwaitCallee(&log), [&](int v) {
    log.push_back("done " + std::to_string(v));
  });
  EXPECT_EQ(log, (std::vector<std::string>{"callee calls back", "resumed",
                                           "done 7", "callee returns"}));
}

TEST(Task, AwaitingAChildAddsNoEvent) {
  EventQueue q;
  int destroyed = 0;
  int result = 0;
  q.ScheduleAt(3, [&] {
    Start(Parent(q, &destroyed), [&](int v) { result = v; });
  });
  // The start event and the two sleeps: the awaits themselves add none.
  EXPECT_EQ(q.Run(), 3u);
  EXPECT_EQ(result, 12);
  EXPECT_EQ(q.Now(), 13);
  EXPECT_EQ(destroyed, 3);  // both leaves and the parent
}

TEST(Task, DroppedCallbackDestroysTheWholeChain) {
  int destroyed = 0;
  bool finished = false;
  std::shared_ptr<Counted> guard(new Counted{&destroyed});
  {
    EventQueue q;
    Start(Parent(q, &destroyed), [&finished, guard](int) { finished = true; });
    guard.reset();
    EXPECT_EQ(destroyed, 0);
    // `q` dies holding the first leaf's sleep: the only claim on the chain.
  }
  EXPECT_FALSE(finished);
  // The leaf, the parent, and the Start callback (through its capture).
  EXPECT_EQ(destroyed, 3);
}

TEST(Task, StartHandsTheResultOverExactlyOnce) {
  EventQueue q;
  int destroyed = 0;
  int calls = 0;
  int result = 0;
  Start(Parent(q, &destroyed), [&](int v) {
    ++calls;
    result = v;
  });
  EXPECT_EQ(calls, 0);
  q.Run();
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(result, 12);

  // A task that never suspends reports before Start returns.
  Start(Immediate(5), [&](int v) {
    ++calls;
    result = v;
  });
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(result, 5);
}

// ---- RunToCompletion ----

TEST(RunToCompletion, ReturnsTheTasksValue) {
  EventQueue q;
  int destroyed = 0;
  EXPECT_EQ(RunToCompletion(q, Parent(q, &destroyed)), 12);
  EXPECT_EQ(q.Now(), 10);
  // Both leaves and the parent are gone by the time it returns.
  EXPECT_EQ(destroyed, 3);
  EXPECT_EQ(RunToCompletion(q, Immediate(5)), 5);
}

TEST(RunToCompletion, ReturnsWithALaterEventPending) {
  EventQueue q;
  int destroyed = 0;
  bool later_fired = false;
  q.ScheduleAt(100, [&] { later_fired = true; });
  EXPECT_EQ(RunToCompletion(q, Parent(q, &destroyed)), 12);
  EXPECT_EQ(q.Now(), 10);
  EXPECT_FALSE(later_fired);
  EXPECT_FALSE(q.Empty());
  q.Run();
  EXPECT_TRUE(later_fired);
  EXPECT_EQ(q.Now(), 100);
}

TEST(RunToCompletion, ReturnsWhileAPeriodicPollerRuns) {
  EventQueue q;
  int destroyed = 0;
  int ticks = 0;
  // Reschedules itself forever: q.Run() would never return.
  std::function<void()> tick = [&] {
    ++ticks;
    q.ScheduleAfter(3, tick);
  };
  q.ScheduleAfter(3, tick);
  EXPECT_EQ(RunToCompletion(q, Parent(q, &destroyed)), 12);
  EXPECT_EQ(q.Now(), 10);
  EXPECT_EQ(ticks, 3);  // at 3, 6 and 9
  EXPECT_FALSE(q.Empty());
}

Task<void> WaitForever(std::function<void()>* resume) {
  co_await Await<void>([resume](auto done) { *resume = std::move(done); });
}

TEST(RunToCompletionDeathTest, TaskThatCannotFinishAborts) {
  EXPECT_DEATH(
      {
        EventQueue q;
        std::function<void()> resume;  // held, never called
        RunToCompletion(q, WaitForever(&resume));
      },
      "drained before the task finished");
}

// ---- CpuScheduler ----

TEST(Cpu, SingleTaskRunsAtFullSpeed) {
  EventQueue q;
  CpuScheduler cpu(q, 1, 1e9);  // 1 GHz
  SimTime done_at = -1;
  cpu.Submit(1000, [&] { done_at = q.Now(); });
  q.Run();
  EXPECT_EQ(done_at, 1000);  // 1000 cycles at 1 cycle/ns
}

TEST(Cpu, TwoTasksOnOneCoreShare) {
  EventQueue q;
  CpuScheduler cpu(q, 1, 1e9);
  SimTime a_done = 0, b_done = 0;
  cpu.Submit(1000, [&] { a_done = q.Now(); });
  cpu.Submit(1000, [&] { b_done = q.Now(); });
  q.Run();
  // Both get half speed: each finishes at 2000 ns.
  EXPECT_EQ(a_done, 2000);
  EXPECT_EQ(b_done, 2000);
}

TEST(Cpu, TwoTasksOnTwoCoresDoNotShare) {
  EventQueue q;
  CpuScheduler cpu(q, 2, 1e9);
  SimTime a_done = 0, b_done = 0;
  cpu.Submit(1000, [&] { a_done = q.Now(); });
  cpu.Submit(1000, [&] { b_done = q.Now(); });
  q.Run();
  EXPECT_EQ(a_done, 1000);
  EXPECT_EQ(b_done, 1000);
}

TEST(Cpu, ShortTaskDelaysLongTaskProportionally) {
  EventQueue q;
  CpuScheduler cpu(q, 1, 1e9);
  SimTime short_done = 0, long_done = 0;
  cpu.Submit(10000, [&] { long_done = q.Now(); });
  cpu.Submit(1000, [&] { short_done = q.Now(); });
  q.Run();
  // Short task: shares until it accumulates 1000 cycles => 2000 ns.
  EXPECT_EQ(short_done, 2000);
  // Long task: 1000 cycles done at t=2000, 9000 more alone => 11000 ns.
  EXPECT_EQ(long_done, 11000);
}

TEST(Cpu, StaggeredArrival) {
  EventQueue q;
  CpuScheduler cpu(q, 1, 1e9);
  SimTime first_done = 0;
  cpu.Submit(2000, [&] { first_done = q.Now(); });
  q.ScheduleAt(1000, [&] {
    cpu.Submit(5000, [] {});
  });
  q.Run();
  // First task runs alone for 1000 ns (1000 cycles), then shares;
  // remaining 1000 cycles take 2000 ns => done at 3000.
  EXPECT_EQ(first_done, 3000);
}

TEST(Cpu, AbortCancelsCompletion) {
  EventQueue q;
  CpuScheduler cpu(q, 1, 1e9);
  bool fired = false;
  auto id = cpu.Submit(1000, [&] { fired = true; });
  cpu.Abort(id);
  q.Run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(cpu.ActiveTasks(), 0);
}

TEST(Cpu, AbortSpeedsUpSurvivor) {
  EventQueue q;
  CpuScheduler cpu(q, 1, 1e9);
  SimTime done = 0;
  cpu.Submit(4000, [&] { done = q.Now(); });
  auto victim = cpu.Submit(100000, [] {});
  q.ScheduleAt(2000, [&] { cpu.Abort(victim); });
  q.Run();
  // 0-2000ns shared (1000 cycles done), then alone: 3000 more ns.
  EXPECT_EQ(done, 5000);
}

TEST(Cpu, UtilizationReflectsLoad) {
  EventQueue q;
  CpuScheduler cpu(q, 2, 1e9);
  cpu.Submit(1000, [] {});
  q.Run();
  q.RunUntil(2000);
  // 1 core busy for 1000 ns out of 2 cores * 2000 ns.
  EXPECT_EQ(cpu.Utilization(), 0.25);
}

TEST(Cpu, CompletionCanResubmit) {
  EventQueue q;
  CpuScheduler cpu(q, 1, 1e9);
  int chain = 0;
  std::function<void()> next = [&] {
    if (++chain < 5) cpu.Submit(100, next);
  };
  cpu.Submit(100, next);
  q.Run();
  EXPECT_EQ(chain, 5);
  EXPECT_EQ(q.Now(), 500);
}

TEST(Cpu, ManyConcurrentTasksConserveWork) {
  EventQueue q;
  CpuScheduler cpu(q, 4, 3.4e9);
  constexpr int kTasks = 64;
  int done = 0;
  for (int i = 0; i < kTasks; ++i) {
    cpu.Submit(340'000, [&] { ++done; });
  }
  q.Run();
  EXPECT_EQ(done, kTasks);
  // Total work = 64 * 100 us; on 4 cores => 1.6 ms of virtual time.
  EXPECT_EQ(q.Now(), 1'600'000);
}

TEST(Cpu, CohortCompletesInOneEvent) {
  EventQueue q;
  CpuScheduler cpu(q, 1, 1e9);
  constexpr int kCohort = 5;
  SimTime long_done = 0;
  cpu.Submit(100'000, [&] { long_done = q.Now(); });
  std::vector<SimTime> fired_at;
  std::vector<int> active_in_callback;
  for (int i = 0; i < kCohort; ++i) {
    cpu.Submit(1000, [&] {
      fired_at.push_back(q.Now());
      active_in_callback.push_back(cpu.ActiveTasks());
    });
  }
  // Six tasks share the core: the cohort's 1000 cycles take 6000 ns.
  while (fired_at.empty() && q.Step()) {
  }
  EXPECT_EQ(fired_at, std::vector<SimTime>(kCohort, 6000));
  // Inside each callback only the long task is still running.
  EXPECT_EQ(active_in_callback, std::vector<int>(kCohort, 1));
  q.Run();
  // 1000 cycles shared by six, then 99000 alone.
  EXPECT_EQ(long_done, 6000 + 99'000);
}

TEST(Cpu, AbortOfBatchPeerIsIgnored) {
  // A completion that aborts a peer finished in the same event changes
  // nothing: the peer's completion still fires, and the survivor's
  // timing is the same as without the aborts.
  for (const bool abort_peers : {false, true}) {
    EventQueue q;
    CpuScheduler cpu(q, 1, 1e9);
    SimTime long_done = 0;
    cpu.Submit(10'000, [&] { long_done = q.Now(); });
    std::vector<CpuScheduler::TaskId> ids;
    int fired = 0;
    for (int i = 0; i < 3; ++i) {
      ids.push_back(cpu.Submit(1000, [&] {
        ++fired;
        if (abort_peers) {
          for (auto id : ids) cpu.Abort(id);
        }
      }));
    }
    q.Run();
    EXPECT_EQ(fired, 3) << abort_peers;
    EXPECT_EQ(long_done, 4000 + 9000) << abort_peers;
    EXPECT_EQ(cpu.ActiveTasks(), 0);
  }
}

TEST(Cpu, AbortOfUnknownIdChangesNothing) {
  EventQueue q;
  CpuScheduler cpu(q, 1, 1e9);
  SimTime done = 0;
  const auto id = cpu.Submit(1000, [&] { done = q.Now(); });
  q.ScheduleAt(300, [&] {
    cpu.Abort(id + 100);
    cpu.Abort(0);
  });
  q.Run();
  EXPECT_EQ(done, 1000);
}

TEST(Cpu, DriftBelowEpsilonStillCompletes) {
  // 27 x 2295 cycles on one 3.4 GHz core is exactly 18225 ns of work, but
  // in floating point the 18225 ns serve 4.5e-13 cycles too few. The
  // epsilon absorbs that: all 27 finish at 18225, not one ns later.
  EventQueue q;
  CpuScheduler cpu(q, 1, 3.4e9);
  std::vector<SimTime> fired_at;
  for (int i = 0; i < 27; ++i) {
    cpu.Submit(2295, [&] { fired_at.push_back(q.Now()); });
  }
  EXPECT_EQ(q.Run(), 1u);
  EXPECT_EQ(fired_at, std::vector<SimTime>(27, 18225));
}

// ---- CacheModel ----

TEST(Cache, ExpectedDelayMatchesCalibration) {
  CacheModel cache;  // defaults: 7460 lines, 1e9 insn/s
  // At CPKI=10 the calibrated delay is ~746 us (Fig 5 worst case).
  EXPECT_NEAR(ToMicros(cache.ExpectedDiscoveryDelay(10.0)), 746.0, 1.0);
}

TEST(Cache, DelayInverselyProportionalToCpki) {
  CacheModel cache;
  const auto d10 = cache.ExpectedDiscoveryDelay(10.0);
  const auto d20 = cache.ExpectedDiscoveryDelay(20.0);
  const auto d40 = cache.ExpectedDiscoveryDelay(40.0);
  EXPECT_NEAR(static_cast<double>(d10) / d20, 2.0, 0.01);
  EXPECT_NEAR(static_cast<double>(d20) / d40, 2.0, 0.01);
}

TEST(Cache, ZeroCpkiIsCapped) {
  CacheModel cache;
  EXPECT_EQ(cache.ExpectedDiscoveryDelay(0.0), Millis(10));
}

TEST(Cache, SamplesAverageToExpectation) {
  CacheModel cache;
  Rng rng(2);
  double sum = 0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    sum += static_cast<double>(cache.SampleDiscoveryDelay(20.0, rng));
  }
  EXPECT_NEAR(sum / kN,
              static_cast<double>(cache.ExpectedDiscoveryDelay(20.0)),
              static_cast<double>(cache.ExpectedDiscoveryDelay(20.0)) * 0.05);
}

TEST(Cache, FlushDelayIsConstant) {
  CacheModel cache;
  EXPECT_EQ(cache.FlushDelay(), Micros(2));
}

// ---- LinkModel / CostModel ----

TEST(Link, OneWayIncludesSerialization) {
  LinkModel link = RdmaLink();
  const Duration small = link.OneWay(64);
  const Duration large = link.OneWay(1 << 20);
  EXPECT_LT(small, Micros(2));
  // 1 MiB at 12.5 B/ns ~= 84 us + base.
  EXPECT_NEAR(ToMicros(large), 84.0 + 1.5, 2.0);
  EXPECT_EQ(link.RoundTrip(0), 2 * link.OneWay(0));
}

TEST(Link, AgentControlIsSlowerThanRdma) {
  EXPECT_GT(AgentControlLink().OneWay(1024), RdmaLink().OneWay(1024));
}

TEST(CostModel, VerifyCyclesSuperlinear) {
  const CostModel& cost = CostModel::Default();
  const double per_insn_small =
      static_cast<double>(cost.VerifyCycles(1000)) / 1000;
  const double per_insn_large =
      static_cast<double>(cost.VerifyCycles(100000)) / 100000;
  EXPECT_GT(per_insn_large, per_insn_small * 1.3);
}

TEST(CostModel, CalibratedAnchors) {
  const CostModel& cost = CostModel::Default();
  // ~1.1 ms of verification at 1.3K insns (Fig 2a / 4a anchor).
  const double verify_1300_ms =
      static_cast<double>(cost.VerifyCycles(1300)) / cost.cpu_hz * 1e3;
  EXPECT_GT(verify_1300_ms, 0.5);
  EXPECT_LT(verify_1300_ms, 2.5);
  // ~100+ ms at 95K.
  const double verify_95k_ms =
      static_cast<double>(cost.VerifyCycles(95000)) / cost.cpu_hz * 1e3;
  EXPECT_GT(verify_95k_ms, 80.0);
}

}  // namespace
}  // namespace rdx::sim
