// Shared pieces of the RDX benchmark harness: host clocks and sample
// statistics, the harness-side span recorder that charges host and
// virtual time to the layer a call enters, the loop that steps the
// simulation, and the interface every workload implements.
//
// The harness measures the simulator from outside only: it times the
// calls it makes into public functions and reads the counters the layers
// already expose. Nothing here reaches into src/.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/event_queue.h"

namespace rdxbench {

using HostClock = std::chrono::steady_clock;

inline double SecondsSince(HostClock::time_point start) {
  return std::chrono::duration<double>(HostClock::now() - start).count();
}

// Quantile with linear interpolation between closest ranks (numpy's
// default), so a percentile moves with every sample rather than in
// histogram-bucket steps. 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
double Mean(const std::vector<double>& values);

// ---- harness-side spans ----

// The layers a harness span can be charged to. kSim is the event loop
// itself (one span per EventQueue::Step); kHarness is the harness's own
// checks between events; the others wrap calls into the public functions
// of the module of that name.
enum class Layer { kSim, kCore, kKvstore, kTelemetry, kHarness, kCount };

class Spans {
 public:
  struct Total {
    double host_ns = 0;       // span durations, children included
    double self_host_ns = 0;  // minus the time covered by child spans
    double virtual_ns = 0;    // virtual time elapsed inside the spans
    std::uint64_t count = 0;
  };

  // The rig binds its event queue before recording its first span.
  void Bind(const rdx::sim::EventQueue& events) { events_ = &events; }
  void Begin(Layer layer);
  void End();
  // Forgets the totals so far (set-up spans), keeping open spans.
  void ResetTotals() { totals_ = {}; }
  const Total& total(Layer layer) const {
    return totals_[static_cast<int>(layer)];
  }

 private:
  struct Open {
    Layer layer;
    HostClock::time_point start;
    rdx::sim::SimTime virtual_start;
    double child_ns;
  };
  const rdx::sim::EventQueue* events_ = nullptr;
  std::vector<Open> stack_;
  std::array<Total, static_cast<int>(Layer::kCount)> totals_{};
};

// RAII span; a null recorder (tracing off) costs one branch.
class ScopedSpan {
 public:
  ScopedSpan(Spans* spans, Layer layer) : spans_(spans) {
    if (spans_ != nullptr) spans_->Begin(layer);
  }
  ~ScopedSpan() {
    if (spans_ != nullptr) spans_->End();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Spans* spans_;
};

// ---- stepping the event loop ----

// Drives the simulation one EventQueue::Step at a time so the harness can
// observe state between events (visibility of a deployed version, request
// completions) without scheduling probe events of its own, which would
// perturb the event count and the queue.
class Loop {
 public:
  Loop(rdx::sim::EventQueue& events, Spans* spans)
      : events_(events), spans_(spans) {}

  // Called after every event; observers remove themselves by returning
  // false.
  void Observe(std::function<bool()> observer);

  // Runs events until `flag` is set. False if the queue ran dry first.
  bool RunUntilFlag(const bool& flag);
  // Runs events until virtual time Now() + `span`.
  void RunFor(rdx::sim::Duration span);
  // Runs events until `done()` holds, for at most `limit` of virtual
  // time. Returns done().
  bool RunUntilDone(const std::function<bool()>& done,
                    rdx::sim::Duration limit);

  std::uint64_t steps() const { return steps_; }

 private:
  bool StepOnce();

  rdx::sim::EventQueue& events_;
  Spans* spans_;
  std::vector<std::function<bool()>> observers_;
  std::vector<std::function<bool()>> added_;
  bool notifying_ = false;
  std::uint64_t steps_ = 0;
};

// ---- workloads ----

// Inputs recorded during a run for the host unit-cost replays that run
// afterwards, outside the event loop.
struct ReplayCorpus {
  std::vector<std::uint64_t> ebpf_seeds;  // bpf::GenerateProgram seeds
  std::vector<std::size_t> ebpf_sizes;    // ... and instruction counts
  std::vector<std::uint64_t> wasm_seeds;  // wasm::GenerateFilter seeds
  std::vector<std::size_t> wasm_sizes;
  // KvStore hook contexts (the 16-byte ctx the store builds per command).
  std::vector<std::array<std::uint8_t, 16>> kv_contexts;
  double mean_active_tasks = 0;  // data-plane CpuScheduler occupancy
  double write_bytes_per_wr = 0;
  double wrs_per_doorbell = 1;
};

// Work the run did that the replays price: count x unit cost is that
// module's estimated share of host time.
struct WorkCounts {
  double bpf_exec_calls = 0;    // Sandbox::ExecuteHook calls (eBPF)
  double bpf_verified_insns = 0;
  double bpf_jitted_insns = 0;
  double bpf_decoded_kb = 0;
  // Image KB linked and serialized per target node (eBPF / Wasm).
  double ebpf_prepared_kb = 0;
  double wasm_prepared_kb = 0;
  double wasm_exec_calls = 0;   // Sandbox::ExecuteWasmHook calls
  double wasm_compiled_insns = 0;
  double cpu_submits = 0;
  double wrs = 0;
};

struct Outcome {
  // Virtual-clock samples, in ns.
  std::vector<double> request_ns;
  std::vector<double> deploy_ns;
  std::vector<double> visible_ns;
  double window_ns = 0;
  std::uint64_t requests = 0;  // completed inside the window
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // Output checks that did not hold (wrong replies, versions that never
  // became visible, ...). Empty on a correct run.
  std::vector<std::string> errors;
  // Per-layer counters and virtual times read from the layers.
  std::map<std::string, double> layer;
  WorkCounts work;
  ReplayCorpus corpus;
};

// One built cluster, ready to run its measured window.
class Rig {
 public:
  virtual ~Rig() = default;
  // Runs the fixed amount of virtual work that makes up the window
  // (including any warm-up traffic that is not sampled).
  virtual void Measure() = 0;
  // Output checks, counters and samples of the finished window.
  virtual Outcome Finish() = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  // Refuses to start (returns a reason) when the planned run cannot
  // complete without exhausting a sandbox's scratchpad, which is a bump
  // allocator whose reclaimed bytes are never reused. Empty when it fits.
  virtual std::string CheckBudget() const = 0;
  // Builds a fresh cluster: nodes, sandboxes, CodeFlow handshakes and
  // first attach, up to the start of the measured window. With
  // `spans` the rig records harness spans and attaches a
  // telemetry::Tracer to its control plane.
  virtual std::unique_ptr<Rig> Setup(Spans* spans) const = 0;
};

std::unique_ptr<Workload> MakeKvEbpf(std::uint64_t seed);
std::unique_ptr<Workload> MakeFleetDeploy(std::uint64_t seed);
std::unique_ptr<Workload> MakeMeshWasm(std::uint64_t seed);

// Derives an independent stream seed for input `index` of a run.
std::uint64_t SubSeed(std::uint64_t seed, std::uint64_t index);

}  // namespace rdxbench
