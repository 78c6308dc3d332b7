// The agent-based baseline (Fig 1a): every node runs a local agent
// daemon that receives extension specs from a central controller over the
// ordinary network, then verifies, JIT-compiles, and attaches them using
// the node's *own* CPU — contending with the data path. This is the
// architecture RDX replaces, and it must exist in full for every
// comparison figure (2a, 2b, 2c, 4a, 4b, the Redis and mesh claims).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/extension.h"
#include "core/sandbox.h"
#include "sim/cost_model.h"
#include "sim/cpu.h"
#include "sim/network.h"
#include "sim/task.h"
#include "telemetry/span.h"

namespace rdx::agent {

struct AgentConfig {
  sim::CostModel cost;
  // Interval of the agent's periodic XState polling (map walks for
  // telemetry export); 0 disables. Each poll costs
  // cost.agent_state_poll_cycles on the node CPU.
  sim::Duration state_poll_interval = 0;
};

// Phase timings of one agent-side load, for the Fig 4b breakdown. Each
// field is the duration of the telemetry span of the same stage
// ("agent:queue" etc.), so the result and the merged timeline agree.
struct AgentTrace {
  sim::Duration queue = 0;   // daemon wakeup + config parse
  sim::Duration verify = 0;
  sim::Duration jit = 0;
  sim::Duration attach = 0;
  sim::Duration total = 0;
};

// Per-node agent daemon. Shares the node's CpuScheduler with the
// workload; every pipeline stage is a cycle demand submitted to it.
class NodeAgent {
 public:
  NodeAgent(sim::EventQueue& events, core::Sandbox& sandbox,
            sim::CpuScheduler& cpu, AgentConfig config = {});
  NodeAgent(const NodeAgent&) = delete;
  NodeAgent& operator=(const NodeAgent&) = delete;

  // Local injection pipeline: queue -> verify -> JIT -> attach, one body
  // for both extension kinds (`Source` is bpf::Program or
  // wasm::FilterModule). The same verifier, compiler and linker as the
  // RDX control plane run (core::ExtensionKind); their virtual-time cost
  // is charged to this node's CPU.
  template <class Source>
  sim::Task<StatusOr<AgentTrace>> Load(Source src, int hook);

  // Begins periodic XState polling (the steady-state agent "tax"); Stop
  // cancels the next poll.
  void StartStatePolling();
  void StopStatePolling();

  core::Sandbox& sandbox() { return sandbox_; }
  sim::CpuScheduler& cpu() { return cpu_; }
  std::uint64_t loads_completed() const { return loads_completed_; }

  // Agent pipeline stages record telemetry spans (pid = node id, tid =
  // hook). By default they land in an agent-owned tracer; point this at a
  // shared one to merge agent loads into the global timeline.
  void SetTracer(telemetry::Tracer* tracer) { tracer_ = tracer; }
  telemetry::Tracer& tracer() { return *tracer_; }

 private:
  // The polling loop StartStatePolling runs: a poll every interval.
  sim::Task<void> Poll();
  // Deploys the XStates `src` declares that this sandbox lacks, links
  // `image` against the sandbox's exported symbols and attaches it.
  template <class Source>
  Status LinkAndAttach(const Source& src, core::ImageOf<Source> image,
                       int hook);
  // Node-local address of the XState named `spec.name`, allocated and
  // initialized in node memory on first use.
  StatusOr<std::uint64_t> EnsureXState(const bpf::MapSpec& spec);
  // Writes the image + desc into node memory with the local CPU and
  // swings the hook slot (coherent: visible immediately).
  Status AttachImage(const Bytes& image_bytes, int hook);

  sim::EventQueue& events_;
  core::Sandbox& sandbox_;
  sim::CpuScheduler& cpu_;
  AgentConfig config_;
  std::optional<telemetry::Tracer> owned_tracer_;
  telemetry::Tracer* tracer_ = nullptr;
  bool polling_ = false;
  sim::EventQueue::EventId next_poll_ = 0;
  std::uint64_t loads_completed_ = 0;
};

// Central controller: pushes extension specs to agents over the control
// network (kernel TCP/gRPC path), with the propagation jitter real
// config-distribution systems exhibit.
struct ControllerConfig {
  sim::LinkModel link = sim::AgentControlLink();
  // Watch-notification propagation: base + exponential jitter, matching
  // the 10s-to-100s-of-ms config propagation of xDS/K8s deployments.
  sim::Duration push_base_delay = sim::Millis(5);
  sim::Duration push_jitter_mean = sim::Millis(20);
  std::uint64_t seed = 7;
};

struct RolloutResult {
  // Interval between update initiation and the last node serving the new
  // version — the paper's "update inconsistency time" (Fig 2b).
  sim::Duration inconsistency_window = 0;
  sim::Duration total = 0;
  std::size_t nodes = 0;
};

class AgentController {
 public:
  explicit AgentController(sim::EventQueue& events,
                           ControllerConfig config = {});

  void RegisterAgent(NodeAgent* agent) { agents_.push_back(agent); }
  std::size_t agent_count() const { return agents_.size(); }

  // Pushes one extension (bpf::Program or wasm::FilterModule) to one
  // agent: config marshal + network + agent pipeline.
  template <class Source>
  sim::Task<StatusOr<AgentTrace>> Push(std::size_t agent_index, Source src,
                                       int hook);

  // Eventual-consistency rollout to every agent at once (no ordering
  // guarantees — the Fig 2b baseline). `waves` optionally groups agents
  // into dependency waves rolled out sequentially (inter-service DAG
  // constraints); empty = one unordered wave.
  template <class Source>
  sim::Task<StatusOr<RolloutResult>> Rollout(
      Source src, int hook, std::vector<std::vector<std::size_t>> waves);

 private:
  sim::Duration SamplePushDelay(std::size_t config_bytes);

  sim::EventQueue& events_;
  ControllerConfig config_;
  Rng rng_;
  std::vector<NodeAgent*> agents_;
};

}  // namespace rdx::agent
