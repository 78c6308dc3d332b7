#include "agent/agent.h"

#include <algorithm>

#include "core/for_all.h"
#include "core/layout.h"

namespace rdx::agent {

NodeAgent::NodeAgent(sim::EventQueue& events, core::Sandbox& sandbox,
                     sim::CpuScheduler& cpu, AgentConfig config)
    : events_(events), sandbox_(sandbox), cpu_(cpu), config_(config) {
  owned_tracer_.emplace(events_);
  tracer_ = &*owned_tracer_;
}

Status NodeAgent::AttachImage(const Bytes& image_bytes, int hook) {
  // Local (CPU-side) attach: allocate from this node's scratchpad brk,
  // write image + desc, swing the hook slot. Versions count update
  // *generations* of a hook, so they stay comparable across nodes (needed
  // for mixed-version detection).
  auto& mem = sandbox_.node().memory();
  const core::ControlBlockView& view = sandbox_.view();
  RDX_ASSIGN_OR_RETURN(const std::uint64_t brk,
                       mem.ReadU64(view.cb_addr + core::kCbScratchBrk));
  const Bytes region = core::ComposeImageRegion(
      image_bytes, brk, sandbox_.CommittedVersion(hook) + 1,
      /*signing_key=*/0);
  if (brk + region.size() > view.scratch_addr + view.scratch_size) {
    return ResourceExhausted("sandbox scratchpad exhausted");
  }
  RDX_RETURN_IF_ERROR(
      mem.WriteU64(view.cb_addr + core::kCbScratchBrk, brk + region.size()));
  RDX_RETURN_IF_ERROR(mem.Write(brk, region));
  RDX_RETURN_IF_ERROR(mem.WriteU64(
      view.hook_table_addr + static_cast<std::uint64_t>(hook) * 8,
      brk + region.size() - core::kImageDescBytes));
  // The local CPU is coherent with its own stores: immediate visibility.
  sandbox_.RefreshHookNow(hook);
  return OkStatus();
}

template <class Source>
sim::Task<StatusOr<AgentTrace>> NodeAgent::Load(Source src, int hook) {
  using K = core::ExtensionKind<Source>;
  const auto pid = static_cast<std::uint32_t>(sandbox_.node().id());
  const auto tid = static_cast<std::uint32_t>(hook);
  const auto load = tracer_->BeginSpan("agent:load", pid, tid);
  // One stage: a span around `cycles` charged to this node's CPU.
  auto stage = [&](const char* name,
                   std::uint64_t cycles) -> sim::Task<sim::Duration> {
    const auto span = tracer_->BeginSpan(name, pid, tid);
    co_await sim::Charge(cpu_, cycles);
    tracer_->EndSpan(span);
    co_return tracer_->SpanDuration(span);
  };
  // Closes the load span on the way out.
  auto finish = [&](Status outcome) {
    tracer_->EndSpan(load);
    return outcome;
  };

  // Daemon wakeup + config parse, then the real verifier, compiler and
  // linker.
  AgentTrace trace;
  trace.queue =
      co_await stage("agent:queue", config_.cost.agent_dispatch_cycles);
  trace.verify = co_await stage(
      "agent:verify", (config_.cost.*K::kValidateCycles)(src.size()));
  if (Status verdict = K::Validate(src); !verdict.ok()) {
    co_return finish(verdict);
  }
  trace.jit = co_await stage("agent:jit",
                             (config_.cost.*K::kCompileCycles)(src.size()));
  auto image = K::Compile(src);
  if (!image.ok()) co_return finish(image.status());
  trace.attach =
      co_await stage("agent:attach", config_.cost.attach_fixed_cycles);
  RDX_CO_RETURN_IF_ERROR(
      finish(LinkAndAttach(src, std::move(image).value(), hook)));
  trace.total = tracer_->SpanDuration(load);
  ++loads_completed_;
  co_return trace;
}

template <class Source>
Status NodeAgent::LinkAndAttach(const Source& src, core::ImageOf<Source> image,
                                int hook) {
  using K = core::ExtensionKind<Source>;
  // The agent has full local context: it deploys XStates in its own
  // sandbox and links against the symbols that sandbox exports — the same
  // table RDX reads remotely.
  core::XStateMap xstates;
  for (const bpf::MapSpec& spec : K::XStates(src)) {
    RDX_ASSIGN_OR_RETURN(xstates[spec.name], EnsureXState(spec));
  }
  const auto exported = sandbox_.ExportedSymbols();
  const core::SymbolMap symbols(exported.begin(), exported.end());
  RDX_RETURN_IF_ERROR(core::LinkImage({symbols, xstates}, image));
  return AttachImage(image.Serialize(), hook);
}

StatusOr<std::uint64_t> NodeAgent::EnsureXState(const bpf::MapSpec& spec) {
  // Reuse an already-deployed XState of the same name if the sandbox has
  // one registered.
  for (const auto& [addr, registered] : sandbox_.runtime().maps) {
    if (registered.name == spec.name) return addr;
  }
  auto& mem = sandbox_.node().memory();
  const std::uint64_t bytes = bpf::MapRequiredBytes(spec);
  RDX_ASSIGN_OR_RETURN(const std::uint64_t addr, mem.Allocate(bytes, 64));
  RDX_RETURN_IF_ERROR(bpf::MapView(mem.SpanForCpu(addr, bytes)).Init(spec));
  sandbox_.runtime().maps.emplace(addr, spec);
  return addr;
}

void NodeAgent::StartStatePolling() {
  if (polling_ || config_.state_poll_interval <= 0) return;
  polling_ = true;
  sim::Start(Poll(), [] {});
}

sim::Task<void> NodeAgent::Poll() {
  while (polling_) {
    // StopStatePolling cancels this event, and with it the loop.
    co_await sim::Await<void>([this](auto tick) {
      next_poll_ =
          events_.ScheduleAfter(config_.state_poll_interval, std::move(tick));
    });
    cpu_.Submit(config_.cost.agent_state_poll_cycles, [] {});
  }
}

void NodeAgent::StopStatePolling() {
  if (!polling_) return;
  polling_ = false;
  events_.Cancel(next_poll_);
}

AgentController::AgentController(sim::EventQueue& events,
                                 ControllerConfig config)
    : events_(events), config_(config), rng_(config.seed) {}

sim::Duration AgentController::SamplePushDelay(std::size_t config_bytes) {
  // One loaded leg: the config payload rides the push; the ack leg is
  // subsumed in push_base_delay (sim/network.h charging convention).
  const sim::Duration wire = config_.link.OneWay(config_bytes);
  const sim::Duration jitter = static_cast<sim::Duration>(
      rng_.NextExponential(static_cast<double>(config_.push_jitter_mean)));
  return config_.push_base_delay + wire + jitter;
}

namespace {
// Marshalled config size per source instruction.
template <class Source>
constexpr std::size_t kConfigBytesPerInsn = 8;
template <>
constexpr std::size_t kConfigBytesPerInsn<wasm::FilterModule> = 9;
}  // namespace

template <class Source>
sim::Task<StatusOr<AgentTrace>> AgentController::Push(std::size_t agent_index,
                                                      Source src, int hook) {
  NodeAgent* node_agent = agents_.at(agent_index);
  co_await sim::Sleep(
      events_, SamplePushDelay(src.size() * kConfigBytesPerInsn<Source> + 256));
  co_return co_await node_agent->Load(std::move(src), hook);
}

template <class Source>
sim::Task<StatusOr<RolloutResult>> AgentController::Rollout(
    Source src, int hook, std::vector<std::vector<std::size_t>> waves) {
  if (waves.empty()) {
    waves.emplace_back();
    for (std::size_t i = 0; i < agents_.size(); ++i) waves[0].push_back(i);
  }
  const sim::SimTime t0 = events_.Now();
  sim::SimTime last_commit = 0;
  std::size_t nodes = 0;
  // Each wave starts once every agent in the one before it reported.
  for (const std::vector<std::size_t>& wave : waves) {
    auto push = [&](std::size_t i) -> sim::Task<Status> {
      const StatusOr<AgentTrace> loaded = co_await Push(wave[i], src, hook);
      if (loaded.ok()) {
        last_commit = std::max(last_commit, events_.Now());
        ++nodes;
      }
      co_return loaded.status();
    };
    RDX_CO_RETURN_IF_ERROR(co_await core::ForAll(wave.size(), push));
  }
  co_return RolloutResult{last_commit - t0, events_.Now() - t0, nodes};
}

#define RDX_INSTANTIATE_AGENT(Source)                                       \
  template sim::Task<StatusOr<AgentTrace>> NodeAgent::Load(Source, int);     \
  template sim::Task<StatusOr<AgentTrace>> AgentController::Push(            \
      std::size_t, Source, int);                                              \
  template sim::Task<StatusOr<RolloutResult>> AgentController::Rollout(      \
      Source, int, std::vector<std::vector<std::size_t>>);
RDX_INSTANTIATE_AGENT(bpf::Program)
RDX_INSTANTIATE_AGENT(wasm::FilterModule)
#undef RDX_INSTANTIATE_AGENT

}  // namespace rdx::agent
