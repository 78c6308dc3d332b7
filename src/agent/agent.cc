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

struct NodeAgent::LoadJob {
  std::uint32_t pid;
  std::uint32_t tid;
  telemetry::Tracer::SpanId load_span;
  AgentTrace trace;
  std::function<void(StatusOr<AgentTrace>)> done;
};

void NodeAgent::Stage(std::shared_ptr<LoadJob> job, const char* name,
                      std::uint64_t cycles, sim::Duration AgentTrace::*field,
                      std::function<void()> next) {
  const auto span = tracer_->BeginSpan(name, job->pid, job->tid);
  cpu_.Submit(cycles, [this, job = std::move(job), span, field,
                       next = std::move(next)] {
    tracer_->EndSpan(span);
    job->trace.*field = tracer_->SpanDuration(span);
    next();
  });
}

void NodeAgent::Finish(LoadJob& job, const Status& outcome) {
  tracer_->EndSpan(job.load_span);
  if (!outcome.ok()) {
    job.done(outcome);
    return;
  }
  job.trace.total = tracer_->SpanDuration(job.load_span);
  ++loads_completed_;
  job.done(job.trace);
}

template <class Source>
void NodeAgent::Load(const Source& src, int hook,
                     std::function<void(StatusOr<AgentTrace>)> done) {
  using K = core::ExtensionKind<Source>;
  const auto pid = static_cast<std::uint32_t>(sandbox_.node().id());
  const auto tid = static_cast<std::uint32_t>(hook);
  auto job = std::make_shared<LoadJob>(
      LoadJob{pid, tid, tracer_->BeginSpan("agent:load", pid, tid), {},
              std::move(done)});
  auto source = std::make_shared<const Source>(src);
  // Daemon wakeup + config parse, then the real verifier, compiler and
  // linker, each stage charged to this node's CPU.
  Stage(job, "agent:queue", config_.cost.agent_dispatch_cycles,
        &AgentTrace::queue, [this, job, source, hook] {
    Stage(job, "agent:verify",
          (config_.cost.*K::kValidateCycles)(source->size()),
          &AgentTrace::verify, [this, job, source, hook] {
      if (Status verdict = K::Validate(*source); !verdict.ok()) {
        Finish(*job, verdict);
        return;
      }
      Stage(job, "agent:jit",
            (config_.cost.*K::kCompileCycles)(source->size()),
            &AgentTrace::jit, [this, job, source, hook] {
        auto image = K::Compile(*source);
        if (!image.ok()) {
          Finish(*job, image.status());
          return;
        }
        Stage(job, "agent:attach", config_.cost.attach_fixed_cycles,
              &AgentTrace::attach,
              [this, job, source, hook,
               image = std::move(image).value()]() mutable {
                Finish(*job, LinkAndAttach(*source, std::move(image), hook));
              });
      });
    });
  });
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
  SchedulePoll();
}

void NodeAgent::SchedulePoll() {
  events_.ScheduleAfter(config_.state_poll_interval, [this] {
    if (!polling_) return;
    cpu_.Submit(config_.cost.agent_state_poll_cycles, [] {});
    SchedulePoll();
  });
}

void NodeAgent::StopStatePolling() { polling_ = false; }

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
void AgentController::Push(std::size_t agent_index, const Source& src,
                           int hook,
                           std::function<void(StatusOr<AgentTrace>)> done) {
  NodeAgent* node_agent = agents_.at(agent_index);
  const sim::Duration delay =
      SamplePushDelay(src.size() * kConfigBytesPerInsn<Source> + 256);
  events_.ScheduleAfter(delay, [node_agent, src, hook,
                                done = std::move(done)]() mutable {
    node_agent->Load(src, hook, std::move(done));
  });
}

struct AgentController::RolloutState {
  sim::SimTime t0;
  sim::SimTime last_commit = 0;
  std::size_t nodes = 0;
  std::vector<std::vector<std::size_t>> waves;
  // Push of the rolled-out extension to one agent.
  std::function<void(std::size_t, std::function<void(StatusOr<AgentTrace>)>)>
      push;
  std::function<void(StatusOr<RolloutResult>)> done;
};

void AgentController::RunWave(std::shared_ptr<RolloutState> st,
                              std::size_t w) {
  if (w == st->waves.size()) {
    st->done(RolloutResult{st->last_commit - st->t0, events_.Now() - st->t0,
                           st->nodes});
    return;
  }
  const std::vector<std::size_t>& wave = st->waves[w];
  core::ForAll(
      wave.size(),
      [&](std::size_t i, std::function<void(Status)> node_done) {
        st->push(wave[i], [this, st, node_done](StatusOr<AgentTrace> r) {
          if (r.ok()) {
            st->last_commit = std::max(st->last_commit, events_.Now());
            ++st->nodes;
          }
          node_done(r.status());
        });
      },
      [this, st, w](Status wave_status) {
        if (!wave_status.ok()) {
          st->done(wave_status);
        } else {
          RunWave(st, w + 1);
        }
      });
}

template <class Source>
void AgentController::Rollout(
    const Source& src, int hook, std::vector<std::vector<std::size_t>> waves,
    std::function<void(StatusOr<RolloutResult>)> done) {
  if (waves.empty()) {
    waves.emplace_back();
    for (std::size_t i = 0; i < agents_.size(); ++i) waves[0].push_back(i);
  }
  RunWave(std::make_shared<RolloutState>(RolloutState{
              events_.Now(), 0, 0, std::move(waves),
              [this, src, hook](std::size_t agent_index,
                                std::function<void(StatusOr<AgentTrace>)> cb) {
                Push(agent_index, src, hook, std::move(cb));
              },
              std::move(done)}),
          0);
}

#define RDX_INSTANTIATE_AGENT(Source)                                      \
  template void NodeAgent::Load(const Source&, int,                        \
                                std::function<void(StatusOr<AgentTrace>)>); \
  template void AgentController::Push(                                     \
      std::size_t, const Source&, int,                                     \
      std::function<void(StatusOr<AgentTrace>)>);                          \
  template void AgentController::Rollout(                                  \
      const Source&, int, std::vector<std::vector<std::size_t>>,           \
      std::function<void(StatusOr<RolloutResult>)>);
RDX_INSTANTIATE_AGENT(bpf::Program)
RDX_INSTANTIATE_AGENT(wasm::FilterModule)
#undef RDX_INSTANTIATE_AGENT

}  // namespace rdx::agent
