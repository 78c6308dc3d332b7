// Agent-baseline tests: the local injection pipeline (timing, CPU
// charging, functional attach), the controller's push/rollout behaviour,
// and the steady-state polling tax.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>

#include "agent/agent.h"
#include "bpf/assembler.h"
#include "bpf/proggen.h"

namespace rdx::agent {
namespace {

struct Node {
  sim::EventQueue events;
  rdma::Fabric fabric{events};
  rdma::Node* node;
  std::unique_ptr<sim::CpuScheduler> cpu;
  std::unique_ptr<core::Sandbox> sandbox;
  std::unique_ptr<NodeAgent> agent;

  explicit Node(AgentConfig config = {},
                core::SandboxConfig sandbox_config = {}) {
    node = &fabric.AddNode("n", 64u << 20);
    cpu = std::make_unique<sim::CpuScheduler>(events, 24, 3.4e9);
    sandbox = std::make_unique<core::Sandbox>(events, *node,
                                              std::move(sandbox_config));
    EXPECT_TRUE(sandbox->CtxInit().ok());
    agent = std::make_unique<NodeAgent>(events, *sandbox, *cpu, config);
  }

  AgentTrace Load(const bpf::Program& prog, int hook = 0) {
    const StatusOr<AgentTrace> r =
        sim::RunToCompletion(events, agent->Load(prog, hook));
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? r.value() : AgentTrace{};
  }
};

bpf::Program TinyProgram(std::uint64_t ret) {
  bpf::Program prog;
  prog.name = "tiny";
  prog.insns = bpf::Assemble("r0 = " + std::to_string(ret) + "\nexit\n")
                   .value();
  return prog;
}

TEST(NodeAgentPipeline, LoadedExtensionExecutes) {
  Node n;
  n.Load(TinyProgram(7));
  Bytes packet(4, 0);
  auto result = n.sandbox->ExecuteHook(0, packet);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->r0, 7u);
  EXPECT_EQ(n.agent->loads_completed(), 1u);
}

TEST(NodeAgentPipeline, TraceCoversAllPhases) {
  Node n;
  bpf::Program prog = bpf::GenerateProgram({.target_insns = 1300, .seed = 1});
  AgentTrace trace = n.Load(prog);
  EXPECT_GT(trace.queue, 0);
  EXPECT_GT(trace.verify, 0);
  EXPECT_GT(trace.jit, 0);
  EXPECT_GT(trace.attach, 0);
  EXPECT_NEAR(static_cast<double>(trace.total),
              static_cast<double>(trace.queue + trace.verify + trace.jit +
                                  trace.attach),
              1e5);
  // Verify dominates (paper: 90+% of load time is verify + JIT).
  EXPECT_GT(static_cast<double>(trace.verify + trace.jit),
            0.6 * static_cast<double>(trace.total));
}

TEST(NodeAgentPipeline, TraceFieldsComeFromTelemetrySpans) {
  Node n;
  bpf::Program prog = bpf::GenerateProgram({.target_insns = 1300, .seed = 1});
  AgentTrace trace = n.Load(prog);

  // The legacy AgentTrace fields are populated from the span timeline,
  // so the same phases must exist there with identical durations.
  sim::Duration queue = 0, verify = 0, jit = 0, attach = 0, total = 0;
  for (const auto& ev : n.agent->tracer().events()) {
    if (ev.name == "agent:queue") queue = ev.dur;
    if (ev.name == "agent:verify") verify = ev.dur;
    if (ev.name == "agent:jit") jit = ev.dur;
    if (ev.name == "agent:attach") attach = ev.dur;
    if (ev.name == "agent:load") total = ev.dur;
    EXPECT_EQ(ev.pid, static_cast<std::uint32_t>(n.node->id()));
  }
  EXPECT_EQ(queue, trace.queue);
  EXPECT_EQ(verify, trace.verify);
  EXPECT_EQ(jit, trace.jit);
  EXPECT_EQ(attach, trace.attach);
  EXPECT_EQ(total, trace.total);
  EXPECT_GT(total, 0);
}

TEST(NodeAgentPipeline, LoadTimeGrowsWithProgramSize) {
  Node n;
  const AgentTrace small = n.Load(
      bpf::GenerateProgram({.target_insns = 1000, .seed = 1}), 0);
  const AgentTrace large = n.Load(
      bpf::GenerateProgram({.target_insns = 20000, .seed = 1}), 1);
  EXPECT_GT(large.total, small.total * 10);
}

TEST(NodeAgentPipeline, RejectsUnverifiableProgram) {
  Node n;
  bpf::Program bad;
  bad.name = "bad";
  bad.insns = bpf::Assemble("r0 = r9\nexit\n").value();  // uninit read
  EXPECT_FALSE(sim::RunToCompletion(n.events, n.agent->Load(bad, 0)).ok());
  EXPECT_EQ(n.sandbox->VisibleVersion(0), 0u);
}

TEST(NodeAgentPipeline, ReloadBumpsVersion) {
  Node n;
  n.Load(TinyProgram(1));
  EXPECT_EQ(n.sandbox->VisibleVersion(0), 1u);
  n.Load(TinyProgram(2));
  EXPECT_EQ(n.sandbox->VisibleVersion(0), 2u);
  Bytes packet(4, 0);
  EXPECT_EQ(n.sandbox->ExecuteHook(0, packet)->r0, 2u);
}

TEST(NodeAgentPipeline, MapsAreLocallyLinked) {
  Node n;
  bpf::Program prog;
  prog.name = "counting";
  prog.maps.push_back({"hits", bpf::MapType::kArray, 4, 8, 4});
  prog.insns = bpf::Assemble(R"(
    *(u32*)(r10 - 4) = 0
    r1 = map 0
    r2 = r10
    r2 += -4
    call map_lookup_elem
    if r0 == 0 goto out
    r7 = *(u64*)(r0 + 0)
    r7 += 1
    *(u64*)(r0 + 0) = r7
    r0 = r7
    exit
  out:
    r0 = 0
    exit
  )").value();
  n.Load(prog);
  Bytes packet(4, 0);
  EXPECT_EQ(n.sandbox->ExecuteHook(0, packet)->r0, 1u);
  EXPECT_EQ(n.sandbox->ExecuteHook(0, packet)->r0, 2u);
}

TEST(NodeAgentPipeline, ReloadReusesExistingMapState) {
  Node n;
  bpf::Program prog;
  prog.name = "counting";
  prog.maps.push_back({"hits", bpf::MapType::kArray, 4, 8, 4});
  prog.insns = bpf::Assemble(R"(
    *(u32*)(r10 - 4) = 0
    r1 = map 0
    r2 = r10
    r2 += -4
    call map_lookup_elem
    if r0 == 0 goto out
    r7 = *(u64*)(r0 + 0)
    r7 += 1
    *(u64*)(r0 + 0) = r7
    r0 = r7
    exit
  out:
    r0 = 0
    exit
  )").value();
  n.Load(prog);
  Bytes packet(4, 0);
  EXPECT_EQ(n.sandbox->ExecuteHook(0, packet)->r0, 1u);
  // Reload: the map named "hits" persists across versions.
  n.Load(prog);
  EXPECT_EQ(n.sandbox->ExecuteHook(0, packet)->r0, 2u);
}

TEST(NodeAgentPipeline, WasmFilterLoadsAndRuns) {
  Node n;
  wasm::FilterModule filter = wasm::GenerateFilter(200, 4);
  const StatusOr<AgentTrace> loaded =
      sim::RunToCompletion(n.events, n.agent->Load(filter, 2));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  class NullHost final : public wasm::WasmHost {
   public:
    StatusOr<std::uint64_t> CallHost(std::int32_t, std::uint64_t,
                                     std::uint64_t) override {
      return 0ull;
    }
  } host;
  auto result = n.sandbox->ExecuteWasmHook(2, host);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
}

TEST(NodeAgentPipeline, LoadChargesNodeCpu) {
  Node n;
  bpf::Program prog = bpf::GenerateProgram({.target_insns = 10000, .seed = 1});
  const double before = n.cpu->Utilization();
  n.Load(prog);
  // Something ran on this CPU.
  EXPECT_GT(n.cpu->Utilization(), before);
}

TEST(NodeAgentPolling, PollingConsumesCpu) {
  AgentConfig config;
  config.state_poll_interval = sim::Millis(10);
  Node n(config);
  n.agent->StartStatePolling();
  n.events.RunUntil(sim::Seconds(1));
  // 100 polls * 13.6M cycles on 24 cores * 3.4 GHz * 1 s.
  const double expected =
      100.0 * 13.6e6 / (24 * 3.4e9);
  EXPECT_NEAR(n.cpu->Utilization(), expected, expected * 0.2);
  n.agent->StopStatePolling();
  const double at_stop = n.cpu->Utilization();
  n.events.RunUntil(sim::Seconds(2));
  EXPECT_LT(n.cpu->Utilization(), at_stop);  // decays once stopped
}

TEST(NodeAgentPolling, RestartWithinOneIntervalRunsOneLoop) {
  AgentConfig config;
  config.state_poll_interval = sim::Millis(10);
  Node n(config);
  n.agent->StartStatePolling();
  n.events.RunUntil(sim::Millis(5));
  // Stop cancels the pending poll, so the restart leaves one loop, not
  // the old one plus a new one.
  n.agent->StopStatePolling();
  n.agent->StartStatePolling();
  n.events.RunUntil(sim::Seconds(1));
  // Polls at 15, 25, ..., 995 ms: 99 polls of 13.6M cycles.
  const double one_loop = 99 * 13.6e6 / (24 * 3.4e9);
  EXPECT_NEAR(n.cpu->Utilization(), one_loop, one_loop * 0.05);
}

// ---- controller ----

struct ControllerHarness {
  sim::EventQueue events;
  rdma::Fabric fabric{events};
  AgentController controller;
  std::vector<std::unique_ptr<sim::CpuScheduler>> cpus;
  std::vector<std::unique_ptr<core::Sandbox>> sandboxes;
  std::vector<std::unique_ptr<NodeAgent>> agents;

  explicit ControllerHarness(int n, ControllerConfig config = {})
      : controller(events, config) {
    for (int i = 0; i < n; ++i) {
      rdma::Node& node = fabric.AddNode("n" + std::to_string(i), 64u << 20);
      cpus.push_back(std::make_unique<sim::CpuScheduler>(events, 24, 3.4e9));
      sandboxes.push_back(std::make_unique<core::Sandbox>(
          events, node, core::SandboxConfig{}));
      EXPECT_TRUE(sandboxes.back()->CtxInit().ok());
      agents.push_back(std::make_unique<NodeAgent>(
          events, *sandboxes.back(), *cpus.back()));
      controller.RegisterAgent(agents.back().get());
    }
  }
};

TEST(Controller, PushAddsNetworkDelay) {
  ControllerHarness h(1);
  bpf::Program prog = TinyProgram(1);
  ASSERT_TRUE(
      sim::RunToCompletion(h.events, h.controller.Push(0, prog, 0)).ok());
  // Push delay (>= 5 ms base) dominates the tiny program's load time.
  EXPECT_GT(h.events.Now(), sim::Millis(5));
}

TEST(Controller, RolloutReachesAllAgents) {
  ControllerHarness h(6);
  bpf::Program prog = TinyProgram(3);
  const StatusOr<RolloutResult> result =
      sim::RunToCompletion(h.events, h.controller.Rollout(prog, 0, {}));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->nodes, 6u);
  for (auto& sandbox : h.sandboxes) {
    EXPECT_EQ(sandbox->VisibleVersion(0), 1u);
  }
}

TEST(Controller, InconsistencyWindowSpansPropagationJitter) {
  ControllerHarness h(10);
  bpf::Program prog = bpf::GenerateProgram({.target_insns = 1300, .seed = 2});
  const StatusOr<RolloutResult> result =
      sim::RunToCompletion(h.events, h.controller.Rollout(prog, 0, {}));
  ASSERT_TRUE(result.ok());
  // Base 5ms + jitter + verify: the window is tens of ms at least.
  EXPECT_GT(result->inconsistency_window, sim::Millis(8));
}

TEST(Controller, WavesRollOutSequentially) {
  // Deterministic propagation (no jitter) so two sequential waves are
  // strictly slower than one parallel wave.
  ControllerConfig config;
  config.push_jitter_mean = 0;
  ControllerHarness h(4, config);
  bpf::Program prog = TinyProgram(1);
  // Two waves: {0,1} then {2,3}.
  std::vector<std::vector<std::size_t>> waves = {{0, 1}, {2, 3}};
  const StatusOr<RolloutResult> waved_result =
      sim::RunToCompletion(h.events, h.controller.Rollout(prog, 0, waves));
  ASSERT_TRUE(waved_result.ok());
  const StatusOr<RolloutResult> unordered_result =
      sim::RunToCompletion(h.events, h.controller.Rollout(prog, 1, {}));
  ASSERT_TRUE(unordered_result.ok());
  // Sequential waves take longer than one parallel wave.
  EXPECT_GT(waved_result->total, unordered_result->total);
  EXPECT_EQ(waved_result->nodes, 4u);
}

TEST(Controller, RolloutPropagatesAgentFailure) {
  bpf::Program bad;
  bad.name = "bad";
  bad.insns = bpf::Assemble("r0 = r9\nexit\n").value();
  // One unordered wave, then agent 0 alone ahead of agents 1 and 2.
  const std::vector<std::vector<std::vector<std::size_t>>> inputs = {
      {}, {{0}, {1, 2}}};
  for (const auto& waves : inputs) {
    SCOPED_TRACE(waves.size());
    ControllerHarness h(3);
    int reports = 0;
    sim::Start(h.controller.Rollout(bad, 0, waves),
               [&](StatusOr<RolloutResult> r) {
                 EXPECT_FALSE(r.ok());
                 ++reports;
               });
    h.events.Run();
    EXPECT_EQ(reports, 1);
    if (!waves.empty()) {
      // Wave 0 failed, so the later wave never reached its agents.
      EXPECT_FALSE(h.agents[0]->tracer().events().empty());
      EXPECT_TRUE(h.agents[1]->tracer().events().empty());
      EXPECT_TRUE(h.agents[2]->tracer().events().empty());
    }
  }
}

// ---- one load path for both extension kinds ----

// Runs one agent load to completion and returns its outcome.
template <class Source>
StatusOr<AgentTrace> RunLoad(Node& n, const Source& src, int hook = 0) {
  return sim::RunToCompletion(n.events, n.agent->Load(src, hook));
}

// Span name -> duration of everything the agent recorded.
std::map<std::string, sim::Duration> SpanDurations(NodeAgent& agent) {
  std::map<std::string, sim::Duration> spans;
  for (const auto& ev : agent.tracer().events()) spans[ev.name] = ev.dur;
  return spans;
}

class NullHost final : public wasm::WasmHost {
 public:
  StatusOr<std::uint64_t> CallHost(std::int32_t, std::uint64_t,
                                   std::uint64_t) override {
    return 0ull;
  }
};

// A valid and an unverifiable source of each kind.
template <class Source>
struct KindSources;
template <>
struct KindSources<bpf::Program> {
  static bpf::Program Good() {
    return bpf::GenerateProgram({.target_insns = 1300, .seed = 1});
  }
  static bpf::Program Bad() {
    bpf::Program bad;
    bad.name = "bad";
    bad.insns = bpf::Assemble("r0 = r9\nexit\n").value();  // uninit read
    return bad;
  }
};
template <>
struct KindSources<wasm::FilterModule> {
  static wasm::FilterModule Good() { return wasm::GenerateFilter(1300, 1); }
  static wasm::FilterModule Bad() {
    wasm::FilterModule bad;
    bad.name = "bad";
    bad.code = {{wasm::WOp::kAdd, 0}, {wasm::WOp::kReturn, 0}};  // underflow
    return bad;
  }
};

template <class Source>
class AgentLoadTest : public ::testing::Test {};
using ExtensionKinds = ::testing::Types<bpf::Program, wasm::FilterModule>;
TYPED_TEST_SUITE(AgentLoadTest, ExtensionKinds);

TYPED_TEST(AgentLoadTest, StageSpansMatchTraceAndChargeNodeCpu) {
  Node n;
  const double before = n.cpu->Utilization();
  auto trace = RunLoad(n, KindSources<TypeParam>::Good(), 3);
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  for (const auto& ev : n.agent->tracer().events()) {
    EXPECT_EQ(ev.pid, static_cast<std::uint32_t>(n.node->id()));
    EXPECT_EQ(ev.tid, 3u);
  }
  const auto spans = SpanDurations(*n.agent);
  EXPECT_EQ(spans.size(), 5u);
  EXPECT_EQ(spans.at("agent:queue"), trace->queue);
  EXPECT_EQ(spans.at("agent:verify"), trace->verify);
  EXPECT_EQ(spans.at("agent:jit"), trace->jit);
  EXPECT_EQ(spans.at("agent:attach"), trace->attach);
  EXPECT_EQ(spans.at("agent:load"), trace->total);
  // The stages run back to back inside the load span.
  EXPECT_EQ(trace->total,
            trace->queue + trace->verify + trace->jit + trace->attach);
  EXPECT_GT(trace->verify, 0);
  EXPECT_GT(trace->jit, 0);
  EXPECT_GT(n.cpu->Utilization(), before);
  EXPECT_EQ(n.agent->loads_completed(), 1u);
  EXPECT_EQ(n.sandbox->VisibleVersion(3), 1u);
}

TYPED_TEST(AgentLoadTest, RejectedSourceReturnsErrorWithLoadSpanClosed) {
  Node n;
  auto trace = RunLoad(n, KindSources<TypeParam>::Bad());
  EXPECT_FALSE(trace.ok());
  const auto spans = SpanDurations(*n.agent);
  EXPECT_EQ(spans.count("agent:jit"), 0u);
  EXPECT_EQ(spans.count("agent:attach"), 0u);
  // The load span is closed where verification ended.
  EXPECT_GT(spans.at("agent:verify"), 0);
  EXPECT_EQ(spans.at("agent:load"),
            spans.at("agent:queue") + spans.at("agent:verify"));
  EXPECT_EQ(n.agent->loads_completed(), 0u);
  EXPECT_EQ(n.sandbox->VisibleVersion(0), 0u);
}

TYPED_TEST(AgentLoadTest, PushAndRolloutReachEveryAgent) {
  ControllerHarness h(3);
  const TypeParam src = KindSources<TypeParam>::Good();
  const StatusOr<AgentTrace> pushed =
      sim::RunToCompletion(h.events, h.controller.Push(0, src, 1));
  EXPECT_TRUE(pushed.ok()) << pushed.status().ToString();
  EXPECT_GT(h.events.Now(), sim::Millis(5));  // push delay dominates

  const StatusOr<RolloutResult> rolled = sim::RunToCompletion(
      h.events, h.controller.Rollout(src, 1, {{0}, {1, 2}}));
  ASSERT_TRUE(rolled.ok()) << rolled.status().ToString();
  EXPECT_EQ(rolled->nodes, 3u);
  EXPECT_EQ(h.sandboxes[0]->VisibleVersion(1), 2u);
  EXPECT_EQ(h.sandboxes[1]->VisibleVersion(1), 1u);
  EXPECT_EQ(h.sandboxes[2]->VisibleVersion(1), 1u);
}

// ---- one linker ----

// Records the host-table index each host call lands on.
class RecordingHost final : public wasm::WasmHost {
 public:
  StatusOr<std::uint64_t> CallHost(std::int32_t host_fn, std::uint64_t,
                                   std::uint64_t) override {
    calls.push_back(host_fn);
    return 0ull;
  }
  std::vector<std::int32_t> calls;
};

wasm::FilterModule CallsImport(const std::string& import) {
  wasm::FilterModule filter;
  filter.name = "calls_" + import;
  filter.imports = {{import}};
  filter.code = {{wasm::WOp::kConst, 0},
                 {wasm::WOp::kConst, 0},
                 {wasm::WOp::kCallHost, 0},
                 {wasm::WOp::kReturn, 0}};
  return filter;
}

TEST(NodeAgentLink, WasmImportsResolveAgainstSandboxHostTable) {
  core::SandboxConfig config;
  config.wasm_host_fns = {"set_header", "get_header", "counter_incr",
                          "log_event"};
  Node n({}, config);
  ASSERT_TRUE(RunLoad(n, CallsImport("get_header")).ok());
  RecordingHost host;
  ASSERT_TRUE(n.sandbox->ExecuteWasmHook(0, host).ok());
  // This sandbox exports get_header at index 1, which is also the index
  // an RDX deploy resolves it to.
  EXPECT_EQ(host.calls, std::vector<std::int32_t>{1});
}

TEST(NodeAgentLink, UnexportedImportIsRejected) {
  Node n;
  auto trace = RunLoad(n, CallsImport("open_socket"));
  EXPECT_EQ(trace.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_GT(SpanDurations(*n.agent).at("agent:load"), 0);
  EXPECT_EQ(n.sandbox->VisibleVersion(0), 0u);
}

// ---- one hook runtime ----

TEST(SandboxHookKinds, WrongKindFailsWithoutHealthOutcome) {
  Node n;
  ASSERT_TRUE(RunLoad(n, TinyProgram(7), 0).ok());
  ASSERT_TRUE(RunLoad(n, wasm::GenerateFilter(50, 2), 1).ok());
  ASSERT_TRUE(RunLoad(n, TinyProgram(8), 2).ok());
  NullHost host;
  Bytes packet(4, 0);
  // Hooks 0 and 1 run once with their own kind (decoding the image);
  // hook 2 is first executed as the wrong kind, before any decode.
  ASSERT_TRUE(n.sandbox->ExecuteHook(0, packet).ok());
  ASSERT_TRUE(n.sandbox->ExecuteWasmHook(1, host).ok());
  EXPECT_EQ(n.sandbox->ExecuteWasmHook(0, host).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(n.sandbox->ExecuteHook(1, packet).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(n.sandbox->ExecuteWasmHook(2, host).status().code(),
            StatusCode::kFailedPrecondition);
  for (int hook : {0, 1, 2}) {
    const core::HealthView hv = n.sandbox->ReadLocalHealth(hook);
    EXPECT_EQ(hv.executions, hook == 2 ? 0u : 1u) << "hook " << hook;
    EXPECT_EQ(hv.traps, 0u);
    EXPECT_EQ(hv.consecutive_failures, 0u);
  }
  // The right kind still runs.
  EXPECT_EQ(n.sandbox->ExecuteHook(0, packet)->r0, 7u);
  EXPECT_EQ(n.sandbox->ExecuteHook(2, packet)->r0, 8u);
}

}  // namespace
}  // namespace rdx::agent
