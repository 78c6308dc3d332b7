// Full-stack integration scenarios exercising several subsystems at once:
// mixed eBPF + Wasm on one sandbox, agent and RDX managing different
// hooks of the same node, detach/teardown, epoch accounting, multi-node
// consistency under load, and end-to-end migration.
#include <gtest/gtest.h>

#include "agent/agent.h"
#include "bpf/assembler.h"
#include "core/broadcast.h"
#include "mesh/mesh.h"

namespace rdx {
namespace {

using core::CodeFlow;
using core::ControlPlane;
using core::Sandbox;

struct World {
  sim::EventQueue events;
  rdma::Fabric fabric{events};
  std::unique_ptr<ControlPlane> cp;
  std::vector<std::unique_ptr<Sandbox>> sandboxes;
  std::vector<std::unique_ptr<sim::CpuScheduler>> cpus;
  std::vector<std::unique_ptr<agent::NodeAgent>> agents;
  std::vector<CodeFlow*> flows;

  explicit World(int nodes = 1) {
    const rdma::NodeId cp_id = fabric.AddNode("cp", 128u << 20).id();
    cp = std::make_unique<ControlPlane>(events, fabric, cp_id);
    for (int i = 0; i < nodes; ++i) {
      rdma::Node& node = fabric.AddNode("n" + std::to_string(i));
      sandboxes.push_back(std::make_unique<Sandbox>(
          events, node, core::SandboxConfig{}));
      EXPECT_TRUE(sandboxes.back()->CtxInit().ok());
      cpus.push_back(std::make_unique<sim::CpuScheduler>(events, 24, 3.4e9));
      agents.push_back(std::make_unique<agent::NodeAgent>(
          events, *sandboxes.back(), *cpus.back()));
      auto reg = sandboxes.back()->CtxRegister();
      const StatusOr<CodeFlow*> flow = sim::RunToCompletion(
          events, cp->CreateCodeFlow(*sandboxes.back(), reg.value()));
      EXPECT_TRUE(flow.ok());
      events.Run();
      flows.push_back(flow.ok() ? flow.value() : nullptr);
    }
  }

  template <class Source>
  void Inject(CodeFlow& flow, const Source& src, int hook) {
    const StatusOr<core::InjectTrace> r =
        sim::RunToCompletion(events, cp->Inject(flow, src, hook));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    events.Run();
  }
};

class CountingHost final : public wasm::WasmHost {
 public:
  StatusOr<std::uint64_t> CallHost(std::int32_t, std::uint64_t,
                                   std::uint64_t) override {
    ++calls;
    return 1ull;
  }
  int calls = 0;
};

bpf::Program ReturnN(std::uint64_t n) {
  bpf::Program prog;
  prog.name = "ret" + std::to_string(n);
  prog.insns =
      bpf::Assemble("r0 = " + std::to_string(n) + "\nexit\n").value();
  return prog;
}

TEST(Integration, EbpfAndWasmCoexistOnOneSandbox) {
  World world;
  world.Inject(*world.flows[0], ReturnN(5), 0);
  world.Inject(*world.flows[0], wasm::GenerateFilter(100, 1), 1);

  Bytes packet(4, 0);
  EXPECT_EQ(world.sandboxes[0]->ExecuteHook(0, packet)->r0, 5u);
  CountingHost host;
  EXPECT_TRUE(world.sandboxes[0]->ExecuteWasmHook(1, host).ok());
  // Hook type confusion is rejected.
  EXPECT_FALSE(world.sandboxes[0]->ExecuteHook(1, packet).ok());
  EXPECT_FALSE(world.sandboxes[0]->ExecuteWasmHook(0, host).ok());
}

TEST(Integration, AgentAndRdxManageDifferentHooks) {
  World world;
  // Agent owns hook 0, RDX owns hook 1 — both on the same sandbox.
  ASSERT_TRUE(
      sim::RunToCompletion(world.events, world.agents[0]->Load(ReturnN(1), 0))
          .ok());
  world.Inject(*world.flows[0], ReturnN(2), 1);

  Bytes packet(4, 0);
  EXPECT_EQ(world.sandboxes[0]->ExecuteHook(0, packet)->r0, 1u);
  EXPECT_EQ(world.sandboxes[0]->ExecuteHook(1, packet)->r0, 2u);
}

TEST(Integration, DetachEmptiesHook) {
  World world;
  world.Inject(*world.flows[0], ReturnN(9), 0);
  Bytes packet(4, 0);
  EXPECT_EQ(world.sandboxes[0]->ExecuteHook(0, packet)->r0, 9u);

  const Status detached =
      sim::RunToCompletion(world.events, world.cp->Detach(*world.flows[0], 0));
  ASSERT_TRUE(detached.ok()) << detached.ToString();
  world.events.Run();
  // Empty hook falls back to accept-by-default.
  auto result = world.sandboxes[0]->ExecuteHook(0, packet);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->r0, 1u);
  EXPECT_GT(world.sandboxes[0]->stats().empty_hook_executions, 0u);
}

TEST(Integration, CtxTeardownRefcounts) {
  World world;
  world.Inject(*world.flows[0], ReturnN(3), 0);
  Sandbox& sandbox = *world.sandboxes[0];
  EXPECT_TRUE(sandbox.CtxTeardown(0).ok());
  EXPECT_EQ(sandbox.VisibleVersion(0), 0u);
  EXPECT_FALSE(sandbox.CtxTeardown(0).ok());  // already detached
}

TEST(Integration, EpochTracksCommits) {
  World world;
  const std::uint64_t epoch0 =
      world.sandboxes[0]->node().memory()
          .ReadU64(world.flows[0]->remote_view().cb_addr + core::kCbEpoch)
          .value();
  world.Inject(*world.flows[0], ReturnN(1), 0);
  world.Inject(*world.flows[0], ReturnN(2), 0);
  world.events.Run();
  const std::uint64_t epoch2 =
      world.sandboxes[0]->node().memory()
          .ReadU64(world.flows[0]->remote_view().cb_addr + core::kCbEpoch)
          .value();
  EXPECT_EQ(epoch2, epoch0 + 2);
  EXPECT_EQ(world.flows[0]->epoch(), 2u);
}

TEST(Integration, RollbackChainRestoresEachVersion) {
  World world;
  CodeFlow& flow = *world.flows[0];
  for (std::uint64_t v = 1; v <= 4; ++v) {
    world.Inject(flow, ReturnN(v * 10), 0);
  }
  Bytes packet(4, 0);
  EXPECT_EQ(world.sandboxes[0]->ExecuteHook(0, packet)->r0, 40u);
  for (std::uint64_t expect : {30u, 20u, 10u}) {
    ASSERT_TRUE(
        sim::RunToCompletion(world.events, world.cp->Rollback(flow, 0)).ok());
    world.events.Run();
    EXPECT_EQ(world.sandboxes[0]->ExecuteHook(0, packet)->r0, expect);
  }
  // Nothing left to roll back to.
  EXPECT_FALSE(
      sim::RunToCompletion(world.events, world.cp->Rollback(flow, 0)).ok());
}

TEST(Integration, BroadcastWithFailingNodeReportsError) {
  World world(3);
  // Sabotage node 1: exhaust its scratchpad so PrepareImage fails there.
  CodeFlow& victim = *world.flows[1];
  auto& mem = world.sandboxes[1]->node().memory();
  const core::ControlBlockView& cb = victim.remote_view();
  ASSERT_TRUE(mem.WriteU64(cb.cb_addr + core::kCbScratchBrk,
                           cb.scratch_addr + cb.scratch_size)
                  .ok());

  core::CollectiveCodeFlow group(*world.cp, world.flows);
  EXPECT_FALSE(
      sim::RunToCompletion(world.events, group.Broadcast(ReturnN(1), 0, nullptr))
          .ok());
}

TEST(Integration, SharedCompileCacheAcrossNodes) {
  World world(4);
  bpf::Program prog = ReturnN(6);
  for (int i = 0; i < 4; ++i) {
    world.Inject(*world.flows[i], prog, 0);
  }
  // One miss (first node), three hits.
  EXPECT_GE(world.cp->compile_cache_hits(), 3u);
  Bytes packet(4, 0);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(world.sandboxes[i]->ExecuteHook(0, packet)->r0, 6u);
  }
}

TEST(Integration, WasmFilterCountsHostCallsThroughSandbox) {
  World world;
  wasm::FilterModule filter;
  filter.name = "caller";
  filter.num_locals = 1;
  filter.imports = {{"counter_incr"}};
  filter.code = {
      {wasm::WOp::kConst, 1},  {wasm::WOp::kConst, 0},
      {wasm::WOp::kCallHost, 0},
      {wasm::WOp::kReturn, 0},
  };
  world.Inject(*world.flows[0], filter, 2);
  CountingHost host;
  for (int i = 0; i < 7; ++i) {
    auto result = world.sandboxes[0]->ExecuteWasmHook(2, host);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
  }
  EXPECT_EQ(host.calls, 7);
}

TEST(Integration, MigrationEndToEnd) {
  World world(2);
  bpf::Program prog;
  prog.name = "stateful";
  prog.maps.push_back({"state", bpf::MapType::kArray, 4, 8, 1});
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

  world.Inject(*world.flows[0], prog, 0);
  Bytes packet(4, 0);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(world.sandboxes[0]->ExecuteHook(0, packet).ok());
  }

  // Migrate: binary via cached inject, state via CopyXState.
  world.Inject(*world.flows[1], prog, 0);
  ASSERT_TRUE(sim::RunToCompletion(
                  world.events,
                  world.cp->CopyXState(
                      *world.flows[0], world.flows[0]->xstates().at("state"),
                      *world.flows[1], world.flows[1]->xstates().at("state")))
                  .ok());
  world.events.Run();
  world.sandboxes[1]->RefreshXState();
  // The replica continues at 11.
  EXPECT_EQ(world.sandboxes[1]->ExecuteHook(0, packet)->r0, 11u);
}

TEST(Integration, ManyNodesBroadcastUnderLoadKeepsConsistency) {
  sim::EventQueue events;
  rdma::Fabric fabric(events);
  const rdma::NodeId cp_id = fabric.AddNode("cp", 256u << 20).id();
  ControlPlane cp(events, fabric, cp_id);

  mesh::MeshConfig config;
  config.app = mesh::AppSpec::Generate("big", 16, 3);
  config.request_rate_per_s = 3000;
  mesh::MeshSim mesh(events, fabric, config);
  std::vector<CodeFlow*> flows;
  for (std::size_t i = 0; i < mesh.size(); ++i) {
    auto reg = mesh.sandbox(i).CtxRegister();
    const StatusOr<CodeFlow*> flow = sim::RunToCompletion(
        events, cp.CreateCodeFlow(mesh.sandbox(i), reg.value()));
    events.Run();
    flows.push_back(flow.ok() ? flow.value() : nullptr);
  }
  core::CollectiveCodeFlow group(cp, flows);
  wasm::FilterModule v1 = wasm::GenerateFilter(200, 1);
  std::vector<const wasm::FilterModule*> v1s(mesh.size(), &v1);
  ASSERT_TRUE(
      sim::RunToCompletion(events, group.BroadcastWasm(v1s, 0, nullptr)).ok());
  events.Run();

  mesh.StartWorkload();
  events.RunUntil(events.Now() + sim::Millis(100));
  (void)mesh.TakeMetrics();

  // Three consecutive BBU updates under live traffic: zero mixed.
  for (std::uint64_t round = 2; round <= 4; ++round) {
    wasm::FilterModule vn = wasm::GenerateFilter(200, round);
    std::vector<const wasm::FilterModule*> vns(mesh.size(), &vn);
    const StatusOr<core::BroadcastResult> r =
        sim::RunToCompletion(events, group.BroadcastWasm(vns, 0, &mesh));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    events.RunUntil(events.Now() + sim::Millis(50));
  }
  mesh.StopWorkload();
  mesh::MeshMetrics metrics = mesh.TakeMetrics();
  EXPECT_EQ(metrics.mixed_version, 0u);
  EXPECT_EQ(metrics.failed, 0u);
  EXPECT_GT(metrics.completed, 100u);
}

}  // namespace
}  // namespace rdx
