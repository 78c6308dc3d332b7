// Integration tests of the RDX pipeline: sandbox boot (management stubs),
// CodeFlow creation, remote validate/JIT/link/deploy over the simulated
// fabric, XState, sync primitives, rollback, and collective broadcast.
#include <gtest/gtest.h>

#include <optional>
#include <tuple>
#include <vector>

#include "bpf/assembler.h"
#include "bpf/proggen.h"
#include "core/broadcast.h"
#include "core/codeflow.h"
#include "core/reliability.h"
#include "wasm/filter.h"

namespace rdx::core {
namespace {

struct Cluster {
  sim::EventQueue events;
  rdma::Fabric fabric{events};
  rdma::Node* cp_node;
  ControlPlane* cp;
  std::vector<std::unique_ptr<Sandbox>> sandboxes;
  std::vector<CodeFlow*> flows;
  std::unique_ptr<ControlPlane> cp_owner;

  explicit Cluster(int nodes = 1, ControlPlaneConfig config = {}) {
    cp_node = &fabric.AddNode("control-plane", 64u << 20);
    cp_owner = std::make_unique<ControlPlane>(events, fabric, cp_node->id(),
                                              config);
    cp = cp_owner.get();
    for (int i = 0; i < nodes; ++i) {
      rdma::Node& node = fabric.AddNode("node" + std::to_string(i));
      auto sandbox = std::make_unique<Sandbox>(events, node, SandboxConfig{});
      EXPECT_TRUE(sandbox->CtxInit().ok());
      auto reg = sandbox->CtxRegister();
      EXPECT_TRUE(reg.ok());
      const StatusOr<CodeFlow*> flow = sim::RunToCompletion(
          events, cp->CreateCodeFlow(*sandbox, reg.value()));
      EXPECT_TRUE(flow.ok()) << flow.status().ToString();
      events.Run();
      flows.push_back(flow.ok() ? flow.value() : nullptr);
      sandboxes.push_back(std::move(sandbox));
    }
  }

  // Runs the event queue until done-flag set (or queue drained).
  template <typename Fn>
  void RunUntil(Fn&& flag) {
    while (!flag() && !events.Empty()) events.Step();
  }
};

bpf::Program CounterProgram() {
  // Counts packets whose first byte is odd into map slot 0, returns the
  // first ctx byte.
  bpf::Program prog;
  prog.name = "counter";
  prog.maps.push_back({"counters", bpf::MapType::kArray, 4, 8, 4});
  auto insns = bpf::Assemble(R"(
    r6 = *(u32*)(r1 + 0)
    *(u32*)(r10 - 4) = 0
    r1 = map 0
    r2 = r10
    r2 += -4
    call map_lookup_elem
    if r0 == 0 goto out
    r7 = *(u64*)(r0 + 0)
    r7 += 1
    *(u64*)(r0 + 0) = r7
  out:
    r0 = r6
    exit
  )");
  EXPECT_TRUE(insns.ok()) << insns.status().ToString();
  prog.insns = std::move(insns).value();
  return prog;
}

TEST(CodeFlowCreate, ReadsControlBlockAndSymbols) {
  Cluster cluster;
  CodeFlow& flow = *cluster.flows[0];
  EXPECT_EQ(flow.remote_view().hook_count, 8u);
  EXPECT_GT(flow.remote_view().scratch_size, 0u);
  // Helper symbols exported by the sandbox are resolvable.
  EXPECT_TRUE(flow.Symbol(SymbolHash("helper:", bpf::kHelperMapLookupElem)).ok());
  EXPECT_TRUE(flow.Symbol(SymbolHashName("host:", "get_header")).ok());
  EXPECT_FALSE(flow.Symbol(SymbolHashName("host:", "nonexistent")).ok());
}

// CtxInit sizes the symbol-table region from the export counts; Boot then
// writes the table into it. The two must agree exactly.
TEST(SandboxBoot, SymbolTableFillsItsRegion) {
  for (std::size_t extra : {0u, 3u}) {
    SCOPED_TRACE(extra);
    sim::EventQueue events;
    rdma::Fabric fabric{events};
    rdma::Node& node = fabric.AddNode("node");
    SandboxConfig config;
    for (std::size_t i = 0; i < extra; ++i) {
      config.wasm_host_fns.push_back("extra" + std::to_string(i));
    }
    Sandbox sandbox(events, node, config);
    ASSERT_TRUE(sandbox.CtxInit().ok());
    std::uint8_t count[4];
    ASSERT_TRUE(node.memory().Read(sandbox.view().symtab_addr, count).ok());
    EXPECT_EQ(LoadLE<std::uint32_t>(count), sandbox.ExportedSymbols().size());
    EXPECT_EQ(sandbox.view().symtab_len,
              4 + 16 * sandbox.ExportedSymbols().size());
  }
}

// The symbol hashes are a wire contract: the sandbox publishes them in its
// symbol table and the control plane looks them up by value.
TEST(SymbolHash, MatchesPublishedValues) {
  // FNV-1a 64 of "helper:" + u64le(1) and of "host:get_header".
  EXPECT_EQ(SymbolHash("helper:", bpf::kHelperMapLookupElem),
            0x45633cbe70733394ull);
  EXPECT_EQ(SymbolHashName("host:", "get_header"), 0xa61a726a2eeafadbull);
}

TEST(Inject, EndToEndDeployAndExecute) {
  Cluster cluster;
  CodeFlow& flow = *cluster.flows[0];
  Sandbox& sandbox = *cluster.sandboxes[0];

  bpf::Program prog = CounterProgram();
  const StatusOr<InjectTrace> trace = sim::RunToCompletion(
      cluster.events, cluster.cp->Inject(flow, prog, /*hook=*/0));
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  cluster.events.Run();
  EXPECT_GT(trace->total, 0);
  EXPECT_GT(trace->image_bytes, 0u);
  EXPECT_FALSE(trace->compile_cache_hit);

  // The data plane executes the injected program.
  Bytes packet = {0x05, 0x00, 0x00, 0x00};
  auto result = sandbox.ExecuteHook(0, packet);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->r0, 5u);
  auto again = sandbox.ExecuteHook(0, packet);
  ASSERT_TRUE(again.ok());

  // Each execution bumped the counter map; read it back remotely.
  const std::uint64_t xstate_addr = flow.xstates().at("counters");
  Bytes key(4, 0);
  const StatusOr<Bytes> value = sim::RunToCompletion(
      cluster.events, cluster.cp->XStateLookup(flow, xstate_addr, key));
  ASSERT_TRUE(value.ok()) << value.status().ToString();
  cluster.events.Run();
  ASSERT_EQ(value->size(), 8u);
  EXPECT_EQ(LoadLE<std::uint64_t>(value->data()), 2u);
}

TEST(Inject, SecondInjectionHitsCompileCache) {
  Cluster cluster;
  CodeFlow& flow = *cluster.flows[0];
  bpf::Program prog = CounterProgram();

  ASSERT_TRUE(
      sim::RunToCompletion(cluster.events, cluster.cp->Inject(flow, prog, 0))
          .ok());
  cluster.events.Run();
  const StatusOr<InjectTrace> trace2 =
      sim::RunToCompletion(cluster.events, cluster.cp->Inject(flow, prog, 1));
  ASSERT_TRUE(trace2.ok());
  cluster.events.Run();
  EXPECT_TRUE(trace2->compile_cache_hit);
  EXPECT_GE(cluster.cp->compile_cache_hits(), 1u);
  // Cached injection skips verify+JIT: it must be far below a fresh one.
  EXPECT_LT(sim::ToMicros(trace2->validate + trace2->jit), 10.0);
}

TEST(Inject, RemoteXStateUpdateVisibleToDataPlane) {
  Cluster cluster;
  CodeFlow& flow = *cluster.flows[0];
  Sandbox& sandbox = *cluster.sandboxes[0];

  ASSERT_TRUE(sim::RunToCompletion(cluster.events,
                                   cluster.cp->Inject(flow, CounterProgram(), 0))
                  .ok());
  cluster.events.Run();

  // Control plane seeds the counter to 100 via remote XState update.
  const std::uint64_t xstate_addr = flow.xstates().at("counters");
  Bytes key(4, 0);
  Bytes value(8, 0);
  StoreLE<std::uint64_t>(value.data(), 100);
  const Status updated = sim::RunToCompletion(
      cluster.events, cluster.cp->XStateUpdate(flow, xstate_addr, key, value));
  ASSERT_TRUE(updated.ok()) << updated.ToString();
  cluster.events.Run();

  Bytes packet = {0x01, 0, 0, 0};
  ASSERT_TRUE(sandbox.ExecuteHook(0, packet).ok());
  const StatusOr<Bytes> v = sim::RunToCompletion(
      cluster.events, cluster.cp->XStateLookup(flow, xstate_addr, key));
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(LoadLE<std::uint64_t>(v->data()), 101u);
  cluster.events.Run();
}

TEST(Rollback, RevertsToPreviousVersion) {
  Cluster cluster;
  CodeFlow& flow = *cluster.flows[0];
  Sandbox& sandbox = *cluster.sandboxes[0];

  // v1 returns 1, v2 returns 2.
  bpf::Program v1, v2;
  v1.name = "v1";
  v1.insns = bpf::Assemble("r0 = 1\nexit\n").value();
  v2.name = "v2";
  v2.insns = bpf::Assemble("r0 = 2\nexit\n").value();

  ASSERT_TRUE(
      sim::RunToCompletion(cluster.events, cluster.cp->Inject(flow, v1, 0))
          .ok());
  cluster.events.Run();
  Bytes packet(4, 0);
  EXPECT_EQ(sandbox.ExecuteHook(0, packet)->r0, 1u);

  ASSERT_TRUE(
      sim::RunToCompletion(cluster.events, cluster.cp->Inject(flow, v2, 0))
          .ok());
  cluster.events.Run();
  EXPECT_EQ(sandbox.ExecuteHook(0, packet)->r0, 2u);

  // Microsecond rollback: no re-transfer, just a desc re-commit.
  const sim::SimTime before = cluster.events.Now();
  const Status rolled_back =
      sim::RunToCompletion(cluster.events, cluster.cp->Rollback(flow, 0));
  ASSERT_TRUE(rolled_back.ok()) << rolled_back.ToString();
  cluster.events.Run();
  const sim::Duration rollback_time = cluster.events.Now() - before;
  EXPECT_LT(sim::ToMicros(rollback_time), 50.0);
  EXPECT_EQ(sandbox.ExecuteHook(0, packet)->r0, 1u);
}

TEST(SyncPrimitives, LockExcludesSecondOwner) {
  Cluster cluster;
  CodeFlow& flow = *cluster.flows[0];

  const Status locked =
      sim::RunToCompletion(cluster.events, cluster.cp->Lock(flow, 7));
  ASSERT_TRUE(locked.ok()) << locked.ToString();
  cluster.events.Run();

  // Second acquisition must be refused.
  EXPECT_EQ(
      sim::RunToCompletion(cluster.events, cluster.cp->Lock(flow, 8)).code(),
      StatusCode::kAborted);
  cluster.events.Run();
  // Local CPU also sees it held.
  EXPECT_FALSE(cluster.sandboxes[0]->TryLockLocal(9));

  ASSERT_TRUE(
      sim::RunToCompletion(cluster.events, cluster.cp->Unlock(flow, 7)).ok());
  cluster.events.Run();
  EXPECT_TRUE(cluster.sandboxes[0]->TryLockLocal(9));
  cluster.sandboxes[0]->UnlockLocal(9);
}

TEST(SyncPrimitives, TxLandsPayloadThenSwingsQword) {
  Cluster cluster;
  CodeFlow& flow = *cluster.flows[0];
  Sandbox& sandbox = *cluster.sandboxes[0];

  Bytes payload = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  const std::uint64_t qword_addr = flow.remote_view().hook_table_addr + 8;
  const StatusOr<std::uint64_t> tx = sim::RunToCompletion(
      cluster.events, cluster.cp->Tx(flow, payload, qword_addr, 0x1234));
  ASSERT_TRUE(tx.ok()) << tx.status().ToString();
  cluster.events.Run();
  const std::uint64_t payload_addr = tx.value();
  ASSERT_NE(payload_addr, 0u);
  Bytes landed(payload.size());
  ASSERT_TRUE(sandbox.node().memory().Read(payload_addr, landed).ok());
  EXPECT_EQ(landed, payload);
  EXPECT_EQ(sandbox.node().memory().ReadU64(qword_addr).value(), 0x1234u);
}

// Tracks whether a BBU barrier is still holding requests.
class RecordingBarrier final : public UpdateBarrier {
 public:
  void BeginBuffering() override {
    buffering = true;
    ++begins;
  }
  void ReleaseBuffered() override {
    buffering = false;
    ++releases;
  }
  std::size_t BufferedCount() const override { return 0; }
  bool buffering = false;
  int begins = 0;
  int releases = 0;
};

TEST(Broadcast, FailedBuildReleasesBarrier) {
  Cluster cluster(2);
  CollectiveCodeFlow group(*cluster.cp, cluster.flows);
  bpf::Program bad;
  bad.name = "bad";
  bad.insns = bpf::Assemble("r0 = r5\nexit\n").value();  // uninit read
  RecordingBarrier barrier;
  EXPECT_FALSE(
      sim::RunToCompletion(cluster.events, group.Broadcast(bad, 0, &barrier))
          .ok());
  EXPECT_FALSE(barrier.buffering) << "barrier still buffering at done";
  cluster.events.Run();
  EXPECT_EQ(barrier.begins, 1);
  EXPECT_EQ(barrier.releases, 1);
  EXPECT_FALSE(barrier.buffering);
}

TEST(Broadcast, DeploysToAllNodesWithTightCommitWindow) {
  Cluster cluster(4);
  CollectiveCodeFlow group(*cluster.cp, cluster.flows);
  bpf::Program prog = CounterProgram();

  const StatusOr<BroadcastResult> broadcast =
      sim::RunToCompletion(cluster.events, group.Broadcast(prog, 0, nullptr));
  ASSERT_TRUE(broadcast.ok()) << broadcast.status().ToString();
  cluster.events.Run();
  const BroadcastResult& result = broadcast.value();
  EXPECT_EQ(result.nodes, 4u);
  // Parallel commits: the window between first and last commit is tiny
  // compared to the prepare phase.
  EXPECT_LT(result.commit_window, result.prepare_time);
  EXPECT_LT(sim::ToMicros(result.commit_window), 50.0);
  for (auto& sandbox : cluster.sandboxes) {
    Bytes packet = {0x09, 0, 0, 0};
    auto r = sandbox->ExecuteHook(0, packet);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->r0, 9u);
  }
}

// Tearing the simulation down mid-flight frees every suspended flow: the
// pending callback that would resume a chain owns it, and the chain owns
// its caller's callback, so none leaks and none fires.
TEST(Teardown, InFlightFlowsDieWithTheSimulation) {
  auto token = std::make_shared<int>(0);
  int fired = 0;
  {
    Cluster cluster(2);
    CollectiveCodeFlow group(*cluster.cp, cluster.flows);
    RecoveryManager recovery(*cluster.cp);
    const bpf::Program prog = CounterProgram();
    sim::Start(cluster.cp->Inject(*cluster.flows[0], prog, 0),
               [token, &fired](StatusOr<InjectTrace>) { ++fired; });
    sim::Start(group.Broadcast(prog, 1, nullptr),
               [token, &fired](StatusOr<BroadcastResult>) { ++fired; });
    group.DeployPipelined(
        {DeploySpec{&prog, 2}}, PipelineOptions{},
        [token, &fired](StatusOr<PipelineResult>) { ++fired; });
    sim::Start(recovery.DeployReliably(*cluster.flows[1], prog, 3),
               [token, &fired](StatusOr<RecoveryOutcome>) { ++fired; });
    cluster.events.RunUntil(cluster.events.Now() + sim::Micros(5));
    EXPECT_EQ(token.use_count(), 5);
  }
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(token.use_count(), 1);
}

// The desc address committed in `hook`'s slot, read from the node itself.
std::uint64_t SlotDesc(Cluster& cluster, int node, int hook) {
  return cluster.sandboxes[node]
      ->node()
      .memory()
      .ReadU64(cluster.flows[node]->remote_view().hook_table_addr +
               static_cast<std::uint64_t>(hook) * 8)
      .value();
}

// Quarantines whatever node 0 runs at `hook` (revert target: detach).
void QuarantineNode0(Cluster& cluster, int hook) {
  const Status s = sim::RunToCompletion(
      cluster.events,
      cluster.cp->QuarantineHook(*cluster.flows[0], hook,
                                 SlotDesc(cluster, 0, hook),
                                 /*good_desc=*/0));
  ASSERT_TRUE(s.ok()) << s.ToString();
  cluster.events.Run();
}

TEST(Broadcast, QuarantineAfterBroadcastBlacklistsProgram) {
  Cluster cluster(2);
  CollectiveCodeFlow group(*cluster.cp, cluster.flows);
  bpf::Program prog = CounterProgram();
  const StatusOr<BroadcastResult> r =
      sim::RunToCompletion(cluster.events, group.Broadcast(prog, 0, nullptr));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  cluster.events.Run();

  QuarantineNode0(cluster, 0);
  EXPECT_TRUE(cluster.cp->IsBlacklisted(ProgramFingerprint(prog)));
  const Status redeploy =
      sim::RunToCompletion(cluster.events, cluster.cp->ValidateCode(prog));
  EXPECT_EQ(redeploy.code(), StatusCode::kPermissionDenied);
}

TEST(Broadcast, QuarantineAfterBroadcastWasmBlacklistsFilter) {
  Cluster cluster(2);
  CollectiveCodeFlow group(*cluster.cp, cluster.flows);
  const wasm::FilterModule filter = wasm::GenerateFilter(200, 4);
  const StatusOr<BroadcastResult> r = sim::RunToCompletion(
      cluster.events, group.BroadcastWasm({&filter, &filter}, 1, nullptr));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  cluster.events.Run();

  QuarantineNode0(cluster, 1);
  EXPECT_TRUE(cluster.cp->IsBlacklisted(WasmFingerprint(filter)));
  const Status redeploy =
      sim::RunToCompletion(cluster.events, cluster.cp->ValidateCode(filter));
  EXPECT_EQ(redeploy.code(), StatusCode::kPermissionDenied);
}

// Every (use_doorbell_batching, use_cc_event) baseline commits through the
// one commit tail: the epoch FAA and the cc_event flush share the commit's
// doorbell only when both are on, and are separate posts otherwise.
class CommitTailTest
    : public ::testing::TestWithParam<std::tuple<bool, bool>> {};

TEST_P(CommitTailTest, CasAndWriteCommitsBecomeVisible) {
  const auto [batching, cc_event] = GetParam();
  const bool chained = batching && cc_event;
  ControlPlaneConfig config;
  config.use_doorbell_batching = batching;
  config.use_cc_event = cc_event;
  Cluster cluster(1, config);
  CodeFlow& flow = *cluster.flows[0];
  Sandbox& sandbox = *cluster.sandboxes[0];

  const StatusOr<InjectTrace> injected = sim::RunToCompletion(
      cluster.events, cluster.cp->Inject(flow, CounterProgram(), 0));
  ASSERT_TRUE(injected.ok()) << injected.status().ToString();
  cluster.events.Run();
  const std::uint64_t v1_desc = SlotDesc(cluster, 0, 0);

  // Prepare v2 and CAS-commit it over v1.
  const bpf::Program prog2 =
      bpf::GenerateProgram({.target_insns = 200, .seed = 5});
  const StatusOr<ImagePtr<bpf::Program>> image =
      sim::RunToCompletion(cluster.events, cluster.cp->Build(prog2));
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  cluster.events.Run();
  ASSERT_NE(*image, nullptr);
  const StatusOr<ControlPlane::PreparedImage> prepared = sim::RunToCompletion(
      cluster.events, cluster.cp->LinkAndPrepare(flow, prog2, **image, 0,
                                                 ProgramFingerprint(prog2)));
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  cluster.events.Run();

  std::uint64_t doorbells = cluster.fabric.doorbells_rung();
  std::uint64_t chained_wrs = cluster.fabric.chained_wrs();
  const Status committed = sim::RunToCompletion(
      cluster.events, cluster.cp->CommitPreparedCas(flow, 0, *prepared, v1_desc));
  ASSERT_TRUE(committed.ok()) << committed.ToString();
  cluster.events.Run();
  EXPECT_EQ(flow.HookVersion(0), 2u);
  EXPECT_EQ(sandbox.CommittedVersion(0), 2u);
  EXPECT_EQ(sandbox.VisibleVersion(0), sandbox.CommittedVersion(0));
  // The CAS, then the FAA + flush: one chain, or one post each.
  EXPECT_EQ(cluster.fabric.doorbells_rung() - doorbells,
            chained ? 2u : (cc_event ? 3u : 2u));
  EXPECT_EQ(cluster.fabric.chained_wrs() - chained_wrs, chained ? 2u : 0u);

  // Rollback commits by slot write: write + FAA + flush.
  doorbells = cluster.fabric.doorbells_rung();
  chained_wrs = cluster.fabric.chained_wrs();
  const Status rolled_back =
      sim::RunToCompletion(cluster.events, cluster.cp->Rollback(flow, 0));
  ASSERT_TRUE(rolled_back.ok()) << rolled_back.ToString();
  cluster.events.Run();
  EXPECT_EQ(SlotDesc(cluster, 0, 0), v1_desc);
  EXPECT_EQ(sandbox.CommittedVersion(0), 1u);
  EXPECT_EQ(sandbox.VisibleVersion(0), sandbox.CommittedVersion(0));
  EXPECT_EQ(cluster.fabric.doorbells_rung() - doorbells,
            chained ? 1u : (cc_event ? 3u : 2u));
  EXPECT_EQ(cluster.fabric.chained_wrs() - chained_wrs, chained ? 3u : 0u);
}

INSTANTIATE_TEST_SUITE_P(BatchingCcEvent, CommitTailTest,
                         ::testing::Combine(::testing::Bool(),
                                            ::testing::Bool()));

TEST(VanillaMode, InPlaceRewriteCanTearImages) {
  ControlPlaneConfig vanilla;
  vanilla.use_tx = false;
  vanilla.use_cc_event = false;
  vanilla.chunk_bytes = 512;  // many WRs -> wide torn window
  Cluster cluster(1, vanilla);
  CodeFlow& flow = *cluster.flows[0];
  Sandbox& sandbox = *cluster.sandboxes[0];

  bpf::Program big = bpf::GenerateProgram({.target_insns = 6000, .seed = 2});
  const StatusOr<InjectTrace> first =
      sim::RunToCompletion(cluster.events, cluster.cp->Inject(flow, big, 0));
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  cluster.events.Run();
  // Make the CPU's view current.
  sandbox.RefreshHooks();
  cluster.events.Run();
  Bytes packet(8, 1);
  ASSERT_TRUE(sandbox.ExecuteHook(0, packet).ok());

  // Second injection of different code overwrites the live image in
  // place. Execute mid-flight: the image must be detected as torn.
  bpf::Program big2 = bpf::GenerateProgram({.target_insns = 3000, .seed = 3});
  ASSERT_LT(3000u, 6000u);  // big2 must fit in big's region for in-place rewrite
  bool done2 = false;
  sim::Start(cluster.cp->Inject(flow, big2, 0), [&](StatusOr<InjectTrace> r) {
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    done2 = true;
  });
  // Drive the simulation in 200 ns slices; in each slice the data-plane
  // CPU refreshes its hook view and executes — racing the in-flight
  // chunked rewrite.
  bool torn_seen = false;
  for (int steps = 0; steps < 100000 && !done2; ++steps) {
    cluster.events.RunUntil(cluster.events.Now() + 200);
    sandbox.ScheduleHookRefresh(0, 0);
    cluster.events.RunUntil(cluster.events.Now());
    auto r = sandbox.ExecuteHook(0, packet);
    if (!r.ok()) torn_seen = true;
  }
  cluster.events.Run();
  ASSERT_TRUE(done2);
  EXPECT_TRUE(torn_seen);
  EXPECT_GT(sandbox.stats().torn_image_failures, 0u);
}

std::uint64_t CpCounter(Cluster& cluster, const char* name) {
  telemetry::MetricsRegistry reg;
  cluster.cp->ExportMetrics(reg);
  return reg.counter(name);
}

// Eight overlapping builds of one never-seen filter, as a Wasm broadcast
// to eight nodes issues them. The virtual schedule is the one the control
// plane always had: node 0 validates (nodes 1-7 take its verdict, stored
// before the charge) and finds the image published by the time its
// validate charge ends; nodes 1-7 each miss and pay a compile charge.
// The host runs the compiler once and all eight get the same image.
TEST(Build, OverlappingBuildsCompileOnceOnTheHost) {
  Cluster cluster(0);
  ControlPlane& cp = *cluster.cp;
  const wasm::FilterModule filter = wasm::GenerateFilter(200, 7);
  const std::uint64_t fp = WasmFingerprint(filter);
  std::vector<sim::SimTime> done_at(8, -1);
  std::vector<ImagePtr<wasm::FilterModule>> images(8);
  for (int i = 0; i < 8; ++i) {
    sim::Start(cp.Build(filter),
               [&, i](StatusOr<ImagePtr<wasm::FilterModule>> image) {
                 ASSERT_TRUE(image.ok()) << image.status().ToString();
                 images[i] = *image;
                 done_at[i] = cluster.events.Now();
               });
  }
  // 1 validate charge + 7 compile charges; the parked image is not
  // visible before a charge ends.
  EXPECT_EQ(cp.cpu().ActiveTasks(), 8);
  EXPECT_FALSE(cp.artifact_cache().HasImage(ImageKind::kWasm, fp));
  cluster.events.Run();

  const std::vector<sim::SimTime> expected = {404000, 141400, 141400, 141400,
                                              141400, 141400, 141400, 141400};
  EXPECT_EQ(done_at, expected);
  // 1 verdict miss + 7 image misses; 7 verdict hits + node 0's image hit.
  EXPECT_EQ(cp.compile_cache_misses(), 8u);
  EXPECT_EQ(cp.compile_cache_hits(), 8u);
  EXPECT_EQ(CpCounter(cluster, "cp.compile.images_built"), 1u);
  EXPECT_EQ(CpCounter(cluster, "cp.compile.images_shared"), 6u);
  ASSERT_NE(images[0], nullptr);
  for (const auto& image : images) EXPECT_EQ(image, images[0]);
  EXPECT_TRUE(cp.artifact_cache().HasImage(ImageKind::kWasm, fp));
}

// A build torn down during its compile charge publishes nothing. Its
// parked image waits for the next caller, which pays a whole charge of its
// own before the image becomes visible.
TEST(Build, TornDownCompileLeavesItsImageForTheNextCaller) {
  const wasm::FilterModule filter = wasm::GenerateFilter(200, 7);
  const std::uint64_t fp = WasmFingerprint(filter);
  // An uncontended compile charge, measured on a fresh control plane.
  sim::Duration compile_ns = 0;
  {
    Cluster solo(0);
    ASSERT_TRUE(
        sim::RunToCompletion(solo.events, solo.cp->ValidateCode(filter)).ok());
    solo.events.Run();
    const sim::SimTime start = solo.events.Now();
    ASSERT_TRUE(sim::RunToCompletion(solo.events, solo.cp->Build(filter)).ok());
    solo.events.Run();
    compile_ns = solo.events.Now() - start;
  }
  ASSERT_GT(compile_ns, 0);

  Cluster cluster(0);
  ControlPlane& cp = *cluster.cp;
  ASSERT_TRUE(
      sim::RunToCompletion(cluster.events, cp.ValidateCode(filter)).ok());
  cluster.events.Run();
  // The id the next CPU task gets: the torn-down build's compile charge.
  const sim::CpuScheduler::TaskId probe = cp.cpu().Submit(1, [] {});
  cp.cpu().Abort(probe);
  bool first_done = false;
  sim::Start(cp.Build(filter), [&](StatusOr<ImagePtr<wasm::FilterModule>>) {
    first_done = true;
  });
  ASSERT_EQ(cp.cpu().ActiveTasks(), 1);
  cluster.events.RunUntil(cluster.events.Now() + compile_ns / 2);
  cp.cpu().Abort(probe + 1);
  cluster.events.Run();
  EXPECT_FALSE(first_done);
  EXPECT_FALSE(cp.artifact_cache().HasImage(ImageKind::kWasm, fp));

  const sim::SimTime start = cluster.events.Now();
  ImagePtr<wasm::FilterModule> image;
  sim::Start(cp.Build(filter),
             [&](StatusOr<ImagePtr<wasm::FilterModule>> r) {
               ASSERT_TRUE(r.ok()) << r.status().ToString();
               EXPECT_TRUE(cp.artifact_cache().HasImage(ImageKind::kWasm, fp));
               image = *r;
             });
  EXPECT_FALSE(cp.artifact_cache().HasImage(ImageKind::kWasm, fp));
  cluster.events.Run();
  ASSERT_NE(image, nullptr);
  EXPECT_EQ(cluster.events.Now() - start, compile_ns);
  EXPECT_EQ(CpCounter(cluster, "cp.compile.images_built"), 1u);
  EXPECT_EQ(CpCounter(cluster, "cp.compile.images_shared"), 1u);
}

// A quarantine lands while an Inject of the same fingerprint is between
// its compile and its commit. The eviction must not free the image the
// inject is linking (it holds its own reference), and the commit is
// refused: a blacklisted fingerprint never goes live.
TEST(Inject, BlacklistDuringDeployRefusesCommit) {
  Cluster cluster(1);
  const bpf::Program prog = CounterProgram();
  const std::uint64_t fp = ProgramFingerprint(prog);
  std::optional<Status> result;
  sim::Start(cluster.cp->Inject(*cluster.flows[0], prog, 0),
             [&](StatusOr<InjectTrace> r) { result = r.status(); });
  cluster.RunUntil([&] {
    return cluster.cp->artifact_cache().HasImage(ImageKind::kEbpf, fp);
  });
  ASSERT_FALSE(result.has_value());
  cluster.cp->BlacklistFingerprint(fp);
  cluster.events.Run();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->code(), StatusCode::kPermissionDenied)
      << result->ToString();
  EXPECT_EQ(cluster.sandboxes[0]->CommittedVersion(0), 0u);
  EXPECT_EQ(SlotDesc(cluster, 0, 0), 0u);
}

// With use_lock a commit waits for the sandbox lock. A quarantine that
// lands during that wait is caught at the commit point, once the lock is
// held: the image never goes live and the lock is released.
TEST(Inject, BlacklistDuringLockWaitRefusesCommit) {
  ControlPlaneConfig config;
  config.use_lock = true;
  Cluster cluster(1, config);
  Sandbox& sandbox = *cluster.sandboxes[0];
  const bpf::Program prog = CounterProgram();
  const std::uint64_t fp = ProgramFingerprint(prog);
  ASSERT_TRUE(sandbox.TryLockLocal(9));  // another owner holds the lock
  std::optional<Status> result;
  sim::Start(cluster.cp->Inject(*cluster.flows[0], prog, 0),
             [&](StatusOr<InjectTrace> r) { result = r.status(); });
  // Ample time to build and prepare the image; the commit then retries
  // the lock CAS for as long as the other owner holds it.
  cluster.events.RunUntil(cluster.events.Now() + sim::Millis(10));
  ASSERT_FALSE(result.has_value());
  ASSERT_TRUE(cluster.cp->artifact_cache().HasImage(ImageKind::kEbpf, fp));
  cluster.cp->BlacklistFingerprint(fp);
  sandbox.UnlockLocal(9);
  cluster.events.Run();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->code(), StatusCode::kPermissionDenied)
      << result->ToString();
  EXPECT_EQ(sandbox.CommittedVersion(0), 0u);
  EXPECT_EQ(SlotDesc(cluster, 0, 0), 0u);
  EXPECT_TRUE(sandbox.TryLockLocal(9));
}

// Rollback commits through the same commit point: a rollback target built
// from a quarantined fingerprint is refused, and the slot keeps the image
// the quarantine left.
TEST(Rollback, RefusesQuarantinedFingerprint) {
  Cluster cluster;
  CodeFlow& flow = *cluster.flows[0];
  Sandbox& sandbox = *cluster.sandboxes[0];
  bpf::Program a, b;
  a.name = "a";
  a.insns = bpf::Assemble("r0 = 1\nexit\n").value();
  b.name = "b";
  b.insns = bpf::Assemble("r0 = 2\nexit\n").value();
  // v1 = a, v2 = b, v3 = a again.
  std::vector<std::uint64_t> descs;
  for (const bpf::Program* prog : {&a, &b, &a}) {
    ASSERT_TRUE(
        sim::RunToCompletion(cluster.events, cluster.cp->Inject(flow, *prog, 0))
            .ok());
    cluster.events.Run();
    descs.push_back(SlotDesc(cluster, 0, 0));
  }
  // Quarantine v3 back to v2: a is blacklisted, and v1 (built from a) is
  // the only rollback target left.
  ASSERT_TRUE(sim::RunToCompletion(
                  cluster.events,
                  cluster.cp->QuarantineHook(flow, 0, descs[2], descs[1]))
                  .ok());
  cluster.events.Run();
  ASSERT_TRUE(cluster.cp->IsBlacklisted(ProgramFingerprint(a)));

  const Status rolled_back =
      sim::RunToCompletion(cluster.events, cluster.cp->Rollback(flow, 0));
  cluster.events.Run();
  EXPECT_EQ(rolled_back.code(), StatusCode::kPermissionDenied)
      << rolled_back.ToString();
  EXPECT_EQ(SlotDesc(cluster, 0, 0), descs[1]);
  EXPECT_EQ(sandbox.CommittedVersion(0), 2u);
  Bytes packet(4, 0);
  EXPECT_EQ(sandbox.ExecuteHook(0, packet)->r0, 2u);
}

// A rollback whose commit fails keeps its target: after a reconnect the
// same rollback succeeds and runs the previous version.
TEST(Rollback, FailedCommitKeepsTarget) {
  Cluster cluster;
  CodeFlow& flow = *cluster.flows[0];
  Sandbox& sandbox = *cluster.sandboxes[0];
  bpf::Program a, b;
  a.name = "a";
  a.insns = bpf::Assemble("r0 = 1\nexit\n").value();
  b.name = "b";
  b.insns = bpf::Assemble("r0 = 2\nexit\n").value();
  for (const bpf::Program* prog : {&a, &b}) {
    ASSERT_TRUE(
        sim::RunToCompletion(cluster.events, cluster.cp->Inject(flow, *prog, 0))
            .ok());
    cluster.events.Run();
  }
  for (rdma::QueuePair* qp : cluster.fabric.QpsTouching(flow.node())) {
    qp->SetError();
  }
  const Status failed =
      sim::RunToCompletion(cluster.events, cluster.cp->Rollback(flow, 0));
  cluster.events.Run();
  EXPECT_EQ(failed.code(), StatusCode::kUnavailable) << failed.ToString();
  EXPECT_EQ(sandbox.CommittedVersion(0), 2u);

  ASSERT_TRUE(
      sim::RunToCompletion(cluster.events, cluster.cp->ReconnectCodeFlow(flow))
          .ok());
  cluster.events.Run();
  const Status rolled_back =
      sim::RunToCompletion(cluster.events, cluster.cp->Rollback(flow, 0));
  cluster.events.Run();
  ASSERT_TRUE(rolled_back.ok()) << rolled_back.ToString();
  EXPECT_EQ(sandbox.CommittedVersion(0), 1u);
  EXPECT_EQ(flow.HookVersion(0), 1u);
  Bytes packet(4, 0);
  EXPECT_EQ(sandbox.ExecuteHook(0, packet)->r0, 1u);
}

TEST(Broadcast, BlacklistDuringBroadcastRefusesEveryCommit) {
  Cluster cluster(2);
  CollectiveCodeFlow group(*cluster.cp, cluster.flows);
  const bpf::Program prog = CounterProgram();
  const std::uint64_t fp = ProgramFingerprint(prog);
  RecordingBarrier barrier;
  std::optional<Status> result;
  sim::Start(group.Broadcast(prog, 0, &barrier),
             [&](StatusOr<BroadcastResult> r) { result = r.status(); });
  cluster.RunUntil([&] {
    return cluster.cp->artifact_cache().HasImage(ImageKind::kEbpf, fp);
  });
  cluster.cp->BlacklistFingerprint(fp);
  cluster.events.Run();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->code(), StatusCode::kPermissionDenied);
  EXPECT_FALSE(barrier.buffering);
  for (int node = 0; node < 2; ++node) {
    EXPECT_EQ(cluster.sandboxes[node]->CommittedVersion(0), 0u);
    EXPECT_EQ(SlotDesc(cluster, node, 0), 0u);
  }
}

// In the pipelined deploy a refused commit is a node failure: with
// straggler isolation every node straggles and the wave commits nowhere.
TEST(PipelinedDeploy, BlacklistDuringWaveStragglesEveryNode) {
  Cluster cluster(2);
  CollectiveCodeFlow group(*cluster.cp, cluster.flows);
  const bpf::Program prog = CounterProgram();
  const std::uint64_t fp = ProgramFingerprint(prog);
  std::optional<StatusOr<PipelineResult>> result;
  group.DeployPipelined({DeploySpec{&prog, 0}}, PipelineOptions{},
                        [&](StatusOr<PipelineResult> r) { result = r; });
  cluster.RunUntil([&] {
    return cluster.cp->artifact_cache().HasImage(ImageKind::kEbpf, fp);
  });
  cluster.cp->BlacklistFingerprint(fp);
  cluster.events.Run();
  ASSERT_TRUE(result.has_value());
  ASSERT_TRUE(result->ok()) << result->status().ToString();
  EXPECT_EQ((*result)->stragglers, 2u);
  EXPECT_EQ((*result)->waves[0].committed, 0u);
  for (const NodeOutcome& node : (*result)->nodes) {
    EXPECT_EQ(node.status.code(), StatusCode::kPermissionDenied);
  }
  for (int node = 0; node < 2; ++node) {
    EXPECT_EQ(cluster.sandboxes[node]->CommittedVersion(0), 0u);
  }
}

TEST(Broadcast, NullFilterIsRejectedBeforeBuffering) {
  Cluster cluster(2);
  CollectiveCodeFlow group(*cluster.cp, cluster.flows);
  const wasm::FilterModule filter = wasm::GenerateFilter(200, 4);
  RecordingBarrier barrier;
  const StatusOr<BroadcastResult> result = sim::RunToCompletion(
      cluster.events, group.BroadcastWasm({&filter, nullptr}, 1, &barrier));
  cluster.events.Run();
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(barrier.begins, 0);
  EXPECT_FALSE(barrier.buffering);
  EXPECT_EQ(cluster.sandboxes[1]->CommittedVersion(1), 0u);
}

}  // namespace
}  // namespace rdx::core
