// Tests for the pipelined, doorbell-batched fleet deploy path:
// PostSendChain ordering/flush/amortization semantics, the
// content-addressed JIT artifact cache (hit/miss counters, blacklist
// eviction), and DeployPipelined straggler isolation under injected
// per-node drop faults.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "bpf/assembler.h"
#include "core/broadcast.h"
#include "core/codeflow.h"
#include "core/reliability.h"
#include "fault/injector.h"
#include "telemetry/metrics.h"
#include "telemetry/span.h"

namespace rdx {
namespace {

using core::CodeFlow;
using core::CollectiveCodeFlow;
using core::ControlPlane;
using core::ControlPlaneConfig;
using core::DeploySpec;
using core::InjectTrace;
using core::PipelineOptions;
using core::PipelineResult;
using core::RecoveryManager;
using core::Sandbox;
using core::SandboxConfig;
using fault::FaultInjector;
using fault::ParseFaultPlan;
using rdma::Opcode;
using rdma::SendWr;
using rdma::WcStatus;

constexpr std::uint32_t kAllAccess =
    rdma::kAccessLocalWrite | rdma::kAccessRemoteRead |
    rdma::kAccessRemoteWrite | rdma::kAccessRemoteAtomic;

// ---- Raw-fabric rig for doorbell-chain semantics ----

struct TwoNodes {
  sim::EventQueue events;
  rdma::Fabric fabric{events};
  rdma::Node* a;
  rdma::Node* b;
  rdma::CompletionQueue* cq_a;
  rdma::CompletionQueue* cq_b;
  rdma::QueuePair* qp_a;
  rdma::QueuePair* qp_b;

  TwoNodes() {
    a = &fabric.AddNode("a", 8u << 20);
    b = &fabric.AddNode("b", 8u << 20);
    cq_a = &fabric.CreateCq(a->id());
    cq_b = &fabric.CreateCq(b->id());
    qp_a = &fabric.CreateQp(a->id(), *cq_a, *cq_a);
    qp_b = &fabric.CreateQp(b->id(), *cq_b, *cq_b);
    EXPECT_TRUE(fabric.Connect(*qp_a, *qp_b).ok());
  }

  std::pair<std::uint64_t, rdma::MemoryRegion> Buffer(rdma::Node& node,
                                                      std::uint64_t size,
                                                      std::uint32_t access) {
    const std::uint64_t addr = node.memory().Allocate(size, 8).value();
    const rdma::MemoryRegion mr =
        node.memory().Register(addr, size, access).value();
    return {addr, mr};
  }
};

// Builds `n` small writes a->b, each landing its index byte at dst+i.
std::vector<SendWr> IndexedWrites(TwoNodes& net, std::uint64_t src,
                                  rdma::MemoryKey lkey, std::uint64_t dst,
                                  rdma::MemoryKey rkey, int n) {
  std::vector<SendWr> wrs;
  for (int i = 0; i < n; ++i) {
    Bytes byte = {static_cast<std::uint8_t>(i + 1)};
    EXPECT_TRUE(net.a->memory().Write(src + i, byte).ok());
    SendWr wr;
    wr.wr_id = static_cast<std::uint64_t>(i + 1);
    wr.opcode = Opcode::kWrite;
    wr.local = {src + i, 1, lkey};
    wr.remote_addr = dst + i;
    wr.rkey = rkey;
    wrs.push_back(wr);
  }
  return wrs;
}

TEST(DoorbellChain, CompletesInPostOrderAndDeliversPayloads) {
  TwoNodes net;
  auto [src, src_mr] = net.Buffer(*net.a, 256, kAllAccess);
  auto [dst, dst_mr] = net.Buffer(*net.b, 256, kAllAccess);
  auto wrs = IndexedWrites(net, src, src_mr.lkey, dst, dst_mr.rkey, 6);

  ASSERT_TRUE(net.qp_a->PostSendChain(wrs).ok());
  net.events.Run();

  // RC ordering: completions surface in post order, all successful.
  auto wcs = net.cq_a->Poll(16);
  ASSERT_EQ(wcs.size(), 6u);
  for (std::size_t i = 0; i < wcs.size(); ++i) {
    EXPECT_EQ(wcs[i].wr_id, i + 1);
    EXPECT_EQ(wcs[i].status, WcStatus::kSuccess);
    if (i > 0) {
      EXPECT_GE(wcs[i].completed_at, wcs[i - 1].completed_at);
    }
  }
  Bytes landed(6);
  ASSERT_TRUE(net.b->memory().Read(dst, landed).ok());
  EXPECT_EQ(landed, (Bytes{1, 2, 3, 4, 5, 6}));
  // The whole chain rang exactly one doorbell.
  EXPECT_EQ(net.fabric.doorbells_rung(), 1u);
  EXPECT_EQ(net.fabric.chained_wrs(), 6u);
}

// Link-model constants the amortization bound below tracks.
sim::Duration LinkDoorbell() { return sim::RdmaLink().doorbell_latency; }
sim::Duration LinkWqeFetch() { return sim::RdmaLink().wqe_fetch_latency; }

TEST(DoorbellChain, AmortizesDoorbellCostVsSinglePosts) {
  constexpr int kWrs = 16;
  sim::Duration chained = 0;
  sim::Duration singles = 0;
  {
    TwoNodes net;
    auto [src, src_mr] = net.Buffer(*net.a, 256, kAllAccess);
    auto [dst, dst_mr] = net.Buffer(*net.b, 256, kAllAccess);
    auto wrs = IndexedWrites(net, src, src_mr.lkey, dst, dst_mr.rkey, kWrs);
    ASSERT_TRUE(net.qp_a->PostSendChain(wrs).ok());
    net.events.Run();
    ASSERT_EQ(net.cq_a->Poll(kWrs).size(), static_cast<std::size_t>(kWrs));
    chained = net.events.Now();
    EXPECT_EQ(net.fabric.doorbells_rung(), 1u);
  }
  {
    TwoNodes net;
    auto [src, src_mr] = net.Buffer(*net.a, 256, kAllAccess);
    auto [dst, dst_mr] = net.Buffer(*net.b, 256, kAllAccess);
    auto wrs = IndexedWrites(net, src, src_mr.lkey, dst, dst_mr.rkey, kWrs);
    for (const SendWr& wr : wrs) ASSERT_TRUE(net.qp_a->PostSend(wr).ok());
    net.events.Run();
    ASSERT_EQ(net.cq_a->Poll(kWrs).size(), static_cast<std::size_t>(kWrs));
    singles = net.events.Now();
    EXPECT_EQ(net.fabric.doorbells_rung(), static_cast<std::uint64_t>(kWrs));
  }
  // The chain pays one doorbell + kWrs descriptor fetches; the singles
  // pay kWrs doorbells back to back. For tiny payloads posting dominates.
  EXPECT_LT(chained, singles);
  const sim::Duration saved = static_cast<sim::Duration>(kWrs - 1) *
                              (LinkDoorbell() - LinkWqeFetch());
  EXPECT_GE(singles - chained, saved / 2);
}

TEST(DoorbellChain, MidChainFailureFlushesRemainder) {
  TwoNodes net;
  auto [src, src_mr] = net.Buffer(*net.a, 256, kAllAccess);
  auto [dst, dst_mr] = net.Buffer(*net.b, 256, kAllAccess);
  auto wrs = IndexedWrites(net, src, src_mr.lkey, dst, dst_mr.rkey, 4);
  wrs[1].rkey = 0xdead;  // second WR faults on the remote key check

  ASSERT_TRUE(net.qp_a->PostSendChain(wrs).ok());
  net.events.Run();

  auto wcs = net.cq_a->Poll(16);
  ASSERT_EQ(wcs.size(), 4u);
  EXPECT_EQ(wcs[0].status, WcStatus::kSuccess);
  EXPECT_EQ(wcs[1].status, WcStatus::kRemoteAccessError);
  EXPECT_EQ(wcs[2].status, WcStatus::kWorkRequestFlushed);
  EXPECT_EQ(wcs[3].status, WcStatus::kWorkRequestFlushed);
  EXPECT_EQ(net.qp_a->state(), rdma::QpState::kError);

  // Posting another chain on the errored QP flushes it immediately.
  auto more = IndexedWrites(net, src, src_mr.lkey, dst, dst_mr.rkey, 2);
  EXPECT_FALSE(net.qp_a->PostSendChain(more).ok());
  auto flushed = net.cq_a->Poll(16);
  ASSERT_EQ(flushed.size(), 2u);
  EXPECT_EQ(flushed[0].status, WcStatus::kWorkRequestFlushed);
  EXPECT_EQ(flushed[1].status, WcStatus::kWorkRequestFlushed);
}

// ---- Control-plane rig for cache + pipeline tests ----

struct Cluster {
  sim::EventQueue events;
  rdma::Fabric fabric{events};
  std::unique_ptr<ControlPlane> cp;
  std::unique_ptr<FaultInjector> injector;
  std::vector<std::unique_ptr<Sandbox>> sandboxes;
  std::vector<CodeFlow*> flows;

  explicit Cluster(int nodes, ControlPlaneConfig config = {}) {
    const rdma::NodeId cp_id = fabric.AddNode("cp", 128u << 20).id();
    cp = std::make_unique<ControlPlane>(events, fabric, cp_id, config);
    injector = std::make_unique<FaultInjector>(events, fabric);
    for (int i = 0; i < nodes; ++i) {
      rdma::Node& node = fabric.AddNode("n" + std::to_string(i));
      sandboxes.push_back(
          std::make_unique<Sandbox>(events, node, SandboxConfig{}));
      EXPECT_TRUE(sandboxes.back()->CtxInit().ok());
      auto reg = sandboxes.back()->CtxRegister();
      EXPECT_TRUE(reg.ok());
      CodeFlow* flow = nullptr;
      cp->CreateCodeFlow(*sandboxes.back(), reg.value(),
                         [&flow](StatusOr<CodeFlow*> f) {
                           ASSERT_TRUE(f.ok()) << f.status().ToString();
                           flow = f.value();
                         });
      events.Run();
      EXPECT_NE(flow, nullptr);
      flows.push_back(flow);
    }
  }

  void Arm(const std::string& plan_text) {
    auto plan = ParseFaultPlan(plan_text);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    ASSERT_TRUE(injector->Arm(plan.value()).ok());
  }

  template <typename Fn>
  void RunUntil(Fn&& flag) {
    while (!flag() && !events.Empty()) events.Step();
  }

  StatusOr<InjectTrace> Inject(int node, const bpf::Program& prog, int hook) {
    StatusOr<InjectTrace> out = Internal("inject never finished");
    bool done = false;
    cp->InjectExtension(*flows[node], prog, hook,
                        [&](StatusOr<InjectTrace> r) {
                          out = std::move(r);
                          done = true;
                        });
    RunUntil([&] { return done; });
    return out;
  }

  StatusOr<PipelineResult> Deploy(const std::vector<DeploySpec>& specs,
                                  const PipelineOptions& opts) {
    CollectiveCodeFlow collective(*cp, flows);
    StatusOr<PipelineResult> out = Internal("deploy never finished");
    bool done = false;
    collective.DeployPipelined(specs, opts, [&](StatusOr<PipelineResult> r) {
      out = std::move(r);
      done = true;
    });
    RunUntil([&] { return done; });
    return out;
  }
};

bpf::Program ArithProgram(int adds) {
  std::string src = "r0 = 0\n";
  for (int i = 1; i <= adds; ++i) src += "r0 += " + std::to_string(i) + "\n";
  src += "exit\n";
  bpf::Program prog;
  prog.name = "sum" + std::to_string(adds);
  auto insns = bpf::Assemble(src);
  EXPECT_TRUE(insns.ok()) << insns.status().ToString();
  prog.insns = std::move(insns).value();
  return prog;
}

TEST(ArtifactCache, SecondDeploySkipsValidateAndJit) {
  Cluster cluster(2);
  telemetry::Tracer tracer(cluster.events);
  cluster.cp->SetTracer(&tracer);
  bpf::Program prog = ArithProgram(10);

  auto first = cluster.Inject(0, prog, /*hook=*/0);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(first.value().compile_cache_hit);
  EXPECT_GT(first.value().jit, 0);

  // Same fingerprint to a different node: validate + JIT are both served
  // from the artifact cache, so their phases take zero virtual time and
  // no inject:jit span is emitted.
  auto second = cluster.Inject(1, prog, /*hook=*/0);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_TRUE(second.value().compile_cache_hit);
  EXPECT_EQ(second.value().validate, 0);
  EXPECT_EQ(second.value().jit, 0);

  bool saw_jit_span = false;
  int jit_spans = 0;
  for (const auto& ev : tracer.events()) {
    if (ev.name == "inject:jit") ++jit_spans;
  }
  saw_jit_span = jit_spans > 0;
  EXPECT_TRUE(saw_jit_span);   // the first deploy did compile
  EXPECT_EQ(jit_spans, 1);     // ...and only the first

  EXPECT_GE(cluster.cp->compile_cache_hits(), 1u);
  telemetry::MetricsRegistry reg;
  cluster.cp->ExportMetrics(reg);
  EXPECT_GE(reg.counter("cp.compile_cache_hits"), 1u);
  EXPECT_GE(reg.counter("cp.artifact_cache_entries"), 1u);
}

TEST(ArtifactCache, BlacklistEvictsCachedArtifact) {
  Cluster cluster(2);
  bpf::Program prog = ArithProgram(12);
  const std::uint64_t fp = core::ProgramFingerprint(prog);

  ASSERT_TRUE(cluster.Inject(0, prog, /*hook=*/1).ok());
  EXPECT_TRUE(cluster.cp->artifact_cache().HasImage(
      core::ArtifactCache::Kind::kEbpf, fp));

  // Quarantining the fingerprint must also evict the cached artifact so
  // a cache hit can never resurrect a quarantined program.
  cluster.cp->BlacklistFingerprint(fp);
  EXPECT_FALSE(cluster.cp->artifact_cache().HasImage(
      core::ArtifactCache::Kind::kEbpf, fp));
  EXPECT_GE(cluster.cp->artifact_cache().invalidations(), 1u);

  auto redeploy = cluster.Inject(1, prog, /*hook=*/1);
  EXPECT_FALSE(redeploy.ok());
  EXPECT_EQ(redeploy.status().code(), StatusCode::kPermissionDenied);
}

TEST(PipelinedDeploy, CommitsAllWavesOnAllNodes) {
  Cluster cluster(4);
  bpf::Program a = ArithProgram(8);
  bpf::Program b = ArithProgram(9);
  std::vector<DeploySpec> specs = {{&a, 0}, {&b, 1}};

  auto result = cluster.Deploy(specs, PipelineOptions{});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const PipelineResult& pr = result.value();
  EXPECT_EQ(pr.stragglers, 0u);
  ASSERT_EQ(pr.waves.size(), 2u);
  ASSERT_EQ(pr.nodes.size(), 4u);
  for (const auto& wave : pr.waves) EXPECT_EQ(wave.committed, 4u);
  for (const auto& node : pr.nodes) {
    EXPECT_TRUE(node.status.ok());
    EXPECT_EQ(node.waves_committed, 2u);
  }
  for (CodeFlow* flow : cluster.flows) {
    EXPECT_EQ(flow->HookVersion(0), 1u);
    EXPECT_EQ(flow->HookVersion(1), 1u);
  }
}

TEST(PipelinedDeploy, RedeployHitsArtifactCachePerWave) {
  Cluster cluster(3);
  bpf::Program prog = ArithProgram(14);
  std::vector<DeploySpec> specs = {{&prog, 2}};

  auto first = cluster.Deploy(specs, PipelineOptions{});
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(first.value().waves[0].compile_cache_hit);
  EXPECT_GT(first.value().waves[0].compile, 0);

  auto again = cluster.Deploy(specs, PipelineOptions{});
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_TRUE(again.value().waves[0].compile_cache_hit);
  EXPECT_EQ(again.value().waves[0].compile, 0);
}

TEST(PipelinedDeploy, BlacklistedWaveFailsWholeDeploy) {
  Cluster cluster(2);
  bpf::Program prog = ArithProgram(11);
  cluster.cp->BlacklistFingerprint(core::ProgramFingerprint(prog));
  std::vector<DeploySpec> specs = {{&prog, 0}};

  auto result = cluster.Deploy(specs, PipelineOptions{});
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kPermissionDenied);
}

TEST(PipelinedDeploy, StragglerIsQuarantinedWithoutStallingWave) {
  Cluster cluster(4);
  // Node 2's NIC drops everything: its deploy fans out, times out, and
  // the node must be quarantined while the other three commit.
  char plan[128];
  std::snprintf(plan, sizeof(plan), "seed 7\ndrop node=%u at=0 for=10s p=1",
                cluster.sandboxes[2]->node().id());
  cluster.Arm(plan);

  bpf::Program a = ArithProgram(8);
  bpf::Program b = ArithProgram(9);
  std::vector<DeploySpec> specs = {{&a, 0}, {&b, 1}};
  auto result = cluster.Deploy(specs, PipelineOptions{});
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  const PipelineResult& pr = result.value();
  EXPECT_EQ(pr.stragglers, 1u);
  ASSERT_EQ(pr.nodes.size(), 4u);
  for (std::size_t i = 0; i < pr.nodes.size(); ++i) {
    if (i == 2) {
      EXPECT_FALSE(pr.nodes[i].status.ok());
      EXPECT_EQ(pr.nodes[i].failed_wave, 0);
      EXPECT_EQ(pr.nodes[i].waves_committed, 0u);
    } else {
      EXPECT_TRUE(pr.nodes[i].status.ok());
      EXPECT_EQ(pr.nodes[i].waves_committed, 2u);
      EXPECT_EQ(cluster.flows[i]->HookVersion(0), 1u);
      EXPECT_EQ(cluster.flows[i]->HookVersion(1), 1u);
    }
  }
  // The straggler never took either commit.
  EXPECT_EQ(cluster.flows[2]->HookVersion(0), 0u);
  EXPECT_EQ(cluster.flows[2]->HookVersion(1), 0u);
  for (const auto& wave : pr.waves) EXPECT_EQ(wave.committed, 3u);
}

TEST(PipelinedDeploy, WithoutIsolationStragglerFailsDeploy) {
  Cluster cluster(3);
  char plan[128];
  std::snprintf(plan, sizeof(plan), "seed 7\ndrop node=%u at=0 for=10s p=1",
                cluster.sandboxes[1]->node().id());
  cluster.Arm(plan);

  bpf::Program prog = ArithProgram(8);
  std::vector<DeploySpec> specs = {{&prog, 0}};
  PipelineOptions opts;
  opts.isolate_stragglers = false;
  auto result = cluster.Deploy(specs, opts);
  EXPECT_FALSE(result.ok());
}

TEST(PipelinedDeploy, StragglerRetriedInBackgroundViaRecovery) {
  Cluster cluster(3);
  // Drop window ends at 200ms; the background retry path keeps trying
  // past it and eventually lands the deploy on the straggler.
  char plan[128];
  std::snprintf(plan, sizeof(plan), "seed 7\ndrop node=%u at=0 for=200ms p=1",
                cluster.sandboxes[1]->node().id());
  cluster.Arm(plan);

  // Dropped WRs fail fast (retry-exceeded, not a deadline), so stretch
  // the backoff until the retry schedule outlives the drop window.
  core::RetryPolicy policy;
  policy.max_retries = 12;
  policy.base_backoff = sim::Millis(1);
  RecoveryManager recovery(*cluster.cp, policy);
  bpf::Program prog = ArithProgram(8);
  std::vector<DeploySpec> specs = {{&prog, 0}};
  PipelineOptions opts;
  opts.recovery = &recovery;

  auto result = cluster.Deploy(specs, opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().stragglers, 1u);
  EXPECT_TRUE(result.value().nodes[1].retried_in_background);

  // Drain the background recovery; the straggler converges.
  cluster.events.Run();
  EXPECT_EQ(cluster.flows[1]->HookVersion(0), 1u);
}

TEST(PipelinedDeploy, PipeliningBeatsSerialSchedule) {
  bpf::Program a = ArithProgram(16);
  bpf::Program b = ArithProgram(17);
  bpf::Program c = ArithProgram(18);

  sim::Duration pipelined = 0;
  sim::Duration serial = 0;
  {
    Cluster cluster(8);
    std::vector<DeploySpec> specs = {{&a, 0}, {&b, 1}, {&c, 2}};
    auto r = cluster.Deploy(specs, PipelineOptions{});
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    pipelined = r.value().total;
  }
  {
    Cluster cluster(8);
    std::vector<DeploySpec> specs = {{&a, 0}, {&b, 1}, {&c, 2}};
    PipelineOptions opts;
    opts.pipelined = false;
    auto r = cluster.Deploy(specs, opts);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    serial = r.value().total;
  }
  // Wave k+1's compile overlaps wave k's transfer+commit.
  EXPECT_LT(pipelined, serial);
}

}  // namespace
}  // namespace rdx
