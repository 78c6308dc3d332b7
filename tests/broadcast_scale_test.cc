// Tests for the pipelined, doorbell-batched fleet deploy path:
// PostSendChain ordering/flush/amortization semantics, the
// content-addressed JIT artifact cache (hit/miss counters, blacklist
// eviction), and DeployPipelined straggler isolation under injected
// per-node drop faults; and the shared link wire (nodes that resolve to
// the same link values receive one wire image, every node its own bytes).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <optional>
#include <set>
#include <string>

#include "bpf/assembler.h"
#include "bpf/proggen.h"
#include "core/broadcast.h"
#include "core/codeflow.h"
#include "core/reliability.h"
#include "fault/injector.h"
#include "telemetry/metrics.h"
#include "telemetry/span.h"
#include "wasm/filter.h"

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

  // Node i boots with `sandbox_configs[i]` when given, else the default.
  explicit Cluster(int nodes, ControlPlaneConfig config = {},
                   const std::vector<SandboxConfig>& sandbox_configs = {}) {
    const rdma::NodeId cp_id = fabric.AddNode("cp", 128u << 20).id();
    cp = std::make_unique<ControlPlane>(events, fabric, cp_id, config);
    injector = std::make_unique<FaultInjector>(events, fabric);
    for (int i = 0; i < nodes; ++i) {
      rdma::Node& node = fabric.AddNode("n" + std::to_string(i));
      sandboxes.push_back(std::make_unique<Sandbox>(
          events, node,
          sandbox_configs.empty() ? SandboxConfig{} : sandbox_configs[i]));
      EXPECT_TRUE(sandboxes.back()->CtxInit().ok());
      auto reg = sandboxes.back()->CtxRegister();
      EXPECT_TRUE(reg.ok());
      const StatusOr<CodeFlow*> flow = sim::RunToCompletion(
          events, cp->CreateCodeFlow(*sandboxes.back(), reg.value()));
      EXPECT_TRUE(flow.ok()) << flow.status().ToString();
      events.Run();
      flows.push_back(flow.ok() ? flow.value() : nullptr);
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
    return sim::RunToCompletion(events, cp->Inject(*flows[node], prog, hook));
  }

  template <class Source>
  StatusOr<core::BroadcastResult> Broadcast(const Source& src, int hook) {
    CollectiveCodeFlow collective(*cp, flows);
    if constexpr (std::is_same_v<Source, bpf::Program>) {
      return sim::RunToCompletion(events,
                                  collective.Broadcast(src, hook, nullptr));
    } else {
      return sim::RunToCompletion(
          events, collective.BroadcastWasm(std::vector<const wasm::FilterModule*>(
                                               flows.size(), &src),
                                           hook, nullptr));
    }
  }

  std::uint64_t Counter(const char* name) const {
    telemetry::MetricsRegistry reg;
    cp->ExportMetrics(reg);
    return reg.counter(name);
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

// ---- Shared link wires ----

// One link charge is one relocation's worth of CP CPU, whatever the
// image's relocation count (the charge the model has always made; charging
// per relocation is a separate model change).
TEST(LinkCode, ChargesOneRelocationOfCpCpu) {
  Cluster cluster(1);
  CodeFlow& flow = *cluster.flows[0];
  const bpf::Program prog = bpf::GenerateProgram({.target_insns = 400});
  const StatusOr<std::uint64_t> addr = sim::RunToCompletion(
      cluster.events, cluster.cp->DeployXState(flow, prog.maps[0]));
  ASSERT_TRUE(addr.ok()) << addr.status().ToString();
  const bpf::JitImage image = bpf::JitCompiler().Compile(prog).value();
  ASSERT_GT(image.relocs.size(), 1u);

  sim::CpuScheduler& cpu = cluster.cp->cpu();
  auto busy_ns = [&] {
    return cpu.Utilization() * static_cast<double>(cluster.events.Now()) *
           cpu.cores();
  };
  const double busy_before = busy_ns();
  const sim::SimTime start = cluster.events.Now();
  const StatusOr<ControlPlane::Wire> wire = sim::RunToCompletion(
      cluster.events,
      cluster.cp->LinkCode(flow, image, core::ProgramFingerprint(prog)));
  ASSERT_TRUE(wire.ok()) << wire.status().ToString();
  const sim::SimTime linked_at = cluster.events.Now();
  // link_cycles_per_reloc (500) at the CP's 3.4 GHz, completed on the
  // next whole ns.
  EXPECT_EQ(linked_at - start, 148);
  EXPECT_NEAR(busy_ns() - busy_before, 148.0, 1e-6);
}

TEST(LinkCode, PipelinedWaveBuildsOneWireForThirtyTwoNodes) {
  Cluster cluster(32);
  const bpf::Program prog = bpf::GenerateProgram({.target_insns = 400});
  auto result = cluster.Deploy({{&prog, 0}}, PipelineOptions{});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().waves[0].committed, 32u);
  EXPECT_EQ(cluster.Counter("cp.link.wires_built"), 1u);
  EXPECT_EQ(cluster.Counter("cp.link.wires_shared"), 31u);
}

// Differential link test: over three kinds of group, every node's
// deployed bytes equal its own link + serialize and decode to its own
// addresses, and only a node that cannot link fails.
enum class LinkGroup { kShared, kOddValues, kOddLacksSymbol };

const char* LinkGroupName(LinkGroup group) {
  switch (group) {
    case LinkGroup::kShared:
      return "AllNodesShareValues";
    case LinkGroup::kOddValues:
      return "OneNodeResolvesDifferently";
    case LinkGroup::kOddLacksSymbol:
      return "OneNodeLacksSymbol";
  }
  return "";
}

void PrintTo(LinkGroup group, std::ostream* os) {
  *os << LinkGroupName(group);
}
std::string LinkGroupParamName(
    const ::testing::TestParamInfo<LinkGroup>& info) {
  return LinkGroupName(info.param);
}

constexpr int kGroupNodes = 4;
constexpr int kOddNode = 2;  // the node a group sets apart

// The image bytes committed at `hook`, read from the node's own memory.
Bytes CommittedImage(Sandbox& sandbox, int hook) {
  const rdma::HostMemory& mem = sandbox.node().memory();
  const std::uint64_t desc =
      mem.ReadU64(sandbox.view().hook_table_addr +
                  static_cast<std::uint64_t>(hook) * 8)
          .value();
  Bytes image(mem.ReadU64(desc + core::kDescImageLen).value());
  EXPECT_TRUE(
      mem.Read(mem.ReadU64(desc + core::kDescImageAddr).value(), image).ok());
  return image;
}

// What `flow` alone should receive: `image` linked against its target.
template <class Image>
Bytes OwnWire(const CodeFlow& flow, Image image) {
  const Status linked = core::LinkImage(flow.link_target(), image);
  EXPECT_TRUE(linked.ok()) << linked.ToString();
  return image.Serialize();
}

// Checks the wire counters once `linked` nodes have linked: one wire when
// every node resolves alike, at least two when one node differs.
void ExpectWireCounts(const Cluster& cluster, LinkGroup group,
                      std::uint64_t linked) {
  const std::uint64_t built = cluster.Counter("cp.link.wires_built");
  EXPECT_EQ(built + cluster.Counter("cp.link.wires_shared"), linked);
  if (group == LinkGroup::kOddValues) {
    EXPECT_GE(built, 2u);
  } else {
    EXPECT_EQ(built, 1u);
  }
}

class EbpfLinkGroup : public ::testing::TestWithParam<LinkGroup> {
 protected:
  static constexpr int kHook = 0;

  // Sets the odd node apart: an XState deployed there first moves its map
  // address; a symbol table without the program's first helper (re-read by
  // a reconnect) leaves it unable to link.
  static void SetApart(Cluster& cluster, LinkGroup group,
                       const bpf::JitImage& image) {
    CodeFlow& flow = *cluster.flows[kOddNode];
    if (group == LinkGroup::kOddValues) {
      const StatusOr<std::uint64_t> addr = sim::RunToCompletion(
          cluster.events,
          cluster.cp->DeployXState(flow,
                                   {"extra", bpf::MapType::kArray, 4, 8, 16}));
      ASSERT_TRUE(addr.ok()) << addr.status().ToString();
    } else if (group == LinkGroup::kOddLacksSymbol) {
      std::int32_t helper = -1;
      for (const bpf::Relocation& reloc : image.relocs) {
        if (reloc.kind == bpf::RelocKind::kHelperCall) {
          helper = reloc.symbol;
          break;
        }
      }
      ASSERT_GE(helper, 0);
      const std::uint64_t hash =
          core::SymbolHash("helper:", static_cast<std::uint64_t>(helper));
      Sandbox& sandbox = *cluster.sandboxes[kOddNode];
      rdma::HostMemory& mem = sandbox.node().memory();
      const std::uint64_t table = sandbox.view().symtab_addr;
      std::uint8_t count[4];
      ASSERT_TRUE(mem.Read(table, count).ok());
      int renamed = 0;
      for (std::uint32_t i = 0; i < LoadLE<std::uint32_t>(count); ++i) {
        const std::uint64_t entry = table + 4 + 16ull * i;
        if (mem.ReadU64(entry).value() == hash) {
          ASSERT_TRUE(mem.WriteU64(entry, hash ^ 1).ok());
          ++renamed;
        }
      }
      ASSERT_EQ(renamed, 1);
      const Status s = sim::RunToCompletion(cluster.events,
                                            cluster.cp->ReconnectCodeFlow(flow));
      ASSERT_TRUE(s.ok()) << s.ToString();
    }
  }

  // The committed wire of `node` is its own and patches its own addresses.
  static void ExpectOwnWire(Cluster& cluster, int node,
                            const bpf::JitImage& image) {
    SCOPED_TRACE("node " + std::to_string(node));
    const CodeFlow& flow = *cluster.flows[node];
    const Bytes wire = CommittedImage(*cluster.sandboxes[node], kHook);
    EXPECT_EQ(wire, OwnWire(flow, image));
    auto decoded = bpf::JitImage::Deserialize(wire);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    for (const bpf::Relocation& reloc : decoded->relocs) {
      if (reloc.kind != bpf::RelocKind::kMapAddress) continue;
      EXPECT_EQ(decoded->code[reloc.index].imm64,
                flow.xstates().at(decoded->maps[reloc.symbol].name));
    }
  }

  static void ExpectOddAddressMoved(const Cluster& cluster, LinkGroup group) {
    if (group != LinkGroup::kOddValues) return;
    EXPECT_NE(cluster.flows[kOddNode]->xstates().at("gen_map"),
              cluster.flows[0]->xstates().at("gen_map"));
  }
};

TEST_P(EbpfLinkGroup, PipelinedDeployGivesEachNodeItsOwnWire) {
  const LinkGroup group = GetParam();
  const bool odd_fails = group == LinkGroup::kOddLacksSymbol;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const bpf::Program prog =
        bpf::GenerateProgram({.target_insns = 400, .seed = seed});
    const bpf::JitImage image = bpf::JitCompiler().Compile(prog).value();
    Cluster cluster(kGroupNodes);
    SetApart(cluster, group, image);
    auto result = cluster.Deploy({{&prog, kHook}}, PipelineOptions{});
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result.value().stragglers, odd_fails ? 1u : 0u);
    for (int i = 0; i < kGroupNodes; ++i) {
      if (odd_fails && i == kOddNode) {
        EXPECT_EQ(result.value().nodes[i].status.code(),
                  StatusCode::kFailedPrecondition);
        EXPECT_EQ(cluster.flows[i]->HookVersion(kHook), 0u);
        continue;
      }
      EXPECT_TRUE(result.value().nodes[i].status.ok());
      ExpectOwnWire(cluster, i, image);
    }
    ExpectOddAddressMoved(cluster, group);
    ExpectWireCounts(cluster, group, kGroupNodes - (odd_fails ? 1 : 0));
  }
}

TEST_P(EbpfLinkGroup, BroadcastGivesEachNodeItsOwnWire) {
  const LinkGroup group = GetParam();
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const bpf::Program prog =
        bpf::GenerateProgram({.target_insns = 400, .seed = seed});
    const bpf::JitImage image = bpf::JitCompiler().Compile(prog).value();
    Cluster cluster(kGroupNodes);
    SetApart(cluster, group, image);
    auto result = cluster.Broadcast(prog, kHook);
    if (group == LinkGroup::kOddLacksSymbol) {
      EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
      EXPECT_NE(result.status().message().find("does not export helper"),
                std::string::npos)
          << result.status().ToString();
      for (CodeFlow* flow : cluster.flows) {
        EXPECT_EQ(flow->HookVersion(kHook), 0u);
      }
      continue;
    }
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    for (int i = 0; i < kGroupNodes; ++i) ExpectOwnWire(cluster, i, image);
    ExpectOddAddressMoved(cluster, group);
    ExpectWireCounts(cluster, group, kGroupNodes);
  }
}

INSTANTIATE_TEST_SUITE_P(Groups, EbpfLinkGroup,
                         ::testing::Values(LinkGroup::kShared,
                                           LinkGroup::kOddValues,
                                           LinkGroup::kOddLacksSymbol),
                         LinkGroupParamName);

class WasmLinkGroup : public ::testing::TestWithParam<LinkGroup> {
 protected:
  static constexpr int kHook = 1;

  // A seeded GenerateFilter filter (which calls only its first import)
  // that also folds a call to each other import into its verdict, so its
  // link resolves one value per host function.
  static wasm::FilterModule CallingEveryImport(std::uint64_t seed) {
    using wasm::WOp;
    wasm::FilterModule filter = wasm::GenerateFilter(400, seed);
    std::vector<wasm::WasmInsn> calls;
    for (std::size_t i = 1; i < filter.imports.size(); ++i) {
      calls.insert(calls.end(), {{WOp::kGetLocal, 0},
                                 {WOp::kConst, 7},
                                 {WOp::kConst, 0},
                                 {WOp::kCallHost, static_cast<std::int64_t>(i)},
                                 {WOp::kXor, 0},
                                 {WOp::kSetLocal, 0}});
    }
    // Before the 4-insn verdict epilogue; no branch targets past it.
    filter.code.insert(filter.code.end() - 4, calls.begin(), calls.end());
    return filter;
  }

  // The odd node's host table moves import `moved` to a new index, so
  // exactly that one link value differs, or lacks the last import.
  static std::vector<SandboxConfig> Configs(LinkGroup group,
                                            std::size_t moved) {
    std::vector<SandboxConfig> configs(kGroupNodes);
    std::vector<std::string>& odd = configs[kOddNode].wasm_host_fns;
    if (group == LinkGroup::kOddValues) {
      odd.push_back("spare");
      std::swap(odd[moved], odd.back());
    } else if (group == LinkGroup::kOddLacksSymbol) {
      odd.pop_back();
    }
    return configs;
  }

  static void ExpectOwnWire(Cluster& cluster, int node,
                            const wasm::WasmImage& image,
                            const SandboxConfig& config) {
    SCOPED_TRACE("node " + std::to_string(node));
    const Bytes wire = CommittedImage(*cluster.sandboxes[node], kHook);
    EXPECT_EQ(wire, OwnWire(*cluster.flows[node], image));
    auto decoded = wasm::WasmImage::Deserialize(wire);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    const std::vector<std::string>& table = config.wasm_host_fns;
    for (const wasm::WasmReloc& reloc : decoded->relocs) {
      const auto index = std::find(table.begin(), table.end(),
                                   reloc.import_name) - table.begin();
      EXPECT_EQ(reloc.resolved_host_fn, index) << reloc.import_name;
      EXPECT_EQ(decoded->code[reloc.insn_index].imm, index);
    }
  }
};

TEST_P(WasmLinkGroup, BroadcastGivesEachNodeItsOwnWire) {
  const LinkGroup group = GetParam();
  const std::size_t imports = SandboxConfig{}.wasm_host_fns.size();
  // One run per seed; with kOddValues, one per seed and moved import, so a
  // shared-wire check that skipped any one value would be caught.
  const std::size_t runs = 3 * (group == LinkGroup::kOddValues ? imports : 1);
  for (std::size_t run = 0; run < runs; ++run) {
    const std::uint64_t seed = 1 + run % 3;
    const std::size_t moved = run / 3;
    SCOPED_TRACE("seed " + std::to_string(seed) + ", moved import " +
                 std::to_string(moved));
    const std::vector<SandboxConfig> configs = Configs(group, moved);
    const wasm::FilterModule filter = CallingEveryImport(seed);
    ASSERT_TRUE(wasm::ValidateFilter(filter).ok());
    const wasm::WasmImage image = wasm::CompileFilter(filter).value();
    // Every host function, the moved and dropped ones included, is
    // imported, so a node set apart really resolves differently.
    for (const std::string& fn : SandboxConfig{}.wasm_host_fns) {
      EXPECT_TRUE(std::any_of(
          image.relocs.begin(), image.relocs.end(),
          [&](const wasm::WasmReloc& r) { return r.import_name == fn; }))
          << fn;
    }
    Cluster cluster(kGroupNodes, ControlPlaneConfig{}, configs);
    auto result = cluster.Broadcast(filter, kHook);
    if (group == LinkGroup::kOddLacksSymbol) {
      EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
      EXPECT_NE(result.status().message().find("does not export host fn"),
                std::string::npos)
          << result.status().ToString();
      for (CodeFlow* flow : cluster.flows) {
        EXPECT_EQ(flow->HookVersion(kHook), 0u);
      }
      continue;
    }
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    for (int i = 0; i < kGroupNodes; ++i) {
      ExpectOwnWire(cluster, i, image, configs[i]);
    }
    ExpectWireCounts(cluster, group, kGroupNodes);
  }
}

INSTANTIATE_TEST_SUITE_P(Groups, WasmLinkGroup,
                         ::testing::Values(LinkGroup::kShared,
                                           LinkGroup::kOddValues,
                                           LinkGroup::kOddLacksSymbol),
                         LinkGroupParamName);

// ---- Staging buffers ----

// A doorbell-batched write larger than the control plane's 16 MiB staging
// arena lands intact: it goes out as consecutive chains that each fit.
TEST(Staging, BatchedWriteLargerThanArenaLandsIntact) {
  SandboxConfig roomy;
  roomy.scratch_bytes = 48u << 20;
  Cluster cluster(1, ControlPlaneConfig{}, {roomy});
  Sandbox& sandbox = *cluster.sandboxes[0];
  rdma::HostMemory& mem = sandbox.node().memory();
  // Fill the free scratch, so bytes no chunk carried read back as 0xA5.
  const core::ControlBlockView& view = sandbox.view();
  const std::uint64_t brk =
      mem.ReadU64(view.cb_addr + core::kCbScratchBrk).value();
  const MutableByteSpan free_scratch =
      mem.SpanForCpu(brk, view.scratch_addr + view.scratch_size - brk);
  std::fill(free_scratch.begin(), free_scratch.end(), 0xA5);

  const bpf::MapSpec spec{"big", bpf::MapType::kArray, 4, 64, 300000};
  const std::uint64_t bytes = bpf::MapRequiredBytes(spec);
  ASSERT_GT(bytes, 16u << 20);
  const StatusOr<std::uint64_t> addr = sim::RunToCompletion(
      cluster.events, cluster.cp->DeployXState(*cluster.flows[0], spec));
  ASSERT_TRUE(addr.ok()) << addr.status().ToString();
  cluster.events.Run();

  Bytes header(bpf::kMapHeaderBytes);
  ASSERT_TRUE(mem.Read(*addr, header).ok());
  const StatusOr<bpf::MapHeader> parsed = bpf::MapView(header).Header();
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->max_entries, spec.max_entries);
  // The last chunk's final word is the zeroed last value, not the fill.
  EXPECT_EQ(mem.ReadU64(*addr + bytes - 8).value(), 0u);
  // And every other byte: the storage equals one formatted locally.
  Bytes expected(bytes, 0);
  ASSERT_TRUE(bpf::MapView(expected).Init(spec).ok());
  Bytes landed(bytes);
  ASSERT_TRUE(mem.Read(*addr, landed).ok());
  EXPECT_TRUE(landed == expected);  // EXPECT_EQ would print 19 MB
}

// Once a write larger than the arena has filled it with chunk-sized
// slots, every other slot size is still served: the arena starts over
// once the write's slots are all back.
TEST(Staging, ArenaServesEverySizeAfterItFills) {
  constexpr int kNodes = 8;
  std::vector<SandboxConfig> configs(kNodes);
  configs[0].scratch_bytes = 48u << 20;
  Cluster cluster(kNodes, ControlPlaneConfig{}, configs);
  auto deploy = [&](int node, std::uint32_t entries) {
    const StatusOr<std::uint64_t> addr = sim::RunToCompletion(
        cluster.events,
        cluster.cp->DeployXState(*cluster.flows[node],
                                 {"m", bpf::MapType::kArray, 4, 64, entries}));
    EXPECT_TRUE(addr.ok()) << addr.status().ToString();
    cluster.events.Run();
    return addr.ok() ? *addr : 0;
  };
  Bytes key(4);
  StoreLE<std::uint32_t>(key.data(), 7);
  deploy(0, 300000);  // 19.2 MB in 256 KiB chunks
  std::vector<std::uint64_t> maps;
  for (int i = 0; i < kNodes; ++i) maps.push_back(deploy(i, 1600));
  // Eight 100 KiB body READs in flight at once, one per node.
  int looked_up = 0;
  for (int i = 0; i < kNodes; ++i) {
    sim::Start(cluster.cp->XStateLookup(*cluster.flows[i], maps[i], key),
               [&looked_up](StatusOr<Bytes> value) {
                 EXPECT_TRUE(value.ok()) << value.status().ToString();
                 looked_up += value.ok() && *value == Bytes(64, 0);
               });
  }
  cluster.events.Run();
  EXPECT_EQ(looked_up, kNodes);
  // A 300 KiB body READ: larger than every free slot.
  const StatusOr<Bytes> value = sim::RunToCompletion(
      cluster.events,
      cluster.cp->XStateLookup(*cluster.flows[0], deploy(0, 4800), key));
  ASSERT_TRUE(value.ok()) << value.status().ToString();
  EXPECT_EQ(*value, Bytes(64, 0));
}

// Deploys an array XState of `entries` 64-byte values on the first
// node, then updates one value and looks it up again: each reads the
// whole storage back in one READ.
void ExpectXStateRoundTrip(Cluster& cluster, std::uint32_t entries) {
  CodeFlow& flow = *cluster.flows[0];
  const bpf::MapSpec spec{"m", bpf::MapType::kArray, 4, 64, entries};
  ASSERT_LE(bpf::MapRequiredBytes(spec), 16u << 20);
  const StatusOr<std::uint64_t> addr = sim::RunToCompletion(
      cluster.events, cluster.cp->DeployXState(flow, spec));
  ASSERT_TRUE(addr.ok()) << addr.status().ToString();
  cluster.events.Run();
  Bytes key(4);
  StoreLE<std::uint32_t>(key.data(), entries - 1);
  const Bytes value(64, 0x5C);
  const Status updated = sim::RunToCompletion(
      cluster.events, cluster.cp->XStateUpdate(flow, *addr, key, value));
  ASSERT_TRUE(updated.ok()) << updated.ToString();
  const StatusOr<Bytes> looked_up = sim::RunToCompletion(
      cluster.events, cluster.cp->XStateLookup(flow, *addr, key));
  ASSERT_TRUE(looked_up.ok()) << looked_up.status().ToString();
  EXPECT_EQ(*looked_up, value);
}

std::vector<SandboxConfig> FirstNodeRoomy(int nodes) {
  std::vector<SandboxConfig> configs(nodes);
  configs[0].scratch_bytes = 48u << 20;
  return configs;
}

// A landing over the largest slot size is carved at its own length, not
// rounded up to a power of two: a 9.6 MB XState reads back, though
// ReadXState's header READ came first.
TEST(Staging, XStateOver8MiBReadsBack) {
  Cluster cluster(1, ControlPlaneConfig{}, FirstNodeRoomy(1));
  ExpectXStateRoundTrip(cluster, 150000);
}

// One READ may land the whole 16 MiB arena once nothing else is staged,
// even after pipelined rollouts gave their slots back out of order:
// ReadXState's header landing is given back before its body READ is
// staged, and an idle arena starts over.
TEST(Staging, XStateFillingTheArenaReadsBack) {
  Cluster cluster(8, ControlPlaneConfig{}, FirstNodeRoomy(8));
  std::vector<bpf::Program> progs;
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    progs.push_back(bpf::GenerateProgram(
        {.target_insns = 300 + 200 * seed, .seed = seed}));
  }
  for (std::size_t rollout = 0; rollout < 4; ++rollout) {
    auto result = cluster.Deploy(
        {{&progs[rollout % 2], 0}, {&progs[(rollout + 1) % 2], 1}},
        PipelineOptions{});
    ASSERT_TRUE(result.ok()) << result.status().ToString();
  }
  cluster.events.Run();
  ExpectXStateRoundTrip(cluster, ((16u << 20) - bpf::kMapHeaderBytes) / 64);
}

// Two XState reads over 4 MiB in flight at once, on different flows, take
// their own lengths of the arena, not 8 MiB each, and leave room for a
// third flow's lock and commit staged meanwhile.
TEST(Staging, ConcurrentLargeReadsLeaveRoomForCommits) {
  SandboxConfig roomy;
  roomy.scratch_bytes = 16u << 20;
  Cluster cluster(3, ControlPlaneConfig{}, {roomy, roomy, SandboxConfig{}});
  const bpf::MapSpec spec{"m", bpf::MapType::kArray, 4, 64, 72000};
  ASSERT_GT(bpf::MapRequiredBytes(spec), 4u << 20);
  std::vector<std::uint64_t> maps;
  for (int i = 0; i < 2; ++i) {
    const StatusOr<std::uint64_t> addr = sim::RunToCompletion(
        cluster.events, cluster.cp->DeployXState(*cluster.flows[i], spec));
    ASSERT_TRUE(addr.ok()) << addr.status().ToString();
    cluster.events.Run();
    maps.push_back(*addr);
  }
  Bytes key(4);
  StoreLE<std::uint32_t>(key.data(), 7);
  int looked_up = 0;
  for (int i = 0; i < 2; ++i) {
    sim::Start(cluster.cp->XStateLookup(*cluster.flows[i], maps[i], key),
               [&looked_up](StatusOr<Bytes> value) {
                 EXPECT_TRUE(value.ok()) << value.status().ToString();
                 looked_up += value.ok() && *value == Bytes(64, 0);
               });
  }
  // Both body landings are held once the arena's reach passes 8 MiB.
  cluster.RunUntil([&] {
    return cluster.Counter("cp.staging_high_water_bytes") > (8u << 20);
  });
  ASSERT_EQ(looked_up, 0);
  // The third flow's deploy (lock CAS, image writes, commit chain)
  // completes while both landings are still held.
  const bpf::Program prog =
      bpf::GenerateProgram({.target_insns = 200, .seed = 1});
  int looked_up_at_commit = -1;
  sim::Start(cluster.cp->Inject(*cluster.flows[2], prog, 0),
             [&](StatusOr<InjectTrace> injected) {
               EXPECT_TRUE(injected.ok()) << injected.status().ToString();
               looked_up_at_commit = looked_up;
             });
  cluster.events.Run();
  EXPECT_EQ(looked_up_at_commit, 0);
  EXPECT_EQ(looked_up, 2);
}

// Logs each WR's local range when the fabric executes it (at post) and
// when it completes; injects nothing.
class StagingRecorder : public rdma::FaultHook {
 public:
  WireFault OnExecute(const rdma::QueuePair&, const SendWr& wr,
                      Bytes*) override {
    log.push_back({true, wr});
    return {};
  }
  bool NodeDown(rdma::NodeId) const override { return false; }
  void OnComplete(const rdma::QueuePair&, const SendWr& wr,
                  WcStatus) override {
    log.push_back({false, wr});
  }

  struct Event {
    bool posted;
    SendWr wr;
  };
  std::vector<Event> log;
};

// Every READ or atomic landing range is the landing WR's alone from its
// post until its completion: no WR posted meanwhile stages over it.
void ExpectLandingsUnshared(const StagingRecorder& recorder) {
  auto overlap = [](const rdma::Sge& a, const rdma::Sge& b) {
    return a.addr < b.addr + b.length && b.addr < a.addr + a.length;
  };
  std::map<std::uint64_t, rdma::Sge> in_flight;  // landing wr_id -> range
  std::size_t landings = 0;
  for (const StagingRecorder::Event& event : recorder.log) {
    if (!event.posted) {
      in_flight.erase(event.wr.wr_id);
      continue;
    }
    for (const auto& [id, landing] : in_flight) {
      ASSERT_FALSE(overlap(event.wr.local, landing))
          << "WR " << event.wr.wr_id << " staged over the landing of WR "
          << id;
    }
    if (event.wr.opcode != Opcode::kWrite) {
      in_flight.emplace(event.wr.wr_id, event.wr.local);
      ++landings;
    }
  }
  EXPECT_GT(landings, 0u);
}

TEST(Staging, LandingZonesAreNeverSharedInFlight) {
  {
    Cluster cluster(32);
    StagingRecorder recorder;
    cluster.fabric.SetFaultHook(&recorder);
    std::vector<bpf::Program> progs;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      progs.push_back(bpf::GenerateProgram(
          {.target_insns = 200 + 150 * seed, .seed = seed}));
    }
    for (std::size_t rollout = 0; rollout < 100; ++rollout) {
      auto result = cluster.Deploy({{&progs[rollout % 4], 0},
                                    {&progs[(rollout + 1) % 4], 1}},
                                   PipelineOptions{});
      ASSERT_TRUE(result.ok()) << result.status().ToString();
    }
    cluster.events.Run();
    ExpectLandingsUnshared(recorder);
    EXPECT_LE(cluster.Counter("cp.staging_high_water_bytes"), 1u << 20);
    cluster.fabric.SetFaultHook(nullptr);
  }
  {
    Cluster cluster(8);
    StagingRecorder recorder;
    cluster.fabric.SetFaultHook(&recorder);
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const wasm::FilterModule filter = wasm::GenerateFilter(400, seed);
      auto result = cluster.Broadcast(filter, 1);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
    }
    cluster.events.Run();
    ExpectLandingsUnshared(recorder);
    EXPECT_LE(cluster.Counter("cp.staging_high_water_bytes"), 1u << 20);
    cluster.fabric.SetFaultHook(nullptr);
  }
}

// A multi-chunk write that runs out of staging slots partway reports the
// failure only once every chunk it already posted has completed: when the
// caller hears of it, none of its WRITEs is still in flight.
TEST(Staging, WriteReportsStagingFailureAfterPostedChunksComplete) {
  SandboxConfig roomy;
  roomy.scratch_bytes = 16u << 20;
  Cluster cluster(2, ControlPlaneConfig{}, {roomy, roomy});
  const bpf::MapSpec held{"held", bpf::MapType::kArray, 4, 64, 200000};
  const std::uint64_t held_bytes = bpf::MapRequiredBytes(held);
  ASSERT_GT(held_bytes, 12u << 20);
  const StatusOr<std::uint64_t> held_addr = sim::RunToCompletion(
      cluster.events, cluster.cp->DeployXState(*cluster.flows[0], held));
  ASSERT_TRUE(held_addr.ok()) << held_addr.status().ToString();
  cluster.events.Run();

  StagingRecorder recorder;
  cluster.fabric.SetFaultHook(&recorder);
  // Another flow's READ of the whole XState holds most of the arena.
  Bytes key(4);
  bool looked_up = false;
  sim::Start(cluster.cp->XStateLookup(*cluster.flows[0], *held_addr, key),
             [&looked_up](StatusOr<Bytes> value) {
               EXPECT_TRUE(value.ok()) << value.status().ToString();
               looked_up = true;
             });
  cluster.RunUntil([&] {
    return std::any_of(recorder.log.begin(), recorder.log.end(),
                       [&](const StagingRecorder::Event& e) {
                         return e.posted && e.wr.local.length == held_bytes;
                       });
  });
  ASSERT_FALSE(looked_up);

  // 6 MiB in 256 KiB chunks: fewer than half find a slot.
  const bpf::MapSpec spec{"m", bpf::MapType::kArray, 4, 64, 100000};
  ASSERT_GT(bpf::MapRequiredBytes(spec), 6u << 20);
  std::optional<Status> deployed;
  std::size_t posted = 0;
  std::size_t outstanding = 0;
  sim::Start(cluster.cp->DeployXState(*cluster.flows[1], spec),
             [&](StatusOr<std::uint64_t> addr) {
               deployed = addr.status();
               std::set<std::uint64_t> writes;
               for (const StagingRecorder::Event& e : recorder.log) {
                 if (e.wr.opcode != Opcode::kWrite) continue;
                 if (e.posted) {
                   writes.insert(e.wr.wr_id);
                   ++posted;
                 } else {
                   writes.erase(e.wr.wr_id);
                 }
               }
               outstanding = writes.size();
             });
  cluster.events.Run();
  ASSERT_TRUE(deployed.has_value());
  EXPECT_EQ(deployed->code(), StatusCode::kResourceExhausted)
      << deployed->ToString();
  EXPECT_GT(posted, 1u);
  EXPECT_EQ(outstanding, 0u);
  EXPECT_TRUE(looked_up);
  cluster.fabric.SetFaultHook(nullptr);
}

}  // namespace
}  // namespace rdx
