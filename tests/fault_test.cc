// Fault-injection + self-healing tests: FaultPlan parsing, deterministic
// replay, QP loss mid-deploy (retry/reconnect/exactly-once commit), MAC
// rejection of corrupted in-flight images, crash-and-reboot recovery,
// link degradation/partition windows, the control plane's health lease,
// and the orchestrator's on_failure=rollback policy.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "bpf/assembler.h"
#include "core/layout.h"
#include "core/orchestrator.h"
#include "core/reliability.h"
#include "fault/injector.h"

namespace rdx {
namespace {

using core::CodeFlow;
using core::ControlPlane;
using core::ControlPlaneConfig;
using core::RecoveryManager;
using core::RecoveryOutcome;
using core::RetryPolicy;
using core::Sandbox;
using core::SandboxConfig;
using fault::FaultInjector;
using fault::FaultKind;
using fault::ParseFaultPlan;

// Arithmetic-only program whose JIT image is comfortably larger than the
// injector's minimum corruptible payload (64 B), with no maps so the
// image is the first large write of a deploy.
bpf::Program BigProgram() {
  std::string src = "r0 = 0\n";
  for (int i = 1; i <= 20; ++i) {
    src += "r0 += " + std::to_string(i) + "\n";
  }
  src += "exit\n";
  bpf::Program prog;
  prog.name = "sum";
  auto insns = bpf::Assemble(src);
  EXPECT_TRUE(insns.ok()) << insns.status().ToString();
  prog.insns = std::move(insns).value();
  return prog;
}

constexpr std::uint64_t kBigProgramResult = 210;  // 1+2+...+20

// Program with one map, so recovery after a reboot also re-deploys the
// XState the image links against.
bpf::Program CounterProgram() {
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

struct FaultRig {
  sim::EventQueue events;
  rdma::Fabric fabric{events};
  std::unique_ptr<ControlPlane> cp;
  std::unique_ptr<FaultInjector> injector;
  std::vector<std::unique_ptr<Sandbox>> sandboxes;
  std::vector<CodeFlow*> flows;

  explicit FaultRig(int nodes, ControlPlaneConfig cp_config = {},
                    SandboxConfig sandbox_config = {}) {
    const rdma::NodeId cp_id = fabric.AddNode("cp", 128u << 20).id();
    cp = std::make_unique<ControlPlane>(events, fabric, cp_id, cp_config);
    injector = std::make_unique<FaultInjector>(events, fabric);
    for (int i = 0; i < nodes; ++i) {
      rdma::Node& node = fabric.AddNode("n" + std::to_string(i));
      sandboxes.push_back(
          std::make_unique<Sandbox>(events, node, sandbox_config));
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

  rdma::NodeId NodeId(int i) { return sandboxes[i]->node().id(); }

  void Arm(const std::string& plan_text) {
    auto plan = ParseFaultPlan(plan_text);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    ASSERT_TRUE(injector->Arm(plan.value()).ok());
  }

  // Deploys through the recovery layer and runs to completion.
  StatusOr<RecoveryOutcome> DeployReliably(RecoveryManager& rm, int node,
                                           const bpf::Program& prog,
                                           int hook, int max_retries = -1) {
    return sim::RunToCompletion(
        events, rm.DeployReliably(*flows[node], prog, hook, max_retries));
  }

  std::uint64_t RemoteEpochWord(int node) {
    const auto& view = sandboxes[node]->view();
    return sandboxes[node]
        ->node()
        .memory()
        .ReadU64(view.cb_addr + core::kCbEpoch)
        .value();
  }
};

// ---- plan parsing ----

TEST(FaultPlan, ParsesEveryKind) {
  auto plan = ParseFaultPlan(R"(
    # full grammar tour
    seed 42
    qp_error node=1 at=10us
    crash node=1 at=50us reboot_after=200us
    partition node=2 at=5us for=20us
    degrade node=2 at=5us for=20us factor=8
    corrupt node=1 at=30us bytes=4
    drop node=* at=0 for=1ms p=0.05
    rogue node=1 at=40us hook=2 kind=fuel
  )");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->seed, 42u);
  ASSERT_EQ(plan->events.size(), 7u);
  EXPECT_EQ(plan->events[0].kind, FaultKind::kQpError);
  EXPECT_EQ(plan->events[0].at, sim::Micros(10));
  EXPECT_EQ(plan->events[1].reboot_after, sim::Micros(200));
  EXPECT_EQ(plan->events[2].window, sim::Micros(20));
  EXPECT_EQ(plan->events[3].factor, 8.0);
  EXPECT_EQ(plan->events[4].bytes, 4u);
  EXPECT_EQ(plan->events[5].node, rdma::kInvalidNode);
  EXPECT_DOUBLE_EQ(plan->events[5].probability, 0.05);
  EXPECT_EQ(plan->events[6].kind, FaultKind::kRogue);
  EXPECT_EQ(plan->events[6].hook, 2);
  EXPECT_EQ(plan->events[6].rogue, fault::RogueFaultKind::kFuel);
}

TEST(FaultPlan, RejectionsCarryLineNumbers) {
  struct Case {
    const char* text;
    const char* expect;
  };
  const Case bad[] = {
      {"qp_error at=10us\n", "needs node="},
      {"qp_error node=1\n", "needs at="},
      {"\npartition node=1 at=0\n", "line 2"},
      {"drop node=* at=0 for=1ms\n", "needs p="},
      {"degrade node=1 at=0 for=1ms factor=0.5\n", "factor"},
      {"corrupt node=1 at=0 bytes=0\n", "bytes"},
      {"crash node=* at=0\n", "node=*"},
      {"explode node=1 at=0\n", "unknown fault kind"},
      {"qp_error node=1 at=10lightyears\n", "bad time"},
      {"seed banana\n", "seed"},
      {"rogue node=1 at=0 kind=trap\n", "hook="},
      {"rogue node=1 at=0 hook=0\n", "kind="},
      {"rogue node=1 at=0 hook=0 kind=sneaky\n", "bad rogue kind"},
      {"rogue node=* at=0 hook=0 kind=trap\n", "node=*"},
  };
  for (const Case& c : bad) {
    auto plan = ParseFaultPlan(c.text);
    ASSERT_FALSE(plan.ok()) << c.text;
    EXPECT_NE(plan.status().message().find(c.expect), std::string::npos)
        << c.text << " -> " << plan.status().ToString();
  }
}

// ---- determinism ----

struct ScenarioRun {
  std::vector<std::string> trace;
  sim::SimTime end = 0;
  std::uint64_t faults = 0;
};

ScenarioRun RunLossyScenario() {
  FaultRig rig(2);
  char plan[256];
  std::snprintf(plan, sizeof(plan),
                "seed 99\n"
                "drop node=* at=0 for=20ms p=0.15\n"
                "qp_error node=%u at=40us\n"
                "degrade node=%u at=100us for=400us factor=4\n",
                rig.NodeId(0), rig.NodeId(1));
  rig.Arm(plan);
  RecoveryManager rm(*rig.cp, {}, /*seed=*/5);
  bpf::Program prog = BigProgram();
  (void)rig.DeployReliably(rm, 0, prog, 0, /*max_retries=*/8);
  (void)rig.DeployReliably(rm, 1, prog, 0, /*max_retries=*/8);
  rig.events.Run();
  return {rig.injector->trace(), rig.events.Now(),
          rig.injector->faults_injected()};
}

TEST(FaultInjection, SameSeedSamePlanIsBitIdentical) {
  ScenarioRun a = RunLossyScenario();
  ScenarioRun b = RunLossyScenario();
  EXPECT_GT(a.faults, 0u);
  EXPECT_EQ(a.end, b.end);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_EQ(a.trace[i], b.trace[i]) << "trace diverges at entry " << i;
  }
}

// ---- QP loss mid-deploy ----

TEST(Recovery, QpErrorMidDeployRetriesAndCommitsExactlyOnce) {
  // Phase 1: measure an undisturbed deploy of the same program.
  sim::Duration clean_duration = 0;
  {
    FaultRig rig(1);
    RecoveryManager rm(*rig.cp);
    const sim::SimTime t0 = rig.events.Now();
    auto r = rig.DeployReliably(rm, 0, BigProgram(), 0);
    ASSERT_TRUE(r.ok());
    clean_duration = rig.events.Now() - t0;
    ASSERT_GT(clean_duration, 0);
  }

  // Phase 2: kill the QP mid-deploy.
  FaultRig rig(1);
  char plan[96];
  std::snprintf(plan, sizeof(plan), "qp_error node=%u at=%lld\n",
                rig.NodeId(0),
                static_cast<long long>(clean_duration / 2));
  rig.Arm(plan);
  RecoveryManager rm(*rig.cp);
  auto r = rig.DeployReliably(rm, 0, BigProgram(), 0);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GE(r->attempts, 2);
  EXPECT_GE(r->reconnects, 1);
  EXPECT_GE(rig.injector->faults_injected(), 1u);

  // Exactly-once: one committed generation, remotely and in the flow's
  // bookkeeping, no matter how many attempts it took.
  EXPECT_EQ(r->version, 1u);
  EXPECT_EQ(rig.flows[0]->HookVersion(0), 1u);
  EXPECT_EQ(rig.sandboxes[0]->CommittedVersion(0), 1u);
  EXPECT_LE(rig.RemoteEpochWord(0), 1u);

  // The data plane runs the recovered deployment.
  rig.sandboxes[0]->RefreshHookNow(0);
  Bytes packet(4, 0);
  auto exec = rig.sandboxes[0]->ExecuteHook(0, packet);
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  EXPECT_EQ(exec->r0, kBigProgramResult);
}

// ---- corruption vs image MAC ----

TEST(Recovery, CorruptedImageWriteRejectedByMacAndRedeployed) {
  ControlPlaneConfig cp_config;
  cp_config.signing_key = 0x5eedc0de;
  SandboxConfig sandbox_config;
  sandbox_config.signing_key = 0x5eedc0de;
  FaultRig rig(1, cp_config, sandbox_config);
  char plan[96];
  std::snprintf(plan, sizeof(plan), "corrupt node=%u at=0 bytes=6\n",
                rig.NodeId(0));
  rig.Arm(plan);

  // The corrupted transfer "succeeds" from the wire's point of view: the
  // bytes land, the commit goes through, the control plane sees no error.
  const StatusOr<core::InjectTrace> deployed = sim::RunToCompletion(
      rig.events, rig.cp->Inject(*rig.flows[0], BigProgram(), 0));
  EXPECT_TRUE(deployed.ok()) << deployed.status().ToString();
  rig.events.Run();
  EXPECT_GE(rig.injector->faults_injected(), 1u);

  // ...but the data plane refuses to execute it: the ImageDesc MAC does
  // not verify over the flipped bytes.
  rig.sandboxes[0]->RefreshHookNow(0);
  Bytes packet(4, 0);
  auto exec = rig.sandboxes[0]->ExecuteHook(0, packet);
  ASSERT_FALSE(exec.ok());
  EXPECT_EQ(exec.status().code(), StatusCode::kPermissionDenied);
  EXPECT_GE(rig.sandboxes[0]->stats().signature_failures, 1u);

  // Redeploy (the corrupt fault was one-shot): a clean image commits as
  // the next generation and executes.
  RecoveryManager rm(*rig.cp);
  auto r = rig.DeployReliably(rm, 0, BigProgram(), 0);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->version, 2u);
  rig.sandboxes[0]->RefreshHookNow(0);
  auto exec2 = rig.sandboxes[0]->ExecuteHook(0, packet);
  ASSERT_TRUE(exec2.ok()) << exec2.status().ToString();
  EXPECT_EQ(exec2->r0, kBigProgramResult);
}

// ---- crash and reboot ----

TEST(Recovery, CrashAndRebootMidDeployRecovers) {
  // Phase 1: measure an undisturbed deploy so the crash can be aimed at
  // the middle of the transfer.
  sim::Duration clean_duration = 0;
  {
    FaultRig rig(1);
    RecoveryManager rm(*rig.cp);
    const sim::SimTime t0 = rig.events.Now();
    auto r = rig.DeployReliably(rm, 0, CounterProgram(), 0);
    ASSERT_TRUE(r.ok());
    clean_duration = rig.events.Now() - t0;
    ASSERT_GT(clean_duration, 0);
  }

  FaultRig rig(1);
  char plan[96];
  std::snprintf(plan, sizeof(plan), "crash node=%u at=%lld reboot_after=2ms\n",
                rig.NodeId(0),
                static_cast<long long>(rig.events.Now() + clean_duration / 2));
  rig.Arm(plan);
  Sandbox* sandbox = rig.sandboxes[0].get();
  rig.injector->SetNodeHooks(
      rig.NodeId(0),
      {.on_crash = [sandbox] { sandbox->Crash(); },
       .on_reboot = [sandbox] { EXPECT_TRUE(sandbox->Reboot().ok()); },
       .on_rogue = {}});

  RetryPolicy policy;
  policy.max_retries = 10;
  policy.base_backoff = sim::Micros(100);
  RecoveryManager rm(*rig.cp, policy);
  auto r = rig.DeployReliably(rm, 0, CounterProgram(), 0);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GE(r->attempts, 2);
  EXPECT_GE(r->reconnects, 1);

  // The rebooted node lost everything; recovery re-handshook, detected
  // the wipe, and redeployed (image + XState) as generation 1.
  EXPECT_EQ(r->version, 1u);
  EXPECT_EQ(rig.sandboxes[0]->CommittedVersion(0), 1u);
  EXPECT_FALSE(rig.flows[0]->xstates().empty());

  rig.sandboxes[0]->RefreshHookNow(0);
  Bytes packet = {0x07, 0x00, 0x00, 0x00};
  auto exec = rig.sandboxes[0]->ExecuteHook(0, packet);
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  EXPECT_EQ(exec->r0, 7u);
}

// ---- link quality windows ----

TEST(FaultInjection, DegradeWindowStretchesTransfers) {
  sim::Duration base = 0;
  for (int degraded = 0; degraded < 2; ++degraded) {
    FaultRig rig(1);
    if (degraded) {
      char plan[96];
      std::snprintf(plan, sizeof(plan),
                    "degrade node=%u at=0 for=1s factor=16\n",
                    rig.NodeId(0));
      rig.Arm(plan);
    }
    RecoveryManager rm(*rig.cp);
    const sim::SimTime t0 = rig.events.Now();
    auto r = rig.DeployReliably(rm, 0, BigProgram(), 0);
    ASSERT_TRUE(r.ok());
    const sim::Duration took = rig.events.Now() - t0;
    if (!degraded) {
      base = took;
    } else {
      EXPECT_GT(took, base) << "degrade window added no latency";
    }
  }
}

TEST(FaultInjection, PartitionDropsInsideWindowHealsAfter) {
  FaultRig rig(1);
  char plan[96];
  std::snprintf(plan, sizeof(plan), "partition node=%u at=0 for=80us\n",
                rig.NodeId(0));
  rig.Arm(plan);
  RecoveryManager rm(*rig.cp);
  // Deploy starts inside the partition: its first transfer attempt is
  // dropped (RETRY_EXC_ERR), then a retry lands after the window closes.
  auto r = rig.DeployReliably(rm, 0, BigProgram(), 0, /*max_retries=*/10);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->version, 1u);
  EXPECT_GT(rig.injector->faults_injected(), 0u);
  EXPECT_GT(rig.events.Now(), sim::Micros(80));
}

// ---- health lease ----

TEST(Health, LeaseTracksLastSuccessfulCompletion) {
  FaultRig rig(1);
  const rdma::NodeId node = rig.NodeId(0);
  // The handshake already completed successfully during rig setup.
  EXPECT_GE(rig.cp->LastSuccess(node), 0);
  EXPECT_TRUE(rig.cp->NodeHealthy(node, sim::Millis(5)));
  EXPECT_EQ(rig.cp->LastSuccess(node + 100), -1);
  EXPECT_FALSE(rig.cp->NodeHealthy(node + 100, sim::Millis(5)));

  // Idle past the lease: the node falls out of the health view until the
  // next successful completion renews it.
  rig.events.ScheduleAfter(sim::Millis(10), [] {});
  rig.events.Run();
  EXPECT_FALSE(rig.cp->NodeHealthy(node, sim::Millis(5)));

  RecoveryManager rm(*rig.cp);
  auto r = rig.DeployReliably(rm, 0, BigProgram(), 0);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(rig.cp->NodeHealthy(node, sim::Millis(5)));
  EXPECT_TRUE(rm.Healthy(*rig.flows[0]));
}

TEST(Health, LeaseBoundaryTickIsStillHealthy) {
  FaultRig rig(1);
  const rdma::NodeId node = rig.NodeId(0);
  const sim::SimTime last = rig.cp->LastSuccess(node);
  ASSERT_GE(last, 0);
  const sim::Duration lease = sim::Micros(500);

  // Land exactly on the boundary: now - last == lease must still count as
  // healthy (the lease is inclusive); one tick past it must not.
  rig.events.ScheduleAt(last + lease, [&] {
    EXPECT_TRUE(rig.cp->NodeHealthy(node, lease));
  });
  rig.events.ScheduleAt(last + lease + 1, [&] {
    EXPECT_FALSE(rig.cp->NodeHealthy(node, lease));
  });
  rig.events.Run();
}

// ---- orchestrator failure policy ----

TEST(Orchestration, RollingDeployRollsBackWhenANodeIsDead) {
  FaultRig rig(3);
  // Node 2 is dead for the whole run (no reboot).
  char plan[96];
  std::snprintf(plan, sizeof(plan), "crash node=%u at=0\n", rig.NodeId(2));
  rig.Arm(plan);

  RetryPolicy policy;
  policy.base_backoff = sim::Micros(20);
  RecoveryManager rm(*rig.cp, policy);
  core::Orchestrator orchestrator(*rig.cp);
  orchestrator.SetRecovery(&rm);
  for (CodeFlow* flow : rig.flows) orchestrator.RegisterNode(flow);
  orchestrator.RegisterProgram("firewall", BigProgram());

  auto orch_plan = core::ParseOrchestration(R"(
    extension firewall kind=ebpf hook=0
    group all nodes=0,1,2
    deploy firewall to=all strategy=rolling max_retries=1 on_failure=rollback
  )");
  ASSERT_TRUE(orch_plan.ok()) << orch_plan.status().ToString();

  const StatusOr<core::OrchestrationReport> executed = sim::RunToCompletion(
      rig.events, orchestrator.Execute(orch_plan.value(), nullptr));
  ASSERT_TRUE(executed.ok()) << executed.status().ToString();
  rig.events.Run();
  const core::OrchestrationReport& report = executed.value();

  // The plan finished (rollback policy absorbs the failure), and the
  // report spells out what happened.
  EXPECT_EQ(report.actions_executed, 1u);
  EXPECT_EQ(report.actions_degraded, 1u);
  EXPECT_EQ(report.nodes_failed, 1u);
  EXPECT_EQ(report.nodes_rolled_back, 2u);
  ASSERT_EQ(report.log.size(), 1u);
  EXPECT_NE(report.log[0].find("rolled back"), std::string::npos)
      << report.log[0];

  // The two nodes that had taken v1 are back to "nothing deployed".
  EXPECT_EQ(rig.sandboxes[0]->CommittedVersion(0), 0u);
  EXPECT_EQ(rig.sandboxes[1]->CommittedVersion(0), 0u);
}

}  // namespace
}  // namespace rdx
