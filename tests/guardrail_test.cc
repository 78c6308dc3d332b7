// Runtime-guardrail tests (§5 "verification is necessary but not
// sufficient"): fuel budgets and trap accounting in the data plane, the
// RDMA-readable HealthBlock wire contract, the local fail-safe, the
// agentless HealthMonitor (one-sided reads -> remote CAS quarantine ->
// fingerprint blacklist), superseded-image reclamation, scratchpad
// exhaustion as a clean non-retryable status, and deterministic
// containment driven by the `rogue` fault-plan kind.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "bpf/assembler.h"
#include "bpf/proggen.h"
#include "bpf/verifier.h"
#include "core/layout.h"
#include "core/reliability.h"
#include "fault/injector.h"

namespace rdx {
namespace {

using core::CodeFlow;
using core::ControlPlane;
using core::ControlPlaneConfig;
using core::GuardrailPolicy;
using core::HealthMonitor;
using core::RecoveryManager;
using core::Sandbox;
using core::SandboxConfig;

bpf::Program ReturnN(std::uint64_t n, const std::string& name) {
  bpf::Program prog;
  prog.name = name;
  auto insns = bpf::Assemble("r0 = " + std::to_string(n) + "\nexit\n");
  EXPECT_TRUE(insns.ok()) << insns.status().ToString();
  prog.insns = std::move(insns).value();
  return prog;
}

// Tiny well-behaved filter: returns 7 in two instructions.
wasm::FilterModule GoodFilter() {
  wasm::FilterModule m;
  m.name = "good";
  m.code.push_back({wasm::WOp::kConst, 7});
  m.code.push_back({wasm::WOp::kReturn, 0});
  return m;
}

// Straight-line filter longer than the fuel budget under test.
wasm::FilterModule BurnFilter(std::size_t insns) {
  wasm::FilterModule m;
  m.name = "burner";
  while (m.code.size() + 2 < insns) {
    m.code.push_back({wasm::WOp::kConst, 1});
    m.code.push_back({wasm::WOp::kDrop, 0});
  }
  m.code.push_back({wasm::WOp::kConst, 0});
  m.code.push_back({wasm::WOp::kReturn, 0});
  return m;
}

class NullHost final : public wasm::WasmHost {
 public:
  StatusOr<std::uint64_t> CallHost(std::int32_t, std::uint64_t,
                                   std::uint64_t) override {
    return 1ull;
  }
};

struct GuardrailRig {
  sim::EventQueue events;
  rdma::Fabric fabric{events};
  std::unique_ptr<ControlPlane> cp;
  std::unique_ptr<Sandbox> sandbox;
  CodeFlow* flow = nullptr;

  explicit GuardrailRig(SandboxConfig sandbox_config = {},
                        ControlPlaneConfig cp_config = {}) {
    const rdma::NodeId cp_id = fabric.AddNode("cp", 128u << 20).id();
    cp = std::make_unique<ControlPlane>(events, fabric, cp_id, cp_config);
    rdma::Node& node = fabric.AddNode("target");
    sandbox = std::make_unique<Sandbox>(events, node, sandbox_config);
    EXPECT_TRUE(sandbox->CtxInit().ok());
    auto reg = sandbox->CtxRegister();
    EXPECT_TRUE(reg.ok());
    const StatusOr<CodeFlow*> created =
        sim::RunToCompletion(events, cp->CreateCodeFlow(*sandbox, reg.value()));
    EXPECT_TRUE(created.ok()) << created.status().ToString();
    events.Run();
    if (created.ok()) flow = created.value();
  }

  template <class Source>
  Status Inject(const Source& src, int hook) {
    const StatusOr<core::InjectTrace> r =
        sim::RunToCompletion(events, cp->Inject(*flow, src, hook));
    events.Run();
    return r.status();
  }

  // Committed desc address of `hook` as the control plane sees it.
  std::uint64_t DescAddr(int hook) {
    const StatusOr<ControlPlane::HookProbe> p =
        sim::RunToCompletion(events, cp->ProbeHook(*flow, hook));
    EXPECT_TRUE(p.ok()) << p.status().ToString();
    events.Run();
    return p.ok() ? p->desc_addr : 0;
  }

  void Poll(HealthMonitor& monitor) {
    sim::RunToCompletion(events, monitor.PollNow());
    events.Run();
  }

  std::uint64_t RemoteWord(std::uint64_t addr) {
    return sandbox->node().memory().ReadU64(addr).value();
  }
};

// ---- data-plane fuel + trap accounting ----

TEST(Guardrail, FuelBudgetStopsRunawayProgram) {
  SandboxConfig config;
  config.fuel_budget = 4096;
  config.max_consecutive_failures = 0;  // isolate the budget itself
  GuardrailRig rig(config);

  bpf::RogueGenOptions rogue;
  rogue.kind = bpf::RogueKind::kFuelBurn;
  rogue.target_insns = 8192;  // straight-line: executed length == size
  ASSERT_TRUE(rig.Inject(bpf::GenerateRogueProgram(rogue), 0).ok());
  rig.sandbox->RefreshHookNow(0);

  Bytes packet(8, 0);
  auto exec = rig.sandbox->ExecuteHook(0, packet);
  ASSERT_FALSE(exec.ok());
  EXPECT_EQ(exec.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(rig.sandbox->stats().fuel_exhaustions, 1u);
  EXPECT_EQ(rig.sandbox->stats().traps, 0u);
  EXPECT_EQ(rig.sandbox->ReadLocalHealth(0).fuel_exhaustions, 1u);
}

TEST(Guardrail, RogueTrapProgramPassesVerifierButTrapsAtRuntime) {
  bpf::RogueGenOptions rogue;  // kTrapLoop
  bpf::Program prog = bpf::GenerateRogueProgram(rogue);

  // The whole point: the verifier is satisfied...
  bpf::Verifier verifier;
  EXPECT_TRUE(verifier.Verify(prog).ok());

  // ...and every execution still faults.
  SandboxConfig config;
  config.max_consecutive_failures = 0;
  GuardrailRig rig(config);
  ASSERT_TRUE(rig.Inject(prog, 0).ok());
  rig.sandbox->RefreshHookNow(0);
  Bytes packet(8, 0);
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(rig.sandbox->ExecuteHook(0, packet).ok());
  }
  EXPECT_EQ(rig.sandbox->stats().traps, 3u);
  const core::HealthView health = rig.sandbox->ReadLocalHealth(0);
  EXPECT_EQ(health.executions, 3u);
  EXPECT_EQ(health.traps, 3u);
  EXPECT_EQ(health.consecutive_failures, 3u);
}

// ---- HealthBlock wire contract ----

TEST(Guardrail, HealthBlockWireContractMatchesLocalView) {
  GuardrailRig rig;
  ASSERT_TRUE(rig.Inject(ReturnN(5, "five"), 2).ok());
  rig.sandbox->RefreshHookNow(2);
  Bytes packet(8, 0);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(rig.sandbox->ExecuteHook(2, packet).ok());
  }

  // The control block advertises the health array; hook 2's block sits at
  // the documented stride and its words at the documented offsets.
  const auto& view = rig.sandbox->view();
  EXPECT_EQ(rig.RemoteWord(view.cb_addr + core::kCbHealthAddr),
            view.health_addr);
  const std::uint64_t hb = view.health_addr + 2 * core::kHealthBlockBytes;
  EXPECT_EQ(rig.RemoteWord(hb + core::kHbExecutions), 4u);
  EXPECT_EQ(rig.RemoteWord(hb + core::kHbTraps), 0u);
  EXPECT_EQ(rig.RemoteWord(hb + core::kHbLastGoodDesc), rig.DescAddr(2));

  // A one-sided READ decodes to the same view the local CPU has.
  const StatusOr<core::HealthView> read =
      sim::RunToCompletion(rig.events, rig.cp->ReadHealth(*rig.flow, 2));
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  rig.events.Run();
  const core::HealthView& remote = read.value();
  const core::HealthView local = rig.sandbox->ReadLocalHealth(2);
  EXPECT_EQ(remote.executions, local.executions);
  EXPECT_EQ(remote.traps, local.traps);
  EXPECT_EQ(remote.fuel_exhaustions, local.fuel_exhaustions);
  EXPECT_EQ(remote.consecutive_failures, local.consecutive_failures);
  EXPECT_EQ(remote.last_good_desc, local.last_good_desc);
  EXPECT_EQ(remote.failsafe_detaches, local.failsafe_detaches);
}

// ---- local fail-safe ----

TEST(Guardrail, LocalFailSafeRevertsToLastGoodImage) {
  SandboxConfig config;
  config.max_consecutive_failures = 3;
  GuardrailRig rig(config);

  ASSERT_TRUE(rig.Inject(ReturnN(42, "good"), 0).ok());
  rig.sandbox->RefreshHookNow(0);
  Bytes packet(8, 0);
  auto exec = rig.sandbox->ExecuteHook(0, packet);
  ASSERT_TRUE(exec.ok());
  EXPECT_EQ(exec->r0, 42u);  // v1 runs; last_good now points at it

  bpf::RogueGenOptions rogue;  // kTrapLoop
  ASSERT_TRUE(rig.Inject(bpf::GenerateRogueProgram(rogue), 0).ok());
  rig.sandbox->RefreshHookNow(0);
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(rig.sandbox->ExecuteHook(0, packet).ok());
  }

  // Third consecutive failure tripped the fail-safe: the hook slot points
  // back at v1 and traffic flows again without any control-plane help.
  EXPECT_EQ(rig.sandbox->stats().failsafe_detaches, 1u);
  EXPECT_EQ(rig.sandbox->ReadLocalHealth(0).failsafe_detaches, 1u);
  auto healed = rig.sandbox->ExecuteHook(0, packet);
  ASSERT_TRUE(healed.ok()) << healed.status().ToString();
  EXPECT_EQ(healed->r0, 42u);
}

TEST(Guardrail, FailSafeDetachesWhenNoGoodVersionExists) {
  SandboxConfig config;
  config.max_consecutive_failures = 2;
  GuardrailRig rig(config);

  // The very first image on the hook is rogue: there is no last-good
  // version, so the fail-safe detaches outright (empty hook = accept).
  bpf::RogueGenOptions rogue;  // kTrapLoop
  ASSERT_TRUE(rig.Inject(bpf::GenerateRogueProgram(rogue), 0).ok());
  rig.sandbox->RefreshHookNow(0);
  Bytes packet(8, 0);
  EXPECT_FALSE(rig.sandbox->ExecuteHook(0, packet).ok());
  EXPECT_FALSE(rig.sandbox->ExecuteHook(0, packet).ok());
  EXPECT_EQ(rig.sandbox->stats().failsafe_detaches, 1u);

  auto exec = rig.sandbox->ExecuteHook(0, packet);
  ASSERT_TRUE(exec.ok());
  EXPECT_EQ(exec->r0, 1u);  // accept-by-default on the empty hook
  EXPECT_GE(rig.sandbox->stats().empty_hook_executions, 1u);
}

// ---- agentless detection + remote quarantine ----

TEST(Guardrail, MonitorQuarantinesCrashLoopingEbpfRemotely) {
  SandboxConfig config;
  config.max_consecutive_failures = 3;
  GuardrailRig rig(config);

  ASSERT_TRUE(rig.Inject(ReturnN(42, "good"), 0).ok());
  rig.sandbox->RefreshHookNow(0);
  Bytes packet(8, 0);
  ASSERT_TRUE(rig.sandbox->ExecuteHook(0, packet).ok());
  const std::uint64_t good_desc = rig.DescAddr(0);

  bpf::RogueGenOptions rogue;  // kTrapLoop
  bpf::Program bad = bpf::GenerateRogueProgram(rogue);
  ASSERT_TRUE(rig.Inject(bad, 0).ok());
  const std::uint64_t epoch_before = rig.flow->epoch();
  rig.sandbox->RefreshHookNow(0);
  const std::uint64_t bad_desc = rig.DescAddr(0);
  ASSERT_NE(bad_desc, good_desc);
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(rig.sandbox->ExecuteHook(0, packet).ok());
  }

  // One poll over the HealthBlock: the monitor sees the fail-safe fired,
  // repairs the control plane's bookkeeping, bumps the epoch, and
  // blacklists the rogue image's fingerprint.
  HealthMonitor monitor(*rig.cp);
  monitor.Watch(*rig.flow);
  rig.Poll(monitor);
  ASSERT_EQ(monitor.records().size(), 1u);
  EXPECT_EQ(monitor.records()[0].reason, "local fail-safe fired");
  EXPECT_EQ(monitor.records()[0].bad_desc, bad_desc);
  EXPECT_EQ(monitor.records()[0].good_desc, good_desc);
  EXPECT_TRUE(monitor.records()[0].quarantined);
  EXPECT_EQ(rig.cp->quarantines(), 1u);
  EXPECT_EQ(rig.flow->epoch(), epoch_before + 1);
  EXPECT_EQ(rig.DescAddr(0), good_desc);

  // Traffic keeps executing the last-good version...
  rig.sandbox->RefreshHookNow(0);
  auto exec = rig.sandbox->ExecuteHook(0, packet);
  ASSERT_TRUE(exec.ok());
  EXPECT_EQ(exec->r0, 42u);

  // ...and redeploying the quarantined program is refused at validation.
  Status redeploy = rig.Inject(bad, 0);
  ASSERT_FALSE(redeploy.ok());
  EXPECT_EQ(redeploy.code(), StatusCode::kPermissionDenied);
  // A different (healthy) program still deploys fine.
  EXPECT_TRUE(rig.Inject(ReturnN(9, "after"), 1).ok());

  // A second poll must not re-quarantine the good image: the stale
  // consecutive counter alone is not evidence of fresh failures.
  rig.Poll(monitor);
  EXPECT_EQ(monitor.records().size(), 1u);
  EXPECT_EQ(rig.cp->quarantines(), 1u);
}

TEST(Guardrail, MonitorQuarantinesFuelBurningWasmByRemoteCas) {
  SandboxConfig config;
  config.wasm_fuel_budget = 256;
  config.max_consecutive_failures = 0;  // no local fail-safe: the CAS must
                                        // do the actual containment
  GuardrailRig rig(config);

  NullHost host;
  ASSERT_TRUE(rig.Inject(GoodFilter(), 0).ok());
  rig.sandbox->RefreshHookNow(0);
  auto exec = rig.sandbox->ExecuteWasmHook(0, host);
  ASSERT_TRUE(exec.ok());
  EXPECT_EQ(exec->verdict, 7u);
  const std::uint64_t good_desc = rig.DescAddr(0);

  wasm::FilterModule burner = BurnFilter(1024);
  ASSERT_TRUE(rig.Inject(burner, 0).ok());
  rig.sandbox->RefreshHookNow(0);
  const std::uint64_t bad_desc = rig.DescAddr(0);
  for (int i = 0; i < 8; ++i) {
    auto burn = rig.sandbox->ExecuteWasmHook(0, host);
    ASSERT_FALSE(burn.ok());
    EXPECT_EQ(burn.status().code(), StatusCode::kResourceExhausted);
  }
  EXPECT_EQ(rig.sandbox->stats().fuel_exhaustions, 8u);
  // Nothing local intervened: the slot still holds the burner.
  EXPECT_EQ(rig.sandbox->stats().failsafe_detaches, 0u);

  HealthMonitor monitor(*rig.cp);
  monitor.Watch(*rig.flow);
  rig.Poll(monitor);
  ASSERT_EQ(monitor.records().size(), 1u);
  EXPECT_TRUE(monitor.records()[0].quarantined);
  EXPECT_EQ(monitor.records()[0].bad_desc, bad_desc);
  EXPECT_EQ(monitor.records()[0].good_desc, good_desc);

  // The remote CAS swung the slot back; after the flush the data plane
  // executes the good filter again.
  EXPECT_EQ(rig.DescAddr(0), good_desc);
  rig.sandbox->RefreshHookNow(0);
  auto healed = rig.sandbox->ExecuteWasmHook(0, host);
  ASSERT_TRUE(healed.ok()) << healed.status().ToString();
  EXPECT_EQ(healed->verdict, 7u);

  Status redeploy = rig.Inject(burner, 0);
  ASSERT_FALSE(redeploy.ok());
  EXPECT_EQ(redeploy.code(), StatusCode::kPermissionDenied);
}

TEST(Guardrail, ObserveOnlyModeRecordsWithoutQuarantining) {
  SandboxConfig config;
  config.max_consecutive_failures = 0;
  GuardrailRig rig(config);
  bpf::RogueGenOptions rogue;  // kTrapLoop
  ASSERT_TRUE(rig.Inject(bpf::GenerateRogueProgram(rogue), 0).ok());
  rig.sandbox->RefreshHookNow(0);
  Bytes packet(8, 0);
  for (int i = 0; i < 8; ++i) {
    EXPECT_FALSE(rig.sandbox->ExecuteHook(0, packet).ok());
  }

  GuardrailPolicy policy;
  policy.auto_quarantine = false;
  HealthMonitor monitor(*rig.cp, policy);
  monitor.Watch(*rig.flow);
  rig.Poll(monitor);
  ASSERT_EQ(monitor.records().size(), 1u);
  EXPECT_FALSE(monitor.records()[0].quarantined);
  EXPECT_EQ(rig.cp->quarantines(), 0u);
  // The rogue image is still attached (nobody contained it).
  EXPECT_NE(rig.DescAddr(0), 0u);
}

// ---- superseded-image reclamation ----

TEST(Guardrail, SupersededImagesReclaimedOnCommit) {
  ControlPlaneConfig cp_config;
  cp_config.hook_history_depth = 1;
  GuardrailRig rig({}, cp_config);

  ASSERT_TRUE(rig.Inject(ReturnN(1, "v1"), 0).ok());
  const std::uint64_t desc1 = rig.DescAddr(0);
  ASSERT_TRUE(rig.Inject(ReturnN(2, "v2"), 0).ok());
  EXPECT_EQ(rig.sandbox->stats().images_reclaimed, 0u);  // depth 1 keeps v1
  ASSERT_TRUE(rig.Inject(ReturnN(3, "v3"), 0).ok());

  // Committing v3 pushed v2 into the history and evicted v1: its refcount
  // word is zeroed over RDMA and the freed bytes are accounted.
  EXPECT_EQ(rig.sandbox->stats().images_reclaimed, 1u);
  EXPECT_GT(rig.sandbox->stats().scratch_bytes_reclaimed, 0u);
  EXPECT_EQ(rig.RemoteWord(desc1 + core::kDescRefcount), 0u);

  // Rollback within the retained depth still works: v3 -> v2.
  const Status rolled =
      sim::RunToCompletion(rig.events, rig.cp->Rollback(*rig.flow, 0));
  ASSERT_TRUE(rolled.ok()) << rolled.ToString();
  rig.events.Run();
  rig.sandbox->RefreshHookNow(0);
  Bytes packet(8, 0);
  auto exec = rig.sandbox->ExecuteHook(0, packet);
  ASSERT_TRUE(exec.ok());
  EXPECT_EQ(exec->r0, 2u);
}

// ---- scratchpad exhaustion ----

TEST(Guardrail, ScratchExhaustionIsCleanStatusAndNotRetried) {
  SandboxConfig config;
  config.scratch_bytes = 8192;
  // Every image stays live as a rollback target, so reuse of reclaimed
  // regions cannot make room: 17 live images of ~600 bytes need more than
  // the scratchpad.
  ControlPlaneConfig cp_config;
  cp_config.hook_history_depth = 16;
  GuardrailRig rig(config, cp_config);

  bpf::ProgGenOptions gen;
  gen.target_insns = 64;
  gen.use_maps = false;
  // Fill the scratchpad with distinct live images until the bump
  // allocator runs dry; the failure is the dedicated status, not a
  // generic abort.
  Status last = OkStatus();
  for (int i = 0; i < 64 && last.ok(); ++i) {
    gen.seed = 100 + i;
    last = rig.Inject(bpf::GenerateProgram(gen), 0);
  }
  ASSERT_FALSE(last.ok());
  EXPECT_EQ(last.code(), StatusCode::kScratchExhausted) << last.ToString();

  // Baseline: how long one (failing) injection pipeline takes.
  gen.seed = 998;
  const sim::SimTime base_t0 = rig.events.Now();
  EXPECT_FALSE(rig.Inject(bpf::GenerateProgram(gen), 0).ok());
  const sim::Duration one_attempt = rig.events.Now() - base_t0;

  // The recovery layer refuses to burn retries on it: a full scratchpad
  // does not heal with backoff, so the verdict arrives after ~one attempt
  // with no backoff schedule behind it.
  RecoveryManager rm(*rig.cp);
  const sim::SimTime t0 = rig.events.Now();
  gen.seed = 999;
  const StatusOr<core::RecoveryOutcome> through_recovery = sim::RunToCompletion(
      rig.events, rm.DeployReliably(*rig.flow, bpf::GenerateProgram(gen), 0));
  rig.events.Run();
  EXPECT_EQ(through_recovery.status().code(), StatusCode::kScratchExhausted);
  EXPECT_LT(rig.events.Now() - t0,
            2 * one_attempt + rm.policy().base_backoff);
}

// ---- rogue fault-plan kind: deterministic end-to-end containment ----

struct ContainmentRun {
  std::vector<std::string> fault_trace;
  std::vector<std::string> reasons;
  std::uint64_t quarantines = 0;
  sim::SimTime end = 0;
};

ContainmentRun RunRogueScenario() {
  SandboxConfig config;
  config.max_consecutive_failures = 3;
  GuardrailRig rig(config);
  fault::FaultInjector injector(rig.events, rig.fabric);

  // Healthy baseline on hook 0.
  EXPECT_TRUE(rig.Inject(ReturnN(42, "good"), 0).ok());
  rig.sandbox->RefreshHookNow(0);
  Bytes packet(8, 0);
  EXPECT_TRUE(rig.sandbox->ExecuteHook(0, packet).ok());

  // The plan turns hook 0 rogue at t=200us; the rig wires "rogue" to an
  // injection of the trapping generator program.
  char plan_text[128];
  std::snprintf(plan_text, sizeof(plan_text),
                "seed 7\nrogue node=%u at=200us hook=0 kind=trap\n",
                rig.sandbox->node().id());
  auto plan = fault::ParseFaultPlan(plan_text);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  injector.SetNodeHooks(
      rig.sandbox->node().id(),
      {.on_crash = {},
       .on_reboot = {},
       .on_rogue = [&rig](int hook, fault::RogueFaultKind) {
        bpf::RogueGenOptions rogue;  // kTrapLoop
        sim::Start(
            rig.cp->Inject(*rig.flow, bpf::GenerateRogueProgram(rogue), hook),
            [](StatusOr<core::InjectTrace> r) { EXPECT_TRUE(r.ok()); });
      }});
  EXPECT_TRUE(injector.Arm(plan.value()).ok());

  // Steady traffic against hook 0 every 50us for 2ms.
  for (int i = 1; i <= 40; ++i) {
    rig.events.ScheduleAt(sim::Micros(50) * i, [&rig] {
      rig.sandbox->RefreshHookNow(0);
      Bytes p(8, 0);
      (void)rig.sandbox->ExecuteHook(0, p);
    });
  }

  HealthMonitor monitor(*rig.cp);
  monitor.Watch(*rig.flow);
  monitor.Start();
  rig.events.ScheduleAt(sim::Millis(3), [&monitor] { monitor.Stop(); });
  rig.events.Run();

  ContainmentRun run;
  run.fault_trace = injector.trace();
  for (const auto& rec : monitor.records()) run.reasons.push_back(rec.reason);
  run.quarantines = rig.cp->quarantines();
  run.end = rig.events.Now();

  // Containment happened and traffic ended up back on the good version.
  EXPECT_EQ(run.quarantines, 1u);
  rig.sandbox->RefreshHookNow(0);
  auto exec = rig.sandbox->ExecuteHook(0, packet);
  EXPECT_TRUE(exec.ok());
  if (exec.ok()) {
    EXPECT_EQ(exec->r0, 42u);
  }
  return run;
}

TEST(Guardrail, RogueFaultPlanDrivesDeterministicContainment) {
  ContainmentRun a = RunRogueScenario();
  ContainmentRun b = RunRogueScenario();
  ASSERT_EQ(a.fault_trace.size(), 1u);
  EXPECT_NE(a.fault_trace[0].find("rogue node="), std::string::npos);
  EXPECT_NE(a.fault_trace[0].find("kind=trap"), std::string::npos);
  EXPECT_EQ(a.fault_trace, b.fault_trace);
  EXPECT_EQ(a.reasons, b.reasons);
  EXPECT_EQ(a.quarantines, b.quarantines);
  EXPECT_EQ(a.end, b.end);
}

}  // namespace
}  // namespace rdx
