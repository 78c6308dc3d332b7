// §5 security layer tests: role-based gatekeeper + audit log, image
// signing end-to-end (sandbox refuses unsigned/forged images), forged Wasm
// images refused at decode even unsigned, and the remote Inspector
// detecting in-memory tampering.
#include <gtest/gtest.h>

#include "bpf/assembler.h"
#include "core/gatekeeper.h"
#include "core/inspector.h"
#include "core/layout.h"
#include "wasm/filter.h"

namespace rdx::core {
namespace {

// ---- Gatekeeper ----

TEST(Gatekeeper, RoleMatrix) {
  Gatekeeper gate;
  gate.AddPrincipal("alice", Role::kOperator);
  gate.AddPrincipal("bob", Role::kDeployer);
  gate.AddPrincipal("carol", Role::kObserver);

  // Operator: everything.
  for (Operation op : {Operation::kDeploy, Operation::kDetach,
                       Operation::kRollback, Operation::kXStateRead,
                       Operation::kXStateWrite, Operation::kLock,
                       Operation::kBroadcast}) {
    EXPECT_TRUE(gate.Authorize("alice", op).ok()) << OperationName(op);
  }
  // Deployer: deploy/detach/read only.
  EXPECT_TRUE(gate.Authorize("bob", Operation::kDeploy).ok());
  EXPECT_TRUE(gate.Authorize("bob", Operation::kDetach).ok());
  EXPECT_TRUE(gate.Authorize("bob", Operation::kXStateRead).ok());
  EXPECT_FALSE(gate.Authorize("bob", Operation::kRollback).ok());
  EXPECT_FALSE(gate.Authorize("bob", Operation::kXStateWrite).ok());
  EXPECT_FALSE(gate.Authorize("bob", Operation::kBroadcast).ok());
  // Observer: reads only.
  EXPECT_TRUE(gate.Authorize("carol", Operation::kXStateRead).ok());
  EXPECT_FALSE(gate.Authorize("carol", Operation::kDeploy).ok());
}

TEST(Gatekeeper, UnknownPrincipalDenied) {
  Gatekeeper gate;
  Status s = gate.Authorize("mallory", Operation::kXStateRead);
  EXPECT_EQ(s.code(), StatusCode::kPermissionDenied);
}

TEST(Gatekeeper, RemovedPrincipalDenied) {
  Gatekeeper gate;
  gate.AddPrincipal("alice", Role::kOperator);
  EXPECT_TRUE(gate.Authorize("alice", Operation::kDeploy).ok());
  EXPECT_TRUE(gate.RemovePrincipal("alice").ok());
  EXPECT_FALSE(gate.Authorize("alice", Operation::kDeploy).ok());
  EXPECT_FALSE(gate.RemovePrincipal("alice").ok());
}

TEST(Gatekeeper, InstructionBudgetEnforced) {
  Gatekeeper gate;
  gate.AddPrincipal("bob", Role::kDeployer, /*max_insns=*/5000);
  EXPECT_TRUE(gate.Authorize("bob", Operation::kDeploy, 4999).ok());
  EXPECT_EQ(gate.Authorize("bob", Operation::kDeploy, 5001).code(),
            StatusCode::kResourceExhausted);
  // Budget applies to deploy-class ops only.
  EXPECT_TRUE(gate.Authorize("bob", Operation::kXStateRead, 999999).ok());
}

TEST(Gatekeeper, AuditLogRecordsDecisions) {
  Gatekeeper gate;
  gate.AddPrincipal("carol", Role::kObserver);
  (void)gate.Authorize("carol", Operation::kXStateRead);
  (void)gate.Authorize("carol", Operation::kDeploy);
  (void)gate.Authorize("nobody", Operation::kDeploy);
  ASSERT_EQ(gate.audit_log().size(), 3u);
  EXPECT_TRUE(gate.audit_log()[0].allowed);
  EXPECT_FALSE(gate.audit_log()[1].allowed);
  EXPECT_FALSE(gate.audit_log()[2].allowed);
  EXPECT_EQ(gate.denied_count(), 2u);
  EXPECT_EQ(gate.audit_log()[1].principal, "carol");
}

// ---- signing primitives ----

TEST(Signing, RoundTrip) {
  Bytes image = {1, 2, 3, 4, 5};
  const std::uint64_t sig = SignImage(image, 0xabc123);
  EXPECT_TRUE(VerifyImageSignature(image, 0xabc123, sig));
}

TEST(Signing, WrongKeyFails) {
  Bytes image = {1, 2, 3};
  const std::uint64_t sig = SignImage(image, 111);
  EXPECT_FALSE(VerifyImageSignature(image, 222, sig));
}

TEST(Signing, TamperedImageFails) {
  Bytes image(256, 7);
  const std::uint64_t sig = SignImage(image, 42);
  image[100] ^= 1;
  EXPECT_FALSE(VerifyImageSignature(image, 42, sig));
}

// ---- end-to-end signing + inspection ----

struct SecureRig {
  static constexpr std::uint64_t kKey = 0x5ec2e7;

  sim::EventQueue events;
  rdma::Fabric fabric{events};
  std::unique_ptr<ControlPlane> cp;
  std::unique_ptr<Sandbox> sandbox;
  CodeFlow* flow = nullptr;

  explicit SecureRig(std::uint64_t cp_key = kKey,
                     std::uint64_t sandbox_key = kKey) {
    const rdma::NodeId cp_id = fabric.AddNode("cp", 64u << 20).id();
    ControlPlaneConfig config;
    config.signing_key = cp_key;
    cp = std::make_unique<ControlPlane>(events, fabric, cp_id, config);
    rdma::Node& node = fabric.AddNode("n");
    SandboxConfig sandbox_config;
    sandbox_config.signing_key = sandbox_key;
    sandbox = std::make_unique<Sandbox>(events, node, sandbox_config);
    EXPECT_TRUE(sandbox->CtxInit().ok());
    auto reg = sandbox->CtxRegister();
    const StatusOr<CodeFlow*> created =
        sim::RunToCompletion(events, cp->CreateCodeFlow(*sandbox, reg.value()));
    events.Run();
    EXPECT_TRUE(created.ok());
    if (created.ok()) flow = created.value();
  }

  void Inject(std::uint64_t ret, int hook = 0) {
    bpf::Program prog;
    prog.name = "r" + std::to_string(ret);
    prog.insns =
        bpf::Assemble("r0 = " + std::to_string(ret) + "\nexit\n").value();
    const StatusOr<InjectTrace> r =
        sim::RunToCompletion(events, cp->Inject(*flow, prog, hook));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    events.Run();
  }
};

TEST(SigningEndToEnd, SignedImageExecutes) {
  SecureRig rig;
  rig.Inject(7);
  Bytes packet(4, 0);
  auto result = rig.sandbox->ExecuteHook(0, packet);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->r0, 7u);
  EXPECT_EQ(rig.sandbox->stats().signature_failures, 0u);
}

TEST(SigningEndToEnd, UnsignedControlPlaneRejected) {
  // Control plane does not sign; sandbox requires signatures.
  SecureRig rig(/*cp_key=*/0, /*sandbox_key=*/SecureRig::kKey);
  rig.Inject(7);
  Bytes packet(4, 0);
  auto result = rig.sandbox->ExecuteHook(0, packet);
  EXPECT_EQ(result.status().code(), StatusCode::kPermissionDenied);
  EXPECT_GT(rig.sandbox->stats().signature_failures, 0u);
}

TEST(SigningEndToEnd, KeyMismatchRejected) {
  SecureRig rig(/*cp_key=*/1, /*sandbox_key=*/2);
  rig.Inject(7);
  Bytes packet(4, 0);
  EXPECT_FALSE(rig.sandbox->ExecuteHook(0, packet).ok());
}

TEST(SigningEndToEnd, InMemoryTamperRejectedAtExecution) {
  SecureRig rig;
  rig.Inject(7);
  // An attacker with memory reach flips a bit in the deployed image. The
  // next (re)load must refuse it. Force a reload via version bump fake:
  // corrupt then clear the decoded-image cache via a refresh of a
  // changed desc — easiest is to tamper BEFORE first execution.
  const std::uint64_t desc =
      rig.sandbox->node().memory()
          .ReadU64(rig.flow->remote_view().hook_table_addr)
          .value();
  const std::uint64_t image_addr =
      rig.sandbox->node().memory().ReadU64(desc + kDescImageAddr).value();
  Bytes byte(1, 0xff);
  ASSERT_TRUE(
      rig.sandbox->node().memory().Write(image_addr + 9, byte).ok());
  Bytes packet(4, 0);
  EXPECT_FALSE(rig.sandbox->ExecuteHook(0, packet).ok());
}

TEST(Inspector, HealthyDeploymentPasses) {
  SecureRig rig;
  rig.Inject(7);
  Inspector inspector(*rig.cp);
  const StatusOr<InspectReport> report =
      sim::RunToCompletion(rig.events, inspector.Inspect(*rig.flow, 0));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->deployed);
  EXPECT_TRUE(report->desc_matches);
  EXPECT_TRUE(report->version_matches);
  EXPECT_TRUE(report->checksum_ok);
  EXPECT_TRUE(report->signature_ok);
  EXPECT_TRUE(report->Healthy(/*signing_enabled=*/true));
}

TEST(Inspector, EmptyHookReportsNotDeployed) {
  SecureRig rig;
  Inspector inspector(*rig.cp);
  const StatusOr<InspectReport> report =
      sim::RunToCompletion(rig.events, inspector.Inspect(*rig.flow, 3));
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->deployed);
}

TEST(Inspector, DetectsImageTampering) {
  SecureRig rig;
  rig.Inject(7);
  const std::uint64_t desc =
      rig.sandbox->node().memory()
          .ReadU64(rig.flow->remote_view().hook_table_addr)
          .value();
  const std::uint64_t image_addr =
      rig.sandbox->node().memory().ReadU64(desc + kDescImageAddr).value();
  Bytes byte(1, 0xaa);
  ASSERT_TRUE(
      rig.sandbox->node().memory().Write(image_addr + 12, byte).ok());

  Inspector inspector(*rig.cp);
  const StatusOr<InspectReport> report =
      sim::RunToCompletion(rig.events, inspector.Inspect(*rig.flow, 0));
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->deployed);
  EXPECT_FALSE(report->checksum_ok);
  EXPECT_FALSE(report->signature_ok);
  EXPECT_FALSE(report->Healthy(true));
}

TEST(Inspector, DetectsHookHijack) {
  SecureRig rig;
  rig.Inject(7);
  // Attacker swings the hook slot to a desc the control plane never
  // committed (placed inside the registered scratchpad, where an RDMA-
  // capable attacker could write).
  auto& mem = rig.sandbox->node().memory();
  const ControlBlockView& cb = rig.flow->remote_view();
  const std::uint64_t rogue = cb.scratch_addr + cb.scratch_size - 256;
  ASSERT_TRUE(mem.WriteU64(rogue + kDescImageAddr, rogue).ok());
  ASSERT_TRUE(mem.WriteU64(rogue + kDescImageLen, 16).ok());
  ASSERT_TRUE(mem.WriteU64(rogue + kDescVersion, 99).ok());
  ASSERT_TRUE(
      mem.WriteU64(rig.flow->remote_view().hook_table_addr, rogue).ok());

  Inspector inspector(*rig.cp);
  const StatusOr<InspectReport> report =
      sim::RunToCompletion(rig.events, inspector.Inspect(*rig.flow, 0));
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->deployed);
  EXPECT_FALSE(report->desc_matches);
  EXPECT_FALSE(report->version_matches);
  EXPECT_FALSE(report->Healthy(true));
}

TEST(Inspector, SweepFlagsOnlyUnhealthyHooks) {
  SecureRig rig;
  rig.Inject(1, 0);
  rig.Inject(2, 1);
  rig.Inject(3, 2);
  // Tamper with hook 1's image only.
  const std::uint64_t desc =
      rig.sandbox->node().memory()
          .ReadU64(rig.flow->remote_view().hook_table_addr + 8)
          .value();
  const std::uint64_t image_addr =
      rig.sandbox->node().memory().ReadU64(desc + kDescImageAddr).value();
  Bytes byte(1, 0x55);
  ASSERT_TRUE(
      rig.sandbox->node().memory().Write(image_addr + 10, byte).ok());

  Inspector inspector(*rig.cp);
  const StatusOr<std::vector<InspectReport>> bad =
      sim::RunToCompletion(rig.events, inspector.Sweep(*rig.flow));
  ASSERT_TRUE(bad.ok()) << bad.status().ToString();
  ASSERT_EQ(bad->size(), 1u);
  EXPECT_EQ((*bad)[0].hook, 1);
}

// ---- forged Wasm images ----

class CountingHost final : public wasm::WasmHost {
 public:
  StatusOr<std::uint64_t> CallHost(std::int32_t, std::uint64_t,
                                   std::uint64_t) override {
    ++calls;
    return 1ull;
  }
  int calls = 0;
};

// A linked image with a host call, locals and a branch.
wasm::WasmImage ForgeBase() {
  using wasm::WOp;
  wasm::FilterModule module;
  module.name = "base";
  module.imports = {{"get_header"}};
  module.code = {{WOp::kConst, 1},    {WOp::kSetLocal, 0},
                 {WOp::kGetLocal, 0}, {WOp::kConst, 2},
                 {WOp::kCallHost, 0}, {WOp::kBrIf, 8},
                 {WOp::kConst, 0},    {WOp::kReturn, 0},
                 {WOp::kGetLocal, 0}, {WOp::kReturn, 0}};
  auto image = wasm::CompileFilter(module);
  EXPECT_TRUE(image.ok()) << image.status().ToString();
  for (wasm::WasmReloc& reloc : image->relocs) {
    reloc.resolved_host_fn = 0;
    image->code[reloc.insn_index].imm = 0;
  }
  return std::move(image).value();
}

TEST(ForgedWasmImage, DecodeAndSandboxRejectCodeTheExecutorWouldHaveToCheck) {
  using wasm::WOp;
  struct Case {
    const char* what;
    void (*forge)(wasm::WasmImage&);
  };
  const Case cases[] = {
      {"local out of range",
       [](wasm::WasmImage& i) { i.code[1].imm = 1000; }},
      {"stack underflow",
       [](wasm::WasmImage& i) { i.code[0] = {WOp::kAdd, 0}; }},
      {"unknown opcode",
       [](wasm::WasmImage& i) { i.code[6].op = static_cast<WOp>(0x7f); }},
      {"backward branch", [](wasm::WasmImage& i) { i.code[5].imm = 2; }},
      {"branch to the end", [](wasm::WasmImage& i) { i.code[5].imm = 10; }},
      {"branch past the end", [](wasm::WasmImage& i) { i.code[5].imm = 99; }},
      {"reloc on a non-call",
       [](wasm::WasmImage& i) { i.relocs[0].insn_index = 3; }},
      {"call with no reloc", [](wasm::WasmImage& i) { i.relocs.clear(); }},
      {"two relocs on one call",
       [](wasm::WasmImage& i) { i.relocs.push_back(i.relocs[0]); }},
  };

  // The unmodified image decodes runnable and runs.
  const wasm::WasmImage base = ForgeBase();
  auto good = wasm::WasmImage::Deserialize(base.Serialize());
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_TRUE(good->runnable());

  for (const Case& c : cases) {
    wasm::WasmImage forged = base;
    c.forge(forged);
    // Serialize recomputes the checksum, so only the decoder's own checks
    // stand between these bytes and the executor.
    const Bytes wire = forged.Serialize();
    auto decoded = wasm::WasmImage::Deserialize(wire);
    ASSERT_FALSE(decoded.ok()) << c.what;
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument)
        << c.what << ": " << decoded.status().ToString();

    // The same bytes, RDMA-written over a deployed filter of an unsigned
    // sandbox, are refused when the hook loads them: no host call runs.
    SecureRig rig(/*cp_key=*/0, /*sandbox_key=*/0);
    const StatusOr<InjectTrace> injected = sim::RunToCompletion(
        rig.events, rig.cp->Inject(*rig.flow, wasm::GenerateFilter(300, 1), 0));
    ASSERT_TRUE(injected.ok()) << c.what << ": "
                               << injected.status().ToString();
    rig.events.Run();
    auto& mem = rig.sandbox->node().memory();
    const std::uint64_t desc =
        mem.ReadU64(rig.flow->remote_view().hook_table_addr).value();
    const std::uint64_t image_addr =
        mem.ReadU64(desc + kDescImageAddr).value();
    ASSERT_LE(wire.size(), mem.ReadU64(desc + kDescImageLen).value());
    ASSERT_TRUE(mem.Write(image_addr, wire).ok());
    ASSERT_TRUE(mem.WriteU64(desc + kDescImageLen, wire.size()).ok());
    rig.sandbox->RefreshHookNow(0);
    CountingHost host;
    auto run = rig.sandbox->ExecuteWasmHook(0, host);
    ASSERT_FALSE(run.ok()) << c.what;
    EXPECT_EQ(run.status().code(), StatusCode::kAborted)
        << c.what << ": " << run.status().ToString();
    EXPECT_EQ(rig.sandbox->stats().torn_image_failures, 1u) << c.what;
    EXPECT_EQ(host.calls, 0) << c.what;
  }
}

}  // namespace
}  // namespace rdx::core
