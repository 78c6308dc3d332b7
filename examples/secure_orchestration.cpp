// Secure declarative orchestration — the §5 security model plus the
// future-work orchestration language in one flow:
//
//  1. principals with roles (operator / deployer / observer) are checked
//     by the Gatekeeper before any CodeFlow operation;
//  2. a declarative plan deploys a signed firewall fleet-wide;
//  3. the Inspector sweeps the fleet and detects in-memory tampering;
//  4. the operator rolls the damaged node back — by policy, something a
//     mere deployer may not do.
#include <cstdio>

#include "bpf/assembler.h"
#include "core/gatekeeper.h"
#include "core/inspector.h"
#include "core/orchestrator.h"

using namespace rdx;

int main() {
  constexpr std::uint64_t kFleetKey = 0xfee7;

  sim::EventQueue events;
  rdma::Fabric fabric(events);
  const rdma::NodeId cp_id = fabric.AddNode("control-plane", 128u << 20).id();
  core::ControlPlaneConfig cp_config;
  cp_config.signing_key = kFleetKey;
  core::ControlPlane cp(events, fabric, cp_id, cp_config);

  // A 4-node fleet whose sandboxes demand signed images.
  std::vector<std::unique_ptr<core::Sandbox>> sandboxes;
  std::vector<core::CodeFlow*> flows;
  core::Orchestrator orchestrator(cp);
  for (int i = 0; i < 4; ++i) {
    rdma::Node& node = fabric.AddNode("node" + std::to_string(i));
    core::SandboxConfig sandbox_config;
    sandbox_config.signing_key = kFleetKey;
    sandboxes.push_back(
        std::make_unique<core::Sandbox>(events, node, sandbox_config));
    if (!sandboxes.back()->CtxInit().ok()) return 1;
    auto reg = sandboxes.back()->CtxRegister();
    const StatusOr<core::CodeFlow*> flow = sim::RunToCompletion(
        events, cp.CreateCodeFlow(*sandboxes.back(), reg.value()));
    events.Run();
    if (!flow.ok()) return 1;
    flows.push_back(flow.value());
    orchestrator.RegisterNode(flow.value());
  }

  // --- 1. the privilege model ---
  core::Gatekeeper gate;
  gate.AddPrincipal("ops-oncall", core::Role::kOperator);
  gate.AddPrincipal("ci-bot", core::Role::kDeployer, /*max_insns=*/10000);
  gate.AddPrincipal("dashboard", core::Role::kObserver);

  bpf::Program firewall;
  firewall.name = "firewall";
  firewall.insns = bpf::Assemble(R"(
    r6 = *(u32*)(r1 + 0)
    r0 = 1
    if r6 != 1337 goto out
    r0 = 0
  out:
    exit
  )").value();
  orchestrator.RegisterProgram("firewall", firewall);

  auto authorized = [&](const char* who, core::Operation op,
                        std::uint64_t insns = 0) {
    Status s = gate.Authorize(who, op, insns);
    std::printf("  %-10s %-12s -> %s\n", who, core::OperationName(op),
                s.ok() ? "allowed" : s.ToString().c_str());
    return s.ok();
  };
  std::printf("authorization checks:\n");
  authorized("dashboard", core::Operation::kDeploy);          // denied
  authorized("ci-bot", core::Operation::kBroadcast);          // denied
  if (!authorized("ci-bot", core::Operation::kDeploy,
                  firewall.size())) {
    return 1;
  }

  // --- 2. declarative signed rollout (by ci-bot) ---
  auto plan = core::ParseOrchestration(R"(
    extension firewall kind=ebpf hook=0
    group fleet nodes=0,1,2,3
    deploy firewall to=fleet strategy=broadcast
  )");
  if (!plan.ok()) return 1;
  const StatusOr<core::OrchestrationReport> report = sim::RunToCompletion(
      events, orchestrator.Execute(plan.value(), nullptr));
  if (!report.ok()) {
    std::printf("plan failed: %s\n", report.status().ToString().c_str());
    return 1;
  }
  for (const std::string& line : report->log) {
    std::printf("plan: %s\n", line.c_str());
  }
  events.Run();
  Bytes attack(4);
  StoreLE<std::uint32_t>(attack.data(), 1337);
  std::printf("firewall live: packet 1337 verdict=%llu (signed images "
              "verified on load)\n",
              static_cast<unsigned long long>(
                  sandboxes[2]->ExecuteHook(0, attack)->r0));

  // --- 3. a compromise: node 1's image is corrupted in memory ---
  {
    auto& mem = sandboxes[1]->node().memory();
    const std::uint64_t desc =
        mem.ReadU64(flows[1]->remote_view().hook_table_addr).value();
    const std::uint64_t image_addr =
        mem.ReadU64(desc + core::kDescImageAddr).value();
    Bytes evil(1, 0x66);
    (void)mem.Write(image_addr + 11, evil);
  }
  core::Inspector inspector(cp);
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const StatusOr<std::vector<core::InspectReport>> bad =
        sim::RunToCompletion(events, inspector.Sweep(*flows[i]));
    if (bad.ok() && bad->empty()) {
      std::printf("inspector: node%zu healthy\n", i);
    } else if (bad.ok()) {
      std::printf("inspector: node%zu TAMPERED (hook %d: checksum=%d "
                  "signature=%d)\n",
                  i, (*bad)[0].hook, (*bad)[0].checksum_ok,
                  (*bad)[0].signature_ok);
    }
    events.Run();
  }

  // --- 4. remediation requires operator privilege ---
  if (authorized("ci-bot", core::Operation::kRollback)) return 1;  // denied
  if (!authorized("ops-oncall", core::Operation::kDeploy)) return 1;
  const bool repaired =
      sim::RunToCompletion(events, cp.Inject(*flows[1], firewall, 0)).ok();
  events.Run();
  if (!repaired) return 1;
  std::printf("node1 re-imaged by ops-oncall; verdict=%llu\n",
              static_cast<unsigned long long>(
                  sandboxes[1]->ExecuteHook(0, attack)->r0));
  std::printf("audit log: %zu decisions, %zu denied\n",
              gate.audit_log().size(), gate.denied_count());
  return 0;
}
