// Extension live migration for microsecond auto-scaling (§4, fourth case
// study): a serverless platform scales a pod out to a warm replica. The
// application state moves over RDMA (prior work); what RDX adds is moving
// the *sidecar extensions* — filter binary and live XState — in
// microseconds instead of re-running seconds of filter reloads:
//
//   1. the filter is already in the control plane's compile cache
//      ("validate and compile once"),
//   2. InjectExtension onto the replica = link + RDMA deploy (tens of us),
//   3. CopyXState moves the live counters (one READ + one WRITE).
#include <cstdio>

#include "bpf/assembler.h"
#include "core/codeflow.h"

using namespace rdx;

int main() {
  sim::EventQueue events;
  rdma::Fabric fabric(events);
  rdma::Node& cp_node = fabric.AddNode("control-plane", 64u << 20);
  rdma::Node& pod_a = fabric.AddNode("pod-a", 64u << 20);
  rdma::Node& pod_b = fabric.AddNode("pod-b (warm replica)", 64u << 20);
  core::ControlPlane cp(events, fabric, cp_node.id());

  auto boot = [&](rdma::Node& node) {
    auto sandbox =
        std::make_unique<core::Sandbox>(events, node, core::SandboxConfig{});
    if (!sandbox->CtxInit().ok()) std::abort();
    return sandbox;
  };
  auto bind = [&](core::Sandbox& sandbox) {
    auto reg = sandbox.CtxRegister();
    const StatusOr<core::CodeFlow*> flow =
        sim::RunToCompletion(events, cp.CreateCodeFlow(sandbox, reg.value()));
    events.Run();
    return flow.ok() ? flow.value() : nullptr;
  };

  auto sandbox_a = boot(pod_a);
  auto sandbox_b = boot(pod_b);
  core::CodeFlow* flow_a = bind(*sandbox_a);
  core::CodeFlow* flow_b = bind(*sandbox_b);
  if (flow_a == nullptr || flow_b == nullptr) return 1;

  // The pod's sidecar extension: a per-tenant request counter.
  bpf::Program prog;
  prog.name = "tenant-counter";
  prog.maps.push_back({"tenants", bpf::MapType::kHash, 4, 8, 64});
  prog.insns = bpf::Assemble(R"(
    r6 = *(u32*)(r1 + 0)        ; tenant id
    r6 &= 63
    *(u32*)(r10 - 4) = r6       ; key = tenant
    *(u64*)(r10 - 16) = 1       ; initial count
    r1 = map 0
    r2 = r10
    r2 += -4
    call map_lookup_elem
    if r0 == 0 goto fresh
    r8 = *(u64*)(r0 + 0)
    r8 += 1
    *(u64*)(r0 + 0) = r8
    r0 = 1
    exit
  fresh:
    r1 = map 0
    r2 = r10
    r2 += -4
    r3 = r10
    r3 += -16
    r4 = 0
    call map_update_elem
    r0 = 1
    exit
  )").value();

  // Deploy on pod A and serve some traffic.
  if (!sim::RunToCompletion(events, cp.Inject(*flow_a, prog, 0)).ok()) {
    std::abort();
  }
  events.Run();
  for (int i = 0; i < 500; ++i) {
    Bytes packet(4);
    StoreLE<std::uint32_t>(packet.data(), static_cast<std::uint32_t>(i % 3));
    if (!sandbox_a->ExecuteHook(0, packet).ok()) return 1;
  }

  // --- scale-out event: migrate the extension to the warm replica ---
  const sim::SimTime t0 = events.Now();

  // (a) binary: the compile cache makes this link + deploy only.
  const StatusOr<core::InjectTrace> trace =
      sim::RunToCompletion(events, cp.Inject(*flow_b, prog, 0));
  if (!trace.ok()) std::abort();
  events.Run();

  // (b) state: copy the live tenant counters A -> B.
  const std::uint64_t src = flow_a->xstates().at("tenants");
  const std::uint64_t dst = flow_b->xstates().at("tenants");
  if (!sim::RunToCompletion(events, cp.CopyXState(*flow_a, src, *flow_b, dst))
           .ok()) {
    std::abort();
  }
  events.Run();
  sandbox_b->RefreshXState();

  const double migration_us = sim::ToMicros(events.Now() - t0);
  std::printf("sidecar extension migrated pod-a -> pod-b in %.1f us "
              "(binary: cache hit=%s; state: 1 READ + 1 WRITE)\n",
              migration_us, trace->compile_cache_hit ? "yes" : "no");

  // The replica continues exactly where the original left off.
  Bytes packet(4, 0);
  if (!sandbox_b->ExecuteHook(0, packet).ok()) return 1;
  Bytes key(4, 0);
  const StatusOr<Bytes> value =
      sim::RunToCompletion(events, cp.XStateLookup(*flow_b, dst, key));
  if (value.ok()) {
    std::printf("tenant 0 count on replica: %llu (500 requests across 3 "
                "tenants on pod-a, +1 on pod-b)\n",
                static_cast<unsigned long long>(
                    LoadLE<std::uint64_t>(value->data())));
  }
  events.Run();
  std::printf("vs. agent path: re-verify + re-JIT + reload would cost "
              "milliseconds-to-seconds of replica CPU during scale-out\n");
  return 0;
}
