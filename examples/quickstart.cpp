// Quickstart: the smallest end-to-end RDX flow.
//
//  1. Stand up a simulated rack: one control-plane server, one node.
//  2. Boot a sandbox on the node (management stubs: ctx_init +
//     ctx_register) — the only time the node's CPU participates.
//  3. Create a CodeFlow; write an eBPF packet filter in assembly.
//  4. Inject it remotely: validate -> JIT -> deploy XState -> link ->
//     one-sided RDMA deploy -> atomic commit (+ coherence flush).
//  5. Run packets through the hook on the data plane, then read the
//     filter's counters back over RDMA — all without any agent.
//
// Build: cmake -B build -G Ninja && cmake --build build
// Run:   ./build/examples/quickstart
#include <cstdio>

#include "bpf/assembler.h"
#include "core/codeflow.h"

using namespace rdx;

int main() {
  // --- 1. the rack ---
  sim::EventQueue events;
  rdma::Fabric fabric(events);
  rdma::Node& cp_node = fabric.AddNode("control-plane", 64u << 20);
  rdma::Node& worker = fabric.AddNode("worker-0", 64u << 20);
  core::ControlPlane cp(events, fabric, cp_node.id());

  // --- 2. boot the sandbox (the one-time local setup) ---
  core::Sandbox sandbox(events, worker, core::SandboxConfig{});
  if (!sandbox.CtxInit().ok()) return 1;
  auto reg = sandbox.CtxRegister();
  if (!reg.ok()) return 1;

  // --- 3. a CodeFlow handle bound to the remote node ---
  // Every rdx_* operation is a coroutine; RunToCompletion drives one from
  // plain code by stepping the event queue until it finishes.
  StatusOr<core::CodeFlow*> created =
      sim::RunToCompletion(events, cp.CreateCodeFlow(sandbox, reg.value()));
  events.Run();
  if (!created.ok()) return 1;
  core::CodeFlow* flow = created.value();
  std::printf("CodeFlow bound: %llu hooks, %.1f MB scratchpad\n",
              static_cast<unsigned long long>(flow->remote_view().hook_count),
              static_cast<double>(flow->remote_view().scratch_size) /
                  (1 << 20));

  // A filter: drop packets whose first byte is < 0x10, count drops and
  // accepts in an array map.
  bpf::Program prog;
  prog.name = "tiny-firewall";
  prog.maps.push_back({"verdicts", bpf::MapType::kArray, 4, 8, 2});
  auto insns = bpf::Assemble(R"(
    r6 = *(u32*)(r1 + 0)      ; first packet word
    r6 &= 255
    r7 = 1                    ; verdict: accept
    if r6 >= 16 goto count
    r7 = 0                    ; verdict: drop
  count:
    *(u32*)(r10 - 4) = 0
    *(u32*)(r10 - 4) = 0      ; key = verdict slot
    r2 = r10
    r2 += -4
    r1 = map 0
    call map_lookup_elem
    if r0 == 0 goto out
    r8 = *(u64*)(r0 + 0)
    r8 += 1
    *(u64*)(r0 + 0) = r8
  out:
    r0 = r7
    exit
  )");
  if (!insns.ok()) {
    std::printf("assembly error: %s\n", insns.status().ToString().c_str());
    return 1;
  }
  prog.insns = std::move(insns).value();

  // --- 4. agentless injection ---
  const StatusOr<core::InjectTrace> trace =
      sim::RunToCompletion(events, cp.Inject(*flow, prog, /*hook=*/0));
  if (!trace.ok()) {
    std::printf("inject failed: %s\n", trace.status().ToString().c_str());
    return 1;
  }
  std::printf("injected in %.1f us (image %llu bytes; "
              "verify+JIT on the control plane)\n",
              sim::ToMicros(trace->total),
              static_cast<unsigned long long>(trace->image_bytes));
  events.Run();

  // --- 5. data-plane execution ---
  int accepted = 0, dropped = 0;
  for (std::uint8_t byte = 0; byte < 32; ++byte) {
    Bytes packet = {byte, 0xaa, 0xbb, 0xcc};
    auto verdict = sandbox.ExecuteHook(0, packet);
    if (!verdict.ok()) {
      std::printf("execution error: %s\n",
                  verdict.status().ToString().c_str());
      return 1;
    }
    (verdict->r0 != 0 ? accepted : dropped) += 1;
  }
  std::printf("data plane: %d accepted, %d dropped\n", accepted, dropped);

  // Remote introspection of the filter's XState.
  const std::uint64_t counters = flow->xstates().at("verdicts");
  Bytes key(4, 0);
  const StatusOr<Bytes> value =
      sim::RunToCompletion(events, cp.XStateLookup(*flow, counters, key));
  if (value.ok()) {
    std::printf("remote XState read: %llu executions counted\n",
                static_cast<unsigned long long>(
                    LoadLE<std::uint64_t>(value->data())));
  }
  events.Run();

  std::printf("total simulated time: %.1f us; sandbox CPU involvement "
              "after boot: none\n",
              sim::ToMicros(events.Now()));
  return 0;
}
