// Rollback + hot patching (§4, third case study): a buggy filter ships,
// production failures appear, and the control plane reverts the hook to
// the last stable version in microseconds (a desc re-commit — no
// re-verify, no re-transfer), then hot-patches a fixed version through
// the normal injection pipeline. No node CPU, no traffic draining.
#include <cstdio>

#include "bpf/assembler.h"
#include "core/codeflow.h"

using namespace rdx;

namespace {

bpf::Program MakeFilter(const char* name, std::string_view body) {
  bpf::Program prog;
  prog.name = name;
  auto insns = bpf::Assemble(body);
  if (!insns.ok()) {
    std::printf("asm error in %s: %s\n", name,
                insns.status().ToString().c_str());
    std::abort();
  }
  prog.insns = std::move(insns).value();
  return prog;
}

}  // namespace

int main() {
  sim::EventQueue events;
  rdma::Fabric fabric(events);
  rdma::Node& cp_node = fabric.AddNode("control-plane", 64u << 20);
  rdma::Node& worker = fabric.AddNode("worker", 64u << 20);
  core::ControlPlane cp(events, fabric, cp_node.id());

  core::Sandbox sandbox(events, worker, core::SandboxConfig{});
  if (!sandbox.CtxInit().ok()) return 1;
  auto reg = sandbox.CtxRegister();
  const StatusOr<core::CodeFlow*> created =
      sim::RunToCompletion(events, cp.CreateCodeFlow(sandbox, reg.value()));
  events.Run();
  if (!created.ok()) return 1;
  core::CodeFlow* flow = created.value();

  // v1: stable filter, accepts everything.
  bpf::Program stable = MakeFilter("stable", "r0 = 1\nexit\n");
  // v2: "buggy" — drops every request (a production incident).
  bpf::Program buggy = MakeFilter("buggy", "r0 = 0\nexit\n");
  // v3: the fix.
  bpf::Program fixed = MakeFilter("fixed", R"(
    r6 = *(u32*)(r1 + 0)
    r0 = 1
    if r6 != 666 goto out
    r0 = 0
  out:
    exit
  )");

  auto inject = [&](const bpf::Program& prog) {
    if (!sim::RunToCompletion(events, cp.Inject(*flow, prog, 0)).ok()) {
      std::abort();
    }
    events.Run();  // drain the post-commit visibility event
  };

  auto serve = [&](const char* phase) {
    int ok = 0;
    for (int i = 0; i < 100; ++i) {
      Bytes packet(4);
      StoreLE<std::uint32_t>(packet.data(), static_cast<std::uint32_t>(i));
      auto verdict = sandbox.ExecuteHook(0, packet);
      if (verdict.ok() && verdict->r0 != 0) ++ok;
    }
    std::printf("%-22s %3d/100 requests pass\n", phase, ok);
  };

  inject(stable);
  serve("v1 (stable):");

  inject(buggy);
  serve("v2 (buggy!):");

  // Emergency rollback: microseconds, no pipeline re-run.
  const sim::SimTime t0 = events.Now();
  if (!sim::RunToCompletion(events, cp.Rollback(*flow, 0)).ok()) std::abort();
  std::printf("rollback completed in %.1f us\n",
              sim::ToMicros(events.Now() - t0));
  events.Run();  // drain the post-commit visibility event
  serve("after rollback:");

  // Hot patch: deploy the fixed version through the normal pipeline.
  inject(fixed);
  serve("v3 (hot patch):");

  std::printf("sandbox executions: %llu, torn-image failures: %llu\n",
              static_cast<unsigned long long>(sandbox.stats().executions),
              static_cast<unsigned long long>(
                  sandbox.stats().torn_image_failures));
  return 0;
}
