// Fig 4b: time breakdown of loading the 1.3K-insn program. The agent
// pays verify + JIT + attach on the node; RDX's injection path contains
// only link + transfer + commit (verify/JIT amortized at the control
// plane).
#include "bench/bench_util.h"
#include "bpf/proggen.h"

using namespace rdx;

int main() {
  bench::PrintHeader("Fig 4b: load-time breakdown at 1.3K instructions",
                     "Figure 4b (agent: verify+JIT dominate; RDX: only "
                     "link/transfer/commit in the injection path)");

  bench::Cluster cluster(2);
  bpf::Program prog = bpf::GenerateProgram({.target_insns = 1300, .seed = 1});
  const int kReps = bench::ScaledIters(50);

  Summary queue_ms, verify_ms, jit_ms, attach_ms, agent_total_ms;
  for (int rep = 0; rep < kReps; ++rep) {
    const agent::AgentTrace r = bench::Must(sim::RunToCompletion(
        cluster.events, cluster.nodes[0].agent->Load(prog, 0)));
    queue_ms.Add(sim::ToMillis(r.queue));
    verify_ms.Add(sim::ToMillis(r.verify));
    jit_ms.Add(sim::ToMillis(r.jit));
    attach_ms.Add(sim::ToMillis(r.attach));
    agent_total_ms.Add(sim::ToMillis(r.total));
  }

  // Warm the control plane's verify/compile caches: the steady state of
  // "validate and compile once, deploy anywhere".
  bench::Must(sim::RunToCompletion(
      cluster.events, cluster.cp->Inject(*cluster.nodes[1].flow, prog, 7)));

  Summary validate_us, compile_us, link_us, xstate_us, transfer_us,
      commit_us, dispatch_us, rdx_total_us;
  for (int rep = 0; rep < kReps; ++rep) {
    const core::InjectTrace r = bench::Must(sim::RunToCompletion(
        cluster.events,
        cluster.cp->Inject(*cluster.nodes[1].flow, prog, rep % 8)));
    validate_us.Add(sim::ToMicros(r.validate));
    compile_us.Add(sim::ToMicros(r.jit));
    link_us.Add(sim::ToMicros(r.link));
    xstate_us.Add(sim::ToMicros(r.xstate));
    transfer_us.Add(sim::ToMicros(r.transfer));
    commit_us.Add(sim::ToMicros(r.commit));
    dispatch_us.Add(sim::ToMicros(r.total - r.validate - r.jit - r.link -
                                  r.xstate - r.transfer - r.commit));
    rdx_total_us.Add(sim::ToMicros(r.total));
  }

  std::printf("\nAgent breakdown (mean over %d loads):\n", kReps);
  bench::PrintRow({"phase", "ms", "share"});
  auto agent_row = [&](const char* name, const Summary& s) {
    bench::PrintRow({name, bench::Fmt(s.mean(), 3),
                     bench::Fmt(100 * s.mean() / agent_total_ms.mean(), 1) +
                         "%"});
  };
  agent_row("queue", queue_ms);
  agent_row("verify", verify_ms);
  agent_row("jit", jit_ms);
  agent_row("attach", attach_ms);
  bench::PrintRow({"total", bench::Fmt(agent_total_ms.mean(), 3), "100%"});

  std::printf("\nRDX breakdown (mean over %d injections, warm cache):\n",
              kReps);
  bench::PrintRow({"phase", "us", "share"});
  auto rdx_row = [&](const char* name, const Summary& s) {
    bench::PrintRow({name, bench::Fmt(s.mean(), 2),
                     bench::Fmt(100 * s.mean() / rdx_total_us.mean(), 1) +
                         "%"});
  };
  rdx_row("validate(cache)", validate_us);
  rdx_row("jit(cache)", compile_us);
  rdx_row("xstate", xstate_us);
  rdx_row("link", link_us);
  rdx_row("transfer", transfer_us);
  rdx_row("commit+flush", commit_us);
  rdx_row("cp dispatch", dispatch_us);
  bench::PrintRow({"total", bench::Fmt(rdx_total_us.mean(), 2), "100%"});

  std::printf(
      "\nshape check: agent total is ms with verify+jit >= 90%%; RDX total "
      "is tens of us with verify/JIT absent from the injection path.\n");
  return 0;
}
