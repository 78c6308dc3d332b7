// Fig 4a: eBPF program load time, Agent vs RDX, across the paper's
// instruction-size sweep (1.3K..95K). The paper reports RDX reducing
// injection time by 47x (small programs) to 1982x (large), because the
// verify/JIT work is amortized at the control plane and the injection
// path is reduced to one-sided RDMA writes plus a qword commit.
#include "bench/bench_util.h"
#include "bpf/proggen.h"

using namespace rdx;

int main() {
  bench::PrintHeader("Fig 4a: program load time, Agent vs RDX",
                     "Figure 4a (RDX wins by 47x..1982x, growing with size)");
  bench::PrintRow({"insns", "agent_ms", "rdx_us", "speedup"});

  const int kReps = bench::ScaledIters(15);
  std::vector<std::size_t> sizes(std::begin(bpf::kPaperSweepSizes),
                                 std::end(bpf::kPaperSweepSizes));
  if (bench::SmokeMode()) sizes.resize(1);
  for (std::size_t size : sizes) {
    bench::Cluster cluster(2);
    // Node 0 takes the agent path, node 1 the RDX path (identical specs).
    Summary agent_ms, rdx_us;
    for (int rep = 0; rep < kReps; ++rep) {
      bpf::Program prog = bpf::GenerateProgram(
          {.target_insns = size, .seed = static_cast<std::uint64_t>(rep + 1)});

      agent_ms.Add(sim::ToMillis(
          bench::Must(sim::RunToCompletion(cluster.events,
                                           cluster.nodes[0].agent->Load(prog, 0)))
              .total));

      // RDX steady state: the control plane has validated and compiled
      // this extension once ("validate and compile once, deploy
      // anywhere"); deployment repeats per node/update. Warm the cache
      // with an untimed first call on a different hook.
      core::CodeFlow& flow = *cluster.nodes[1].flow;
      bench::Must(sim::RunToCompletion(cluster.events,
                                       cluster.cp->Inject(flow, prog, 1)));
      rdx_us.Add(sim::ToMicros(
          bench::Must(sim::RunToCompletion(cluster.events,
                                           cluster.cp->Inject(flow, prog, 0)))
              .total));
    }
    const double speedup =
        agent_ms.mean() * 1000.0 / std::max(rdx_us.mean(), 1e-9);
    bench::PrintRow({bench::FmtInt(size), bench::Fmt(agent_ms.mean(), 2),
                     bench::Fmt(rdx_us.mean(), 1),
                     bench::Fmt(speedup, 0) + "x"});
    bench::PrintBenchJson("fig4a_load_overhead",
                          bench::Json()
                              .Add("insns", static_cast<std::uint64_t>(size))
                              .Add("agent_ms", agent_ms.mean())
                              .Add("rdx_us", rdx_us.mean())
                              .Add("speedup", speedup, 1),
                          &cluster.events);
  }
  std::printf(
      "\nshape check: agent grows to 100+ ms; RDX stays at tens-of-us; the "
      "speedup grows with program size (paper: 47x -> 1982x).\n");
  return 0;
}
