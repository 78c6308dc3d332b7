// Fig 2a: eBPF program injection overhead of the agent baseline as a
// function of program instruction size. The paper shows ms-scale
// injection even for small programs, growing superlinearly — the CPU cost
// of local verification + JIT dominating the loading path.
#include "bench/bench_util.h"
#include "bpf/proggen.h"

using namespace rdx;

int main() {
  bench::PrintHeader("Fig 2a: agent eBPF injection overhead vs program size",
                     "Figure 2a (injection time is ms-scale and grows with "
                     "instruction count)");
  bench::PrintRow({"insns", "mean_ms", "p99_ms", "verify_share"});

  std::vector<std::size_t> kSizes = {1'000,  5'000,  10'000, 20'000,
                                     40'000, 60'000, 80'000};
  if (bench::SmokeMode()) kSizes.resize(1);
  const int kReps = bench::ScaledIters(20);

  for (std::size_t size : kSizes) {
    bench::Cluster cluster(1);
    Summary total_ms;
    Histogram total_ns;
    Summary verify_share;
    for (int rep = 0; rep < kReps; ++rep) {
      bpf::Program prog = bpf::GenerateProgram(
          {.target_insns = size, .seed = static_cast<std::uint64_t>(rep + 1)});
      const agent::AgentTrace trace = bench::Must(sim::RunToCompletion(
          cluster.events, cluster.nodes[0].agent->Load(prog, /*hook=*/0)));
      total_ms.Add(sim::ToMillis(trace.total));
      total_ns.Add(static_cast<std::uint64_t>(trace.total));
      verify_share.Add(static_cast<double>(trace.verify) /
                       static_cast<double>(trace.total));
    }
    bench::PrintRow({bench::FmtInt(size), bench::Fmt(total_ms.mean(), 3),
                     bench::Fmt(static_cast<double>(total_ns.Percentile(0.99)) / 1e6, 3),
                     bench::Fmt(verify_share.mean() * 100, 1) + "%"});
  }
  std::printf(
      "\nshape check: ms-scale at 1K insns, growing superlinearly; verify "
      "dominates (paper: 90+%% of loading time is verify+JIT).\n");
  return 0;
}
