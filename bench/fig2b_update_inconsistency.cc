// Fig 2b: update inconsistency duration of agent-based rollouts, for
// eBPF- and Wasm-based extensions, on four apps with 4/11/17/33
// microservices. The window between initiating an update and the last
// sidecar serving the new version spans hundreds of milliseconds: config
// propagation jitter plus per-node verify/JIT, multiplied by the DAG
// dependency waves (callees must update before callers).
#include "bench/bench_util.h"
#include "bpf/proggen.h"
#include "mesh/app.h"

using namespace rdx;

int main() {
  bench::PrintHeader(
      "Fig 2b: agent-based update inconsistency duration",
      "Figure 2b (100s of ms even for <20-microservice apps; grows with "
      "app size; eBPF and Wasm alike)");
  bench::PrintRow({"app", "services", "ebpf_ms", "wasm_ms"});

  const int kReps = bench::ScaledIters(10, 1);
  auto apps = mesh::AppSpec::PaperApps();
  if (bench::SmokeMode()) apps.resize(1);
  for (const mesh::AppSpec& app : apps) {
    Summary ebpf_ms, wasm_ms;
    for (int rep = 0; rep < kReps; ++rep) {
      // One agent per microservice sidecar.
      bench::Cluster cluster(static_cast<int>(app.size()));
      const auto waves = app.DependencyWaves();

      bpf::Program prog = bpf::GenerateProgram(
          {.target_insns = 1300,
           .seed = static_cast<std::uint64_t>(rep + 1)});
      ebpf_ms.Add(sim::ToMillis(
          bench::Must(sim::RunToCompletion(
                          cluster.events,
                          cluster.controller->Rollout(prog, 0, waves)))
              .inconsistency_window));

      wasm::FilterModule filter = wasm::GenerateFilter(
          600, static_cast<std::uint64_t>(rep + 1));
      wasm_ms.Add(sim::ToMillis(
          bench::Must(sim::RunToCompletion(
                          cluster.events,
                          cluster.controller->Rollout(filter, 1, waves)))
              .inconsistency_window));
    }
    bench::PrintRow({app.name, bench::FmtInt(app.size()),
                     bench::Fmt(ebpf_ms.mean(), 1),
                     bench::Fmt(wasm_ms.mean(), 1)});
  }
  std::printf(
      "\nshape check: inconsistency grows with microservice count and sits "
      "at 100s of ms (paper: 10^2 ms band across apps 1-4).\n");
  return 0;
}
