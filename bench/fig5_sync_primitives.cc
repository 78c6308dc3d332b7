// Fig 5: incoherence time of remote extension injection vs CPKI (cache
// misses per 1000 instructions). Vanilla RDMA relies on natural cache
// eviction for the data-plane CPU to notice an injected object — up to
// ~746 us under low cache pressure — while RDX's rdx_cc_event() flush
// pins visibility at ~2 us regardless of CPKI.
#include "bench/bench_util.h"
#include "bpf/assembler.h"

using namespace rdx;

namespace {

// Measures commit->CPU-visibility for one injection on a sandbox whose
// data path runs at the given CPKI.
sim::Duration MeasureIncoherence(bool use_cc_event, double cpki,
                                 std::uint64_t seed) {
  sim::EventQueue events;
  rdma::Fabric fabric(events);
  const rdma::NodeId cp_id = fabric.AddNode("cp", 64u << 20).id();
  core::ControlPlaneConfig config;
  config.use_cc_event = use_cc_event;
  core::ControlPlane cp(events, fabric, cp_id, config);

  rdma::Node& node = fabric.AddNode("node");
  core::SandboxConfig sandbox_config;
  sandbox_config.cpki = cpki;
  sandbox_config.seed = seed;
  core::Sandbox sandbox(events, node, sandbox_config);
  if (!sandbox.CtxInit().ok()) std::abort();
  auto reg = sandbox.CtxRegister();
  core::CodeFlow* flow =
      sim::RunToCompletion(events, cp.CreateCodeFlow(sandbox, reg.value()))
          .value();
  events.Run();

  bpf::Program prog;
  prog.name = "probe";
  prog.insns = bpf::Assemble("r0 = 1\nexit\n").value();

  bench::Must(sim::RunToCompletion(events, cp.Inject(*flow, prog, 0)));

  // The injection finishes when the control plane's commit completed. Visibility: poll the sandbox's CPU view in 100 ns steps.
  const sim::SimTime commit_done = events.Now();
  while (sandbox.VisibleVersion(0) == 0 && !events.Empty()) {
    events.Step();
  }
  return events.Now() - commit_done;
}

}  // namespace

int main() {
  bench::PrintHeader(
      "Fig 5: remote sync primitives vs CPKI",
      "Figure 5 (vanilla RDMA: ~100s of us at low CPKI, falling with cache "
      "pressure; RDX rdx_cc_event: ~2 us flat)");
  bench::PrintRow({"CPKI", "vanilla_med_us", "vanilla_p90_us", "rdx_med_us"});

  std::vector<double> kCpkis = {5, 10, 20, 30, 40};
  if (bench::SmokeMode()) kCpkis.resize(1);
  const int kSamples = bench::ScaledIters(60, 3);
  for (double cpki : kCpkis) {
    Histogram vanilla_ns, rdx_ns;
    for (int s = 0; s < kSamples; ++s) {
      vanilla_ns.Add(static_cast<std::uint64_t>(MeasureIncoherence(
          /*use_cc_event=*/false, cpki, 1000 + s)));
      rdx_ns.Add(static_cast<std::uint64_t>(MeasureIncoherence(
          /*use_cc_event=*/true, cpki, 2000 + s)));
    }
    const double vanilla_med_us =
        static_cast<double>(vanilla_ns.Percentile(0.5)) / 1e3;
    const double vanilla_p90_us =
        static_cast<double>(vanilla_ns.Percentile(0.9)) / 1e3;
    const double rdx_med_us =
        static_cast<double>(rdx_ns.Percentile(0.5)) / 1e3;
    bench::PrintRow({bench::Fmt(cpki, 0), bench::Fmt(vanilla_med_us, 1),
                     bench::Fmt(vanilla_p90_us, 1),
                     bench::Fmt(rdx_med_us, 1)});
    bench::Json json;
    json.Add("cpki", cpki, 0)
        .Add("samples", kSamples)
        .Add("vanilla_med_us", vanilla_med_us, 1)
        .Add("vanilla_p90_us", vanilla_p90_us, 1)
        .Add("rdx_med_us", rdx_med_us, 1);
    bench::PrintBenchJson("fig5_sync_primitives", json);
  }
  std::printf(
      "\nshape check: vanilla median falls as CPKI rises (more evictions) "
      "but stays 10-100x above RDX's flat ~2 us.\n");
  return 0;
}
