// Fleet-deploy scaling sweep: serial per-node injection vs the
// pipelined, doorbell-batched collective path (CollectiveCodeFlow::
// DeployPipelined) over N ∈ {1..64} nodes. The serial baseline deploys
// every wave to every node one inject at a time with doorbell batching
// disabled — one rdx dispatch charge and one doorbell per WR, per node,
// per wave. The pipelined path compiles each wave once (artifact cache),
// streams image chunks over one doorbell-batched WR chain per node,
// overlaps wave k+1's JIT with wave k's transfer, and fans the CAS
// commit wave out across all per-node QPs concurrently. A final faulted
// column pipelines the same deploy with one node's NIC dropping
// everything, showing straggler quarantine instead of a stalled wave.
#include "bench/bench_util.h"
#include "bpf/proggen.h"
#include "fault/injector.h"

using namespace rdx;

namespace {

constexpr int kWaves = 4;

// Small-ish programs and fine-grained chunks: the sweep isolates the
// per-node deploy costs (dispatch, doorbells, transfer, commit) that the
// pipeline amortizes, rather than the one-off JIT both modes share via
// the artifact cache. ~2.5 KB images over 1 KB chunks give every image
// write a multi-WR chain.
constexpr int kInsnsPerProgram = 300;
constexpr std::uint32_t kChunkBytes = 1024;

bpf::Program WaveProgram(int wave) {
  return bpf::GenerateProgram({.target_insns = kInsnsPerProgram,
                               .seed = static_cast<std::uint64_t>(wave + 1)});
}

struct ModeResult {
  sim::Duration elapsed = 0;
  std::uint64_t doorbells = 0;
  std::uint64_t chained_wrs = 0;
  std::uint64_t cache_hits = 0;
  std::size_t stragglers = 0;
};

// Baseline: one Inject at a time, batching off.
ModeResult RunSerial(int n) {
  core::ControlPlaneConfig config;
  config.use_doorbell_batching = false;
  config.chunk_bytes = kChunkBytes;
  bench::Cluster cluster(n, config);
  const std::uint64_t doorbells0 = cluster.fabric->doorbells_rung();
  const sim::SimTime t0 = cluster.events.Now();
  for (int wave = 0; wave < kWaves; ++wave) {
    bpf::Program prog = WaveProgram(wave);
    for (int node = 0; node < n; ++node) {
      if (!sim::RunToCompletion(
               cluster.events,
               cluster.cp->Inject(*cluster.nodes[node].flow, prog, wave))
               .ok()) {
        std::abort();
      }
    }
  }
  ModeResult out;
  out.elapsed = cluster.events.Now() - t0;
  out.doorbells = cluster.fabric->doorbells_rung() - doorbells0;
  out.chained_wrs = cluster.fabric->chained_wrs();
  out.cache_hits = cluster.cp->compile_cache_hits();
  return out;
}

// Pipelined collective deploy; with `faulted`, the last node's NIC drops
// every WR so the wave must quarantine it and keep going.
ModeResult RunPipelined(int n, bool faulted) {
  core::ControlPlaneConfig config;
  config.chunk_bytes = kChunkBytes;
  bench::Cluster cluster(n, config);
  fault::FaultInjector injector(cluster.events, *cluster.fabric);
  if (faulted) {
    char plan_text[96];
    std::snprintf(plan_text, sizeof(plan_text),
                  "seed 7\ndrop node=%u at=0 for=10s p=1",
                  static_cast<unsigned>(cluster.nodes[n - 1].node->id()));
    auto plan = fault::ParseFaultPlan(plan_text);
    if (!plan.ok() || !injector.Arm(plan.value()).ok()) std::abort();
  }

  std::vector<bpf::Program> progs;
  std::vector<core::DeploySpec> specs;
  for (int wave = 0; wave < kWaves; ++wave) {
    progs.push_back(WaveProgram(wave));
  }
  for (int wave = 0; wave < kWaves; ++wave) {
    specs.push_back({&progs[wave], wave});
  }
  std::vector<core::CodeFlow*> flows;
  for (auto& bundle : cluster.nodes) flows.push_back(bundle.flow);

  core::CollectiveCodeFlow collective(*cluster.cp, flows);
  const std::uint64_t doorbells0 = cluster.fabric->doorbells_rung();
  ModeResult out;
  bool settled = false;
  collective.DeployPipelined(
      specs, core::PipelineOptions{},
      [&](StatusOr<core::PipelineResult> r) {
        if (!r.ok()) std::abort();
        out.elapsed = r->total;
        out.stragglers = r->stragglers;
        settled = true;
      });
  cluster.RunUntilFlag(settled);
  out.doorbells = cluster.fabric->doorbells_rung() - doorbells0;
  out.chained_wrs = cluster.fabric->chained_wrs();
  out.cache_hits = cluster.cp->compile_cache_hits();
  return out;
}

}  // namespace

int main() {
  bench::PrintHeader(
      "Fleet deploy scaling: serial vs pipelined + doorbell-batched",
      "§4 fast updates at fleet scale (dispatch/doorbell amortization)");
  bench::PrintRow({"nodes", "serial_us", "pipelined_us", "speedup",
                   "db_serial", "db_pipe", "chained_wrs", "quarantined"});

  std::vector<int> sweep = {1, 2, 4, 8, 16, 32, 64};
  if (bench::SmokeMode()) sweep = {1, 4, 8};

  for (int n : sweep) {
    const ModeResult serial = RunSerial(n);
    const ModeResult pipelined = RunPipelined(n, /*faulted=*/false);
    const ModeResult faulted =
        n >= 2 ? RunPipelined(n, /*faulted=*/true) : ModeResult{};

    const double serial_us = static_cast<double>(serial.elapsed) / 1000.0;
    const double pipelined_us =
        static_cast<double>(pipelined.elapsed) / 1000.0;
    const double speedup =
        pipelined.elapsed > 0 ? static_cast<double>(serial.elapsed) /
                                    static_cast<double>(pipelined.elapsed)
                              : 0.0;
    bench::PrintRow({bench::FmtInt(static_cast<std::uint64_t>(n)),
                     bench::Fmt(serial_us, 1), bench::Fmt(pipelined_us, 1),
                     bench::Fmt(speedup, 1), bench::FmtInt(serial.doorbells),
                     bench::FmtInt(pipelined.doorbells),
                     bench::FmtInt(pipelined.chained_wrs),
                     bench::FmtInt(faulted.stragglers)});
    bench::PrintBenchJson(
        "broadcast_scale",
        bench::Json()
            .Add("nodes", n)
            .Add("waves", kWaves)
            .Add("serial_us", serial_us, 1)
            .Add("pipelined_us", pipelined_us, 1)
            .Add("speedup", speedup, 2)
            .Add("serial_doorbells", serial.doorbells)
            .Add("pipelined_doorbells", pipelined.doorbells)
            .Add("pipelined_chained_wrs", pipelined.chained_wrs)
            .Add("serial_cache_hits", serial.cache_hits)
            .Add("faulted_stragglers",
                 static_cast<std::uint64_t>(faulted.stragglers))
            .Add("faulted_pipelined_us",
                 static_cast<double>(faulted.elapsed) / 1000.0, 1));
  }
  std::printf(
      "\nshape check: speedup grows with N (serial pays the rdx dispatch "
      "overhead and a doorbell per WR on every node; the pipeline pays one "
      "dispatch per wave and one doorbell per chain) and exceeds 3x by "
      "N=64. The faulted column quarantines exactly one straggler without "
      "stalling the healthy fan-out.\n");
  return 0;
}
