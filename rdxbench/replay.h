// Host unit costs of single modules, measured by replaying a run's own
// recorded inputs through each module's public entry points outside the
// event loop. Multiplied by the run's work counts they estimate each
// module's share of the run's host time.
#pragma once

#include <cstdint>

#include "harness.h"

namespace rdxbench {

struct UnitCosts {
  double event_ns = 0;       // EventQueue::ScheduleAfter + Step
  double cpu_submit_ns = 0;  // CpuScheduler::Submit at the run's occupancy
  double bpf_exec_ns_per_insn = 0;  // Sandbox::ExecuteHook
  double bpf_exec_insns_per_call = 0;
  double bpf_verify_ns_per_insn = 0;
  double bpf_jit_ns_per_insn = 0;
  double bpf_decode_ns_per_kb = 0;  // bpf::JitImage::Deserialize
  // Per-node image preparation: copy the compiled image (as linking does)
  // and serialize it.
  double ebpf_prepare_ns_per_kb = 0;
  double wasm_prepare_ns_per_kb = 0;
  double wasm_exec_ns_per_insn = 0;  // Sandbox::ExecuteWasmHook
  double wasm_exec_insns_per_call = 0;
  double wasm_compile_ns_per_insn = 0;  // ValidateFilter + CompileFilter
  double rdma_wr_ns = 0;  // one WR of the run's mix on a private Fabric
};

// Inputs a workload did not record (no eBPF in mesh_wasm, no Wasm or hook
// contexts elsewhere) are generated from `seed`, so every unit cost is
// measured on every workload.
UnitCosts MeasureUnitCosts(const ReplayCorpus& corpus, std::uint64_t seed);

}  // namespace rdxbench
