// The local data plane: a sandbox hosting runtime-extension hook points
// inside a node's simulated DRAM. The management stubs (§3.1) are the
// only local-CPU involvement RDX needs, and they run exactly once:
//
//   CtxInit      lays out the control block, hook table, Meta-XState
//                directory, symbol table (the exposed "GOT"), and the
//                extension scratchpad in node DRAM;
//   CtxRegister  registers that memory with the RNIC and returns the
//                {address, rkey} pair the control plane binds a CodeFlow
//                to;
//   CtxTeardown  detaches a hook with reference counting.
//
// After boot the sandbox only *executes*: requests call ExecuteHook /
// ExecuteWasmHook against the CPU-visible view of each hook. Everything
// else — code injection, XState creation, version bumps — arrives from
// the remote control plane through one-sided RDMA, and becomes visible to
// this CPU after a cache-coherence delay (sim/cache.h) unless the control
// plane injects an explicit flush (rdx_cc_event).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bpf/exec.h"
#include "bpf/jit.h"
#include "common/rng.h"
#include "core/extension.h"
#include "core/layout.h"
#include "core/memspace.h"
#include "rdma/fabric.h"
#include "sim/cache.h"
#include "sim/event_queue.h"
#include "telemetry/metrics.h"
#include "telemetry/ring.h"
#include "wasm/filter.h"

namespace rdx::core {

struct SandboxConfig {
  std::uint32_t hook_count = 8;
  std::uint64_t scratch_bytes = 8u << 20;
  std::uint32_t meta_capacity = 256;
  // Cache-miss intensity of the colocated data-path workload (CPKI);
  // drives how quickly un-flushed RDMA writes become CPU-visible.
  double cpki = 10.0;
  sim::CacheConfig cache;
  std::uint64_t seed = 1;
  // Wasm host functions this sandbox exports, in host-table order.
  std::vector<std::string> wasm_host_fns = {"get_header", "set_header",
                                            "counter_incr", "log_event"};
  // When nonzero, refuse to execute images whose ImageDesc signature
  // does not verify under this key (integrity, §5).
  std::uint64_t signing_key = 0;
  // ---- runtime guardrails ----
  // Per-execution instruction budgets ("fuel"). An extension that burns
  // past its budget is stopped with kResourceExhausted and counted in the
  // hook's HealthBlock.
  std::uint64_t fuel_budget = 1u << 20;
  std::uint64_t wasm_fuel_budget = 1u << 20;
  // Local fail-safe: after this many consecutive failed executions the
  // sandbox reverts the hook slot to the last-good ImageDesc on its own
  // (0 disables; the remote quarantine path still works either way).
  std::uint32_t max_consecutive_failures = 4;
  // Master switch for HealthBlock accounting + the fail-safe; exists so
  // bench/guardrail_overhead can measure the healthy-path cost.
  bool guardrails = true;
  // ---- telemetry ----
  // When on, CtxInit lays out a TraceRing after the HealthBlocks and the
  // data plane emits fixed-size events into it (harvested agentlessly by
  // telemetry::Collector). bench/telemetry_overhead measures the cost.
  bool telemetry = true;
  std::uint64_t trace_ring_slots = 1024;  // power of two
};

struct SandboxStats {
  std::uint64_t executions = 0;
  std::uint64_t empty_hook_executions = 0;
  std::uint64_t torn_image_failures = 0;
  std::uint64_t signature_failures = 0;
  std::uint64_t refreshes = 0;
  // Guardrail counters (aggregated across hooks; per-hook detail lives in
  // the RDMA-readable HealthBlocks).
  std::uint64_t traps = 0;
  std::uint64_t fuel_exhaustions = 0;
  std::uint64_t failsafe_detaches = 0;
  // Superseded-image reclamation (control-plane initiated).
  std::uint64_t images_reclaimed = 0;
  std::uint64_t scratch_bytes_reclaimed = 0;
};

class Sandbox {
 public:
  Sandbox(sim::EventQueue& events, rdma::Node& node, SandboxConfig config);
  Sandbox(const Sandbox&) = delete;
  Sandbox& operator=(const Sandbox&) = delete;

  // ---- management stubs (one-time boot) ----
  Status CtxInit();
  struct Registration {
    std::uint64_t cb_addr = 0;
    rdma::MemoryKey rkey = 0;
  };
  StatusOr<Registration> CtxRegister();
  Status CtxTeardown(int hook);

  // ---- fault simulation ----
  // Power loss: every byte behind the sandbox (control block through
  // scratchpad) is wiped and the data plane stops executing. The RNIC
  // registration survives in the simulator (modeling a persistent MTT /
  // fast re-register on boot), so a rebooted node is reachable at the
  // same {cb_addr, rkey}.
  void Crash();
  // Deterministic reboot at the same addresses: re-publishes the control
  // block and symbol table and resets the scratch allocator and epoch.
  // Everything the control plane had deployed is gone.
  Status Reboot();

  // ---- data-plane execution ----
  // Runs the eBPF image attached at `hook` on `packet` (copied into the
  // sandbox ctx buffer). Empty hooks return r0 = 1 ("accept") and count
  // in stats. A torn image (checksum mismatch from a non-transactional
  // remote write racing this execution) is an error + counter.
  StatusOr<bpf::ExecResult> ExecuteHook(int hook, ByteSpan packet);

  // Runs the Wasm filter attached at `hook` against `host`.
  StatusOr<wasm::WasmResult> ExecuteWasmHook(int hook, wasm::WasmHost& host);

  // ---- visibility plumbing (called by the sync layer) ----
  // Schedules this CPU's discovery of a changed hook slot after `delay`.
  void ScheduleHookRefresh(int hook, sim::Duration delay);
  // Synchronous coherent re-read — the local CPU's own attach path (the
  // agent baseline) sees its writes immediately.
  void RefreshHookNow(int hook);
  // How long a DMA write stays invisible: ~2 us with an injected flush,
  // CPKI-dependent (100s of us) without.
  sim::Duration VisibilityDelay(bool coherent_flush);
  // Immediate re-read of hook slots / XState directory (local poll).
  void RefreshHooks();
  void RefreshXState();

  // ---- introspection ----
  // CPU-side read of a hook's HealthBlock (tests and local telemetry; the
  // control plane reads the same words over RDMA).
  HealthView ReadLocalHealth(int hook) const;
  // Bookkeeping callback for control-plane-initiated reclamation of a
  // superseded image region (simulation-side backref, like the refresh
  // scheduling): accounts the freed bytes in SandboxStats.
  void AccountReclaim(std::uint64_t bytes);

  // Version of the image the CPU currently executes at `hook` (0 = none).
  // Inline: the harness observers call it after every event.
  std::uint64_t VisibleVersion(int hook) const {
    return hooks_[hook].visible_version;
  }
  // Version currently committed in memory (what RDMA wrote), which the
  // CPU may not see yet.
  std::uint64_t CommittedVersion(int hook) const;
  // The symbols this sandbox exports (symbol hash -> helper id or Wasm
  // host-table index), in the order the published symbol table lists them.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> ExportedSymbols() const;

  const ControlBlockView& view() const { return view_; }
  const SandboxStats& stats() const { return stats_; }
  bpf::RuntimeContext& runtime() { return rt_; }
  rdma::Node& node() { return node_; }
  std::uint32_t hook_count() const { return config_.hook_count; }
  const sim::CacheModel& cache() const { return cache_; }

  // ---- telemetry ----
  // Trace-ring events emitted since the last drain. The data-path hosts
  // (kvstore, mesh) drain this after each request and charge
  // cost.trace_emit_cycles per event, so emit cost shows up in virtual
  // time without the sandbox owning a CPU.
  std::uint64_t DrainTraceEmits() {
    const std::uint64_t n = pending_trace_emits_;
    pending_trace_emits_ = 0;
    return n;
  }
  // Producer-side ring counters (null when telemetry is off / pre-boot).
  const telemetry::TraceRingWriter* trace_writer() const {
    return trace_.has_value() ? &*trace_ : nullptr;
  }
  // Dumps SandboxStats + ring producer counters + cache-model counters
  // under `prefix` (e.g. "node1.sandbox").
  void ExportMetrics(telemetry::MetricsRegistry& reg,
                     const std::string& prefix) const;

  // Local-CPU side of rdx_mutual_excl: try to take / release the sandbox
  // lock word (the control plane takes it via RDMA CAS).
  bool TryLockLocal(std::uint64_t owner);
  void UnlockLocal(std::uint64_t owner);

 private:
  struct HookState {
    std::uint64_t visible_desc_addr = 0;  // what this CPU executes
    std::uint64_t visible_version = 0;
    // Decoded image of (visible_desc_addr, visible_version), either kind.
    std::optional<AnyImage> image;
    std::uint64_t refcount = 0;
  };

  StatusOr<std::uint64_t> ReadWord(std::uint64_t addr) const;
  Status WriteWord(std::uint64_t addr, std::uint64_t value);
  // Guardrail plumbing: HealthBlock word address for `hook`, outcome
  // accounting after every non-empty execution, and the local fail-safe
  // that reverts a crash-looping hook to its last-good image.
  std::uint64_t HealthWordAddr(int hook, std::uint64_t field) const;
  void BumpHealth(int hook, std::uint64_t field, std::uint64_t delta);
  void SetHealth(int hook, std::uint64_t field, std::uint64_t value);
  StatusOr<std::uint64_t> GetHealth(int hook, std::uint64_t field) const;
  void RecordHookOutcome(int hook, const Status& outcome);
  void FailSafeDetach(int hook);
  // Wait-free trace-ring emit (no-op when telemetry is off).
  void EmitTrace(telemetry::RingEventKind kind, int hook, std::uint16_t code,
                 std::uint64_t arg);
  // Writes the symbol table + control block words and resets the hooks
  // (boot and reboot).
  Status Boot();
  // Loads + decodes the image behind hook's visible desc into the cache.
  Status LoadHookImage(int hook);
  // Shared prologue of ExecuteHook/ExecuteWasmHook: range check, execution
  // count, then the hook's image, decoded on first use. nullptr = empty
  // hook (accept by default); the other kind is kFailedPrecondition.
  template <class Image>
  StatusOr<const Image*> BeginExecution(int hook);
  // Shared epilogue: trace-ring emit on success, then health accounting.
  template <class Result>
  StatusOr<Result> EndExecution(int hook, telemetry::RingEventKind kind,
                                StatusOr<Result> result);
  // ExportedSymbols serialized in the symbol-table wire format.
  Bytes SymbolTable() const;

  sim::EventQueue& events_;
  rdma::Node& node_;
  SandboxConfig config_;
  HostMemSpace mem_space_;
  Rng rng_;
  sim::CacheModel cache_;
  bpf::RuntimeContext rt_;

  bool booted_ = false;
  bool registered_ = false;
  ControlBlockView view_;
  // The eBPF ctx buffer: each execution's packet, zero-padded.
  static constexpr std::uint64_t kCtxBytes = 256;
  std::uint64_t ctx_buf_addr_ = 0;
  std::uint64_t stack_addr_ = 0;
  std::vector<HookState> hooks_;
  SandboxStats stats_;
  std::optional<telemetry::TraceRingWriter> trace_;
  std::uint64_t pending_trace_emits_ = 0;
};

}  // namespace rdx::core
