#include "scrape.h"

#include <algorithm>
#include <string>

#include "common/bytes.h"
#include "core/layout.h"

namespace rdxbench {

namespace rdma = rdx::rdma;
namespace core = rdx::core;

FabricCounters ReadFabric(const rdma::Fabric& fabric) {
  FabricCounters c;
  c.wrs = static_cast<double>(fabric.ops_executed());
  c.doorbells = static_cast<double>(fabric.doorbells_rung());
  c.chained_wrs = static_cast<double>(fabric.chained_wrs());
  c.inline_wrs = static_cast<double>(fabric.inline_wrs());
  c.unsignaled_wrs = static_cast<double>(fabric.unsignaled_wrs());
  c.coalesced_cqes = static_cast<double>(fabric.coalesced_completions());
  c.bytes_written = static_cast<double>(fabric.bytes_written());
  c.mtt_hits = static_cast<double>(fabric.mtt_hits());
  c.mtt_misses = static_cast<double>(fabric.mtt_misses());
  for (const auto& [qp, stats] : fabric.qp_stats()) {
    c.failures += static_cast<double>(stats.failures);
    c.writes += static_cast<double>(
        stats.ops_by_opcode[static_cast<int>(rdma::Opcode::kWrite)]);
  }
  return c;
}

void ScrapeFabric(const rdma::Fabric& fabric, const FabricCounters& start,
                  Outcome& out) {
  const FabricCounters now = ReadFabric(fabric);
  auto& l = out.layer;
  l["rdma.wrs"] = now.wrs - start.wrs;
  l["rdma.doorbells"] = now.doorbells - start.doorbells;
  l["rdma.chained_wrs"] = now.chained_wrs - start.chained_wrs;
  l["rdma.inline_wrs"] = now.inline_wrs - start.inline_wrs;
  l["rdma.unsignaled_wrs"] = now.unsignaled_wrs - start.unsignaled_wrs;
  l["rdma.coalesced_cqes"] = now.coalesced_cqes - start.coalesced_cqes;
  l["rdma.bytes_written"] = now.bytes_written - start.bytes_written;
  l["rdma.failures"] = now.failures - start.failures;
  const double hits = now.mtt_hits - start.mtt_hits;
  const double lookups = hits + now.mtt_misses - start.mtt_misses;
  l["rdma.mtt_hit_ratio"] = lookups > 0 ? hits / lookups : 0;

  rdx::Histogram merged;
  for (const auto& [qp, stats] : fabric.qp_stats()) {
    merged.Merge(stats.latency_ns);
  }
  l["rdma.wr_p50_ns"] = static_cast<double>(merged.Percentile(0.50));
  l["rdma.wr_p99_ns"] = static_cast<double>(merged.Percentile(0.99));

  const double writes = now.writes - start.writes;
  out.corpus.write_bytes_per_wr =
      writes > 0 ? l["rdma.bytes_written"] / writes : 0;
  out.corpus.wrs_per_doorbell =
      l["rdma.doorbells"] > 0 ? l["rdma.wrs"] / l["rdma.doorbells"] : 1;
  out.work.wrs = l["rdma.wrs"];
}

void ScrapeSandboxes(const std::vector<core::Sandbox*>& sandboxes,
                     Outcome& out) {
  double executions = 0, refreshes = 0, torn = 0, reclaimed = 0, emits = 0;
  double scratch_used = 0;
  for (core::Sandbox* sandbox : sandboxes) {
    const core::SandboxStats& s = sandbox->stats();
    executions += static_cast<double>(s.executions);
    refreshes += static_cast<double>(s.refreshes);
    torn += static_cast<double>(s.torn_image_failures);
    reclaimed += static_cast<double>(s.scratch_bytes_reclaimed);
    if (const auto* ring = sandbox->trace_writer()) {
      emits += static_cast<double>(ring->emitted());
    }
    // The remote bump pointer lives in the control block (the wire
    // contract of core/layout.h); the CPU reads it like any local word.
    const core::ControlBlockView& view = sandbox->view();
    const std::uint64_t brk = rdx::LoadLE<std::uint64_t>(
        sandbox->node()
            .memory()
            .SpanForCpu(view.cb_addr + core::kCbScratchBrk, 8)
            .data());
    if (view.scratch_size > 0) {
      scratch_used = std::max(
          scratch_used, static_cast<double>(brk - view.scratch_addr) /
                            static_cast<double>(view.scratch_size));
    }
  }
  auto& l = out.layer;
  l["core.sandbox.executions"] = executions;
  l["core.sandbox.refreshes"] = refreshes;
  l["core.sandbox.torn"] = torn;
  l["core.sandbox.reclaimed_bytes"] = reclaimed;
  l["core.scratch_used_frac"] = scratch_used;
  l["telemetry.ring_emits"] = emits;
}

void ScrapeControlPlane(core::ControlPlane& cp, Outcome& out) {
  const double hits = static_cast<double>(cp.compile_cache_hits());
  const double lookups = hits + static_cast<double>(cp.compile_cache_misses());
  out.layer["core.artifact_hit_ratio"] = lookups > 0 ? hits / lookups : 0;
  out.layer["sim.cpu_util.cp"] = cp.cpu().Utilization();
}

void WatchVisible(Loop& loop, const core::Sandbox& sandbox, int hook,
                  std::uint64_t version, std::function<void()> on_visible) {
  loop.Observe([&sandbox, hook, version, on_visible = std::move(on_visible)] {
    if (sandbox.VisibleVersion(hook) < version) return true;
    on_visible();
    return false;
  });
}

void CheckVersion(const core::Sandbox& sandbox, int hook,
                  std::uint64_t expected, Outcome& out) {
  const std::uint64_t committed = sandbox.CommittedVersion(hook);
  const std::uint64_t visible = sandbox.VisibleVersion(hook);
  if (committed != expected || visible != expected) {
    out.errors.push_back("hook " + std::to_string(hook) + ": committed " +
                         std::to_string(committed) + ", visible " +
                         std::to_string(visible) + ", deployed " +
                         std::to_string(expected));
  }
}

std::uint64_t ScratchRegionBytes(std::uint64_t image_bytes) {
  constexpr std::uint64_t kAlign = 64;
  auto align = [](std::uint64_t v) { return (v + kAlign - 1) / kAlign * kAlign; };
  return align(align(image_bytes) + core::kImageDescBytes);
}

}  // namespace rdxbench
