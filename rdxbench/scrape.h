// Reading the counters the layers already expose (fabric, sandboxes,
// control plane) into an Outcome's per-layer map, and the output checks
// shared by every workload.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/codeflow.h"
#include "harness.h"

namespace rdxbench {

// Fabric-wide counters; a snapshot at the window start lets the scrape
// report the window alone.
struct FabricCounters {
  double wrs = 0;
  double writes = 0;
  double doorbells = 0;
  double chained_wrs = 0;
  double inline_wrs = 0;
  double unsignaled_wrs = 0;
  double coalesced_cqes = 0;
  double bytes_written = 0;
  double failures = 0;
  double mtt_hits = 0;
  double mtt_misses = 0;
};
FabricCounters ReadFabric(const rdx::rdma::Fabric& fabric);

// rdma.* over the window since `start` (the WR latency percentiles cover
// the fabric's lifetime: histograms do not subtract); also records the WR
// mix for the rdma replay and the WR count for attribution.
void ScrapeFabric(const rdx::rdma::Fabric& fabric, const FabricCounters& start,
                  Outcome& out);

// core.sandbox.*, core.scratch_used_frac and telemetry.ring_emits, summed
// (or, for the scratch fraction, maxed) over `sandboxes`.
void ScrapeSandboxes(const std::vector<rdx::core::Sandbox*>& sandboxes,
                     Outcome& out);

// core.artifact_hit_ratio and sim.cpu_util.cp.
void ScrapeControlPlane(rdx::core::ControlPlane& cp, Outcome& out);

// Calls `on_visible` once `sandbox` executes version >= `version` at
// `hook`, checked after every event.
void WatchVisible(Loop& loop, const rdx::core::Sandbox& sandbox, int hook,
                  std::uint64_t version, std::function<void()> on_visible);

// The end-of-run check: the version committed in the sandbox's memory and
// the version its CPU executes both equal the last version deployed.
void CheckVersion(const rdx::core::Sandbox& sandbox, int hook,
                  std::uint64_t expected, Outcome& out);

// Bytes a deploy of a `image_bytes`-byte image takes from the scratchpad
// (image, then its ImageDesc, at the control plane's 64-byte allocation
// alignment).
std::uint64_t ScratchRegionBytes(std::uint64_t image_bytes);

}  // namespace rdxbench
