// Agentless harvest of sandbox TraceRings. The collector runs on the
// control-plane node and touches remote rings exclusively with one-sided
// verbs: RDMA READ for the header and slot chunks, FETCH_ADD to advance
// the consumer cursor. No node-side CPU participates.
//
// Loss is accounted, never hidden: if the producer lapped the consumer,
// the overwritten span is computed from the head/tail gap and surfaced as
// a `ring_overwrite` instant plus the `overwritten` counter. A slot whose
// seq word does not match its expected absolute index was mid-overwrite
// during the READ (torn); it is skipped and counted, never emitted. The
// tail is advanced with one FETCH_ADD covering everything observed, and
// timeline events are appended only after that FAA completes — a failed
// harvest (QP error mid-read) leaves the ring untouched for the next
// attempt, so no event is lost or duplicated by the failure.
#pragma once

#include <cstdint>
#include <functional>

#include "common/status.h"
#include "sim/cost_model.h"
#include "sim/task.h"
#include "telemetry/metrics.h"
#include "telemetry/span.h"

namespace rdx::telemetry {

// One-sided verb surface the collector needs, as tasks so the telemetry
// library stays independent of the control-plane layer (the control plane
// adapts its CodeFlow into one of these; tests can harvest straight from
// a HostMemory).
struct RingOps {
  // READ `len` bytes at remote `addr`.
  std::function<sim::Task<StatusOr<Bytes>>(std::uint64_t addr,
                                           std::uint32_t len)>
      read;
  // FETCH_ADD `delta` onto the u64 at remote `addr`; yields the prior
  // value.
  std::function<sim::Task<StatusOr<std::uint64_t>>(std::uint64_t addr,
                                                   std::uint64_t delta)>
      fetch_add;
};

struct HarvestStats {
  std::uint64_t harvests = 0;      // completed harvest passes
  std::uint64_t events = 0;        // slots merged into the timeline
  std::uint64_t overwritten = 0;   // slots lost to producer overruns
  std::uint64_t torn = 0;          // slots skipped due to seq mismatch
  std::uint64_t failed_reads = 0;  // harvest passes aborted by verb errors
};

class Collector {
 public:
  explicit Collector(Tracer& tracer, sim::CostModel cost = {})
      : tracer_(tracer), cost_(cost) {}

  // Harvests the ring at `trace_addr` on the node rendered as `pid`,
  // merging its events into the tracer's timeline. Finishes once the pass
  // commits (tail advanced, events appended) or aborts (nothing touched).
  sim::Task<Status> Harvest(RingOps ops, std::uint64_t trace_addr,
                            std::uint32_t pid);

  const HarvestStats& stats() const { return stats_; }
  void ExportMetrics(MetricsRegistry& reg) const;

 private:
  void AppendEvent(std::uint32_t pid, const RingEvent& ev);

  Tracer& tracer_;
  sim::CostModel cost_;
  HarvestStats stats_;
};

}  // namespace rdx::telemetry
