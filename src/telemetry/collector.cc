#include "telemetry/collector.h"

#include <algorithm>
#include <cstdio>
#include <vector>

#include "common/bytes.h"
#include "core/layout.h"

namespace rdx::telemetry {

namespace {

RingEvent DecodeSlot(const std::uint8_t* p) {
  RingEvent ev;
  ev.seq = LoadLE<std::uint64_t>(p + core::kTsSeq);
  ev.ts = static_cast<sim::SimTime>(
      LoadLE<std::uint64_t>(p + core::kTsTimestamp));
  UnpackRingMeta(LoadLE<std::uint64_t>(p + core::kTsMeta), ev.kind, ev.tid,
                 ev.code);
  ev.arg = LoadLE<std::uint64_t>(p + core::kTsArg);
  return ev;
}

}  // namespace

sim::Task<Status> Collector::Harvest(RingOps ops, std::uint64_t trace_addr,
                                     std::uint32_t pid) {
  if (trace_addr == 0) {
    co_return FailedPrecondition("remote sandbox publishes no trace ring");
  }
  // A failed verb aborts the pass: it is counted, nothing else is touched.
  auto fail = [this](const Status& failure) {
    ++stats_.failed_reads;
    return failure;
  };

  const StatusOr<Bytes> header =
      co_await ops.read(trace_addr, core::kTraceRingHeaderBytes);
  if (!header.ok()) co_return fail(header.status());
  const std::uint8_t* h = header->data();
  if (LoadLE<std::uint64_t>(h + core::kTrMagic) != core::kTraceRingMagic) {
    co_return FailedPrecondition("trace ring magic mismatch");
  }
  const std::uint64_t capacity = LoadLE<std::uint64_t>(h + core::kTrCapacity);
  const std::uint64_t head = LoadLE<std::uint64_t>(h + core::kTrHead);
  const std::uint64_t tail = LoadLE<std::uint64_t>(h + core::kTrTail);
  if (capacity == 0 || (capacity & (capacity - 1)) != 0) {
    co_return FailedPrecondition("trace ring capacity corrupt");
  }
  if (head == tail) {
    ++stats_.harvests;
    co_return OkStatus();
  }
  // Producer overrun: everything in [tail, head - capacity) has been
  // overwritten. Recoverable slots start at head - capacity.
  const std::uint64_t avail = head - tail;
  const std::uint64_t lost = avail > capacity ? avail - capacity : 0;
  const std::uint64_t start = tail + lost;

  // The occupied region is at most two contiguous chunks of the slot
  // array; read them back-to-back.
  const std::uint64_t count = head - start;
  const std::uint64_t first_idx = start & (capacity - 1);
  const std::uint64_t first_len = std::min(count, capacity - first_idx);
  const std::uint64_t wrap_len = count - first_len;
  const std::uint64_t slots = trace_addr + core::kTraceRingHeaderBytes;
  StatusOr<Bytes> chunk = co_await ops.read(
      slots + first_idx * core::kTraceSlotBytes,
      static_cast<std::uint32_t>(first_len * core::kTraceSlotBytes));
  if (!chunk.ok()) co_return fail(chunk.status());
  Bytes occupied = std::move(chunk).value();
  if (wrap_len > 0) {
    StatusOr<Bytes> wrap = co_await ops.read(
        slots, static_cast<std::uint32_t>(wrap_len * core::kTraceSlotBytes));
    if (!wrap.ok()) co_return fail(wrap.status());
    occupied.insert(occupied.end(), wrap->begin(), wrap->end());
  }

  // Decode and validate before touching the cursor. A slot whose seq is
  // not the expected absolute index was being overwritten while the READ
  // was in flight: skip it, count it, never merge it.
  std::vector<RingEvent> decoded;
  decoded.reserve(count);
  std::uint64_t torn = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    RingEvent ev = DecodeSlot(occupied.data() + i * core::kTraceSlotBytes);
    if (ev.seq != start + i) {
      ++torn;
      continue;
    }
    decoded.push_back(ev);
  }

  // One FETCH_ADD retires everything observed (including the overwritten
  // span). Events merge only after it succeeds: an aborted pass leaves
  // head - tail intact so the next harvest re-reads the same slots.
  const StatusOr<std::uint64_t> prior =
      co_await ops.fetch_add(trace_addr + core::kTrTail, avail);
  if (!prior.ok()) co_return fail(prior.status());
  ++stats_.harvests;
  stats_.torn += torn;
  stats_.overwritten += lost;
  stats_.events += decoded.size();
  if (lost > 0) {
    char args[48];
    std::snprintf(args, sizeof(args), "\"lost\": %llu",
                  static_cast<unsigned long long>(lost));
    tracer_.AddInstantAt("ring_overwrite", pid, 0,
                         decoded.empty() ? tracer_.events_queue().Now()
                                         : decoded.front().ts,
                         args);
  }
  for (const RingEvent& ev : decoded) AppendEvent(pid, ev);
  co_return OkStatus();
}

void Collector::AppendEvent(std::uint32_t pid, const RingEvent& ev) {
  char args[96];
  switch (ev.kind) {
    case RingEventKind::kHookExecEbpf:
    case RingEventKind::kHookExecWasm: {
      // The emit records retired instructions; reconstruct the span length
      // from the same cost model the data path was charged with.
      const std::uint64_t cycles = cost_.ExtensionExecCycles(ev.arg);
      const sim::Duration dur = static_cast<sim::Duration>(
          static_cast<double>(cycles) / cost_.cpu_hz * 1e9);
      std::snprintf(args, sizeof(args), "\"insns\": %llu, \"seq\": %llu",
                    static_cast<unsigned long long>(ev.arg),
                    static_cast<unsigned long long>(ev.seq));
      tracer_.AddComplete(RingEventKindName(ev.kind), pid, ev.tid, ev.ts,
                          dur, args);
      return;
    }
    case RingEventKind::kHookTrap:
      std::snprintf(args, sizeof(args), "\"status\": \"%.*s\"",
                    static_cast<int>(
                        StatusCodeName(static_cast<StatusCode>(ev.code))
                            .size()),
                    StatusCodeName(static_cast<StatusCode>(ev.code)).data());
      break;
    case RingEventKind::kHookFuelExhausted:
      std::snprintf(args, sizeof(args), "\"fuel_arg\": %llu",
                    static_cast<unsigned long long>(ev.arg));
      break;
    case RingEventKind::kFailsafeDetach:
      std::snprintf(args, sizeof(args), "\"reverted_desc\": %llu",
                    static_cast<unsigned long long>(ev.arg));
      break;
    case RingEventKind::kHookRefresh:
      std::snprintf(args, sizeof(args), "\"version\": %llu",
                    static_cast<unsigned long long>(ev.arg));
      break;
    case RingEventKind::kNone:
    default:
      args[0] = '\0';
      break;
  }
  tracer_.AddInstantAt(RingEventKindName(ev.kind), pid, ev.tid, ev.ts,
                       args);
}

void Collector::ExportMetrics(MetricsRegistry& reg) const {
  reg.SetCounter("telemetry.harvests", stats_.harvests);
  reg.SetCounter("telemetry.events", stats_.events);
  reg.SetCounter("telemetry.overwritten", stats_.overwritten);
  reg.SetCounter("telemetry.torn", stats_.torn);
  reg.SetCounter("telemetry.failed_reads", stats_.failed_reads);
}

}  // namespace rdx::telemetry
