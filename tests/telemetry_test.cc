// Telemetry subsystem tests: trace-ring wire contract (format, emit,
// wraparound, producer-side drop accounting), the collector's one-sided
// harvest (merge, overrun loss accounting, torn-slot skip, a pass that
// fails any verb leaves the ring untouched), harvest through the control
// plane under injected READ faults, the chrome://tracing exporter
// (syntactic JSON validity + monotonic timestamps), the metrics
// registry, and the agent pipeline's span migration.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bpf/assembler.h"
#include "core/codeflow.h"
#include "core/layout.h"
#include "fault/injector.h"
#include "telemetry/collector.h"
#include "telemetry/metrics.h"
#include "telemetry/ring.h"
#include "telemetry/trace_export.h"

namespace rdx {
namespace {

using core::CodeFlow;
using core::ControlPlane;
using core::Sandbox;
using core::SandboxConfig;
using telemetry::Collector;
using telemetry::MetricsRegistry;
using telemetry::RingEventKind;
using telemetry::RingOps;
using telemetry::Tracer;
using telemetry::TraceRingWriter;

// ---- ring producer: wire contract ----

TEST(TraceRing, FormatAndEmitFollowWireContract) {
  rdma::HostMemory mem(1 << 20);
  const std::uint64_t addr = mem.Allocate(TraceRingWriter::BytesFor(8)).value();
  ASSERT_TRUE(TraceRingWriter::Format(mem, addr, 8).ok());
  EXPECT_EQ(mem.ReadU64(addr + core::kTrMagic).value(), core::kTraceRingMagic);
  EXPECT_EQ(mem.ReadU64(addr + core::kTrCapacity).value(), 8u);

  TraceRingWriter writer(mem, addr, 8);
  writer.Emit(RingEventKind::kHookExecEbpf, /*tid=*/3, /*code=*/0,
              /*ts=*/1234, /*arg=*/77);
  EXPECT_EQ(writer.emitted(), 1u);
  EXPECT_EQ(mem.ReadU64(addr + core::kTrHead).value(), 1u);
  EXPECT_EQ(mem.ReadU64(addr + core::kTrTail).value(), 0u);
  EXPECT_EQ(mem.ReadU64(addr + core::kTrDropped).value(), 0u);

  const std::uint64_t slot0 = addr + core::kTraceRingHeaderBytes;
  EXPECT_EQ(mem.ReadU64(slot0 + core::kTsSeq).value(), 0u);
  EXPECT_EQ(mem.ReadU64(slot0 + core::kTsTimestamp).value(), 1234u);
  EXPECT_EQ(mem.ReadU64(slot0 + core::kTsArg).value(), 77u);
  RingEventKind kind;
  std::uint8_t tid;
  std::uint16_t code;
  telemetry::UnpackRingMeta(mem.ReadU64(slot0 + core::kTsMeta).value(), kind,
                            tid, code);
  EXPECT_EQ(kind, RingEventKind::kHookExecEbpf);
  EXPECT_EQ(tid, 3u);
  EXPECT_EQ(code, 0u);
}

TEST(TraceRing, RejectsNonPowerOfTwoCapacity) {
  rdma::HostMemory mem(1 << 20);
  const std::uint64_t addr = mem.Allocate(4096).value();
  EXPECT_FALSE(TraceRingWriter::Format(mem, addr, 12).ok());
  EXPECT_FALSE(TraceRingWriter::Format(mem, addr, 0).ok());
}

TEST(TraceRing, OverflowOverwritesOldestAndCountsDrops) {
  rdma::HostMemory mem(1 << 20);
  const std::uint64_t addr = mem.Allocate(TraceRingWriter::BytesFor(8)).value();
  ASSERT_TRUE(TraceRingWriter::Format(mem, addr, 8).ok());
  TraceRingWriter writer(mem, addr, 8);
  for (int i = 0; i < 20; ++i) {
    writer.Emit(RingEventKind::kHookExecEbpf, 0, 0, i, i);
  }
  // Wait-free overwrite: all 20 landed, the 12 beyond capacity each
  // clobbered the oldest unharvested slot and were counted.
  EXPECT_EQ(writer.emitted(), 20u);
  EXPECT_EQ(writer.dropped(), 12u);
  EXPECT_EQ(mem.ReadU64(addr + core::kTrHead).value(), 20u);
  EXPECT_EQ(mem.ReadU64(addr + core::kTrDropped).value(), 12u);
  // The surviving window is the last `capacity` events: slot (19 & 7)
  // holds seq 19.
  const std::uint64_t newest =
      addr + core::kTraceRingHeaderBytes + (19 & 7) * core::kTraceSlotBytes;
  EXPECT_EQ(mem.ReadU64(newest + core::kTsSeq).value(), 19u);
}

// ---- collector: harvest semantics over a local ring ----

// One-sided verb surface backed directly by a HostMemory, standing in for
// the RDMA path so harvest semantics are testable in isolation.
RingOps DirectOps(rdma::HostMemory& mem) {
  RingOps ops;
  ops.read = [&mem](std::uint64_t addr,
                    std::uint32_t len) -> sim::Task<StatusOr<Bytes>> {
    Bytes out(len);
    RDX_CO_RETURN_IF_ERROR(
        mem.Read(addr, MutableByteSpan(out.data(), out.size())));
    co_return out;
  };
  ops.fetch_add =
      [&mem](std::uint64_t addr,
             std::uint64_t delta) -> sim::Task<StatusOr<std::uint64_t>> {
    RDX_CO_ASSIGN_OR_RETURN(const std::uint64_t prior, mem.ReadU64(addr));
    EXPECT_TRUE(mem.WriteU64(addr, prior + delta).ok());
    co_return prior;
  };
  return ops;
}

struct LocalRing {
  sim::EventQueue events;
  rdma::HostMemory mem{1 << 20};
  std::uint64_t addr = 0;
  Tracer tracer{events};
  Collector collector{tracer};

  explicit LocalRing(std::uint64_t capacity) {
    addr = mem.Allocate(TraceRingWriter::BytesFor(capacity)).value();
    EXPECT_TRUE(TraceRingWriter::Format(mem, addr, capacity).ok());
  }

  Status Harvest(RingOps ops = {}) {
    if (!ops.read) ops = DirectOps(mem);
    return sim::RunToCompletion(
        events, collector.Harvest(std::move(ops), addr, /*pid=*/1));
  }

  std::uint64_t Tail() { return mem.ReadU64(addr + core::kTrTail).value(); }
};

TEST(Collector, HarvestMergesEventsAndAdvancesTail) {
  LocalRing ring(16);
  TraceRingWriter writer(ring.mem, ring.addr, 16);
  for (int i = 0; i < 5; ++i) {
    writer.Emit(RingEventKind::kHookExecEbpf, /*tid=*/2, 0,
                /*ts=*/100 * (i + 1), /*arg=*/50);
  }
  ASSERT_TRUE(ring.Harvest().ok());
  EXPECT_EQ(ring.collector.stats().harvests, 1u);
  EXPECT_EQ(ring.collector.stats().events, 5u);
  EXPECT_EQ(ring.collector.stats().overwritten, 0u);
  EXPECT_EQ(ring.Tail(), 5u);

  // Hook executions become 'X' spans whose length comes from the cost
  // model, in emit order, on the hook's tid lane.
  ASSERT_EQ(ring.tracer.events().size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    const auto& ev = ring.tracer.events()[i];
    EXPECT_EQ(ev.name, "hook_exec:ebpf");
    EXPECT_EQ(ev.ph, 'X');
    EXPECT_EQ(ev.pid, 1u);
    EXPECT_EQ(ev.tid, 2u);
    EXPECT_EQ(ev.ts, static_cast<sim::SimTime>(100 * (i + 1)));
    EXPECT_GT(ev.dur, 0);
  }

  // A second pass over the drained ring merges nothing.
  ASSERT_TRUE(ring.Harvest().ok());
  EXPECT_EQ(ring.collector.stats().harvests, 2u);
  EXPECT_EQ(ring.collector.stats().events, 5u);
  EXPECT_EQ(ring.tracer.events().size(), 5u);
}

TEST(Collector, ProducerOverrunIsAccountedAsLossNotCorruption) {
  LocalRing ring(8);
  TraceRingWriter writer(ring.mem, ring.addr, 8);
  for (int i = 0; i < 20; ++i) {
    writer.Emit(RingEventKind::kHookExecEbpf, 0, 0, /*ts=*/i + 1, /*arg=*/1);
  }
  ASSERT_TRUE(ring.Harvest().ok());
  // Only the newest `capacity` slots were recoverable; the 12 lost ones
  // are surfaced, not silently skipped.
  EXPECT_EQ(ring.collector.stats().events, 8u);
  EXPECT_EQ(ring.collector.stats().overwritten, 12u);
  EXPECT_EQ(ring.Tail(), 20u);

  bool saw_overwrite_instant = false;
  for (const auto& ev : ring.tracer.events()) {
    if (ev.name == "ring_overwrite") {
      saw_overwrite_instant = true;
      EXPECT_EQ(ev.ph, 'i');
      EXPECT_NE(ev.args.find("\"lost\": 12"), std::string::npos) << ev.args;
    }
  }
  EXPECT_TRUE(saw_overwrite_instant);
}

TEST(Collector, TornSlotIsSkippedAndCountedNeverMerged) {
  LocalRing ring(16);
  TraceRingWriter writer(ring.mem, ring.addr, 16);
  for (int i = 0; i < 4; ++i) {
    writer.Emit(RingEventKind::kHookExecEbpf, 0, 0, /*ts=*/i + 1, /*arg=*/1);
  }
  // Scribble slot 2's seq word: the collector must treat it as
  // mid-overwrite (its seq no longer matches the expected absolute
  // index) and drop it without merging garbage.
  const std::uint64_t slot2 =
      ring.addr + core::kTraceRingHeaderBytes + 2 * core::kTraceSlotBytes;
  ASSERT_TRUE(ring.mem.WriteU64(slot2 + core::kTsSeq, 9999).ok());

  ASSERT_TRUE(ring.Harvest().ok());
  EXPECT_EQ(ring.collector.stats().events, 3u);
  EXPECT_EQ(ring.collector.stats().torn, 1u);
  EXPECT_EQ(ring.Tail(), 4u);
  for (const auto& ev : ring.tracer.events()) {
    EXPECT_NE(ev.ts, 3) << "torn slot leaked into the timeline";
  }
}

// The verb a harvest pass fails on; each is an early return of the pass.
enum class FailingVerb { kHeaderRead, kSlotRead, kWrapRead, kFetchAdd };

void PrintTo(FailingVerb verb, std::ostream* os) {
  constexpr const char* kNames[] = {"HeaderRead", "SlotRead", "WrapRead",
                                    "FetchAdd"};
  *os << kNames[static_cast<int>(verb)];
}

class CollectorAbort : public ::testing::TestWithParam<FailingVerb> {};

TEST_P(CollectorAbort, FailedVerbAbortsPassAndLeavesRingUntouched) {
  // Drain 6 events, then emit 6 more into the 8-slot ring: the occupied
  // region [6, 12) wraps, so the pass issues header, slot and wrap READs
  // before its FETCH_ADD.
  LocalRing ring(8);
  TraceRingWriter writer(ring.mem, ring.addr, 8);
  for (int i = 0; i < 6; ++i) {
    writer.Emit(RingEventKind::kHookExecEbpf, 0, 0, /*ts=*/i + 1, /*arg=*/1);
  }
  ASSERT_TRUE(ring.Harvest().ok());
  for (int i = 6; i < 12; ++i) {
    writer.Emit(RingEventKind::kHookExecEbpf, 0, 0, /*ts=*/i + 1, /*arg=*/1);
  }
  const telemetry::HarvestStats before = ring.collector.stats();
  ASSERT_EQ(ring.Tail(), 6u);
  ASSERT_EQ(ring.tracer.events().size(), 6u);

  // Fail the chosen verb: the pass must abort without advancing the tail,
  // counting anything but the failure, or appending events.
  int reads = 0;
  RingOps flaky = DirectOps(ring.mem);
  const RingOps real = flaky;
  const FailingVerb failing = GetParam();
  flaky.read = [&reads, real, failing](
                   std::uint64_t addr,
                   std::uint32_t len) -> sim::Task<StatusOr<Bytes>> {
    const int nth = ++reads;
    if ((failing == FailingVerb::kHeaderRead && nth == 1) ||
        (failing == FailingVerb::kSlotRead && nth == 2) ||
        (failing == FailingVerb::kWrapRead && nth == 3)) {
      co_return Unavailable("RETRY_EXC_ERR");
    }
    co_return co_await real.read(addr, len);
  };
  flaky.fetch_add = [real, failing](std::uint64_t addr, std::uint64_t delta)
      -> sim::Task<StatusOr<std::uint64_t>> {
    if (failing == FailingVerb::kFetchAdd) co_return Unavailable("WR_FLUSH");
    co_return co_await real.fetch_add(addr, delta);
  };
  EXPECT_FALSE(ring.Harvest(flaky).ok());
  EXPECT_EQ(reads, failing == FailingVerb::kHeaderRead ? 1
                   : failing == FailingVerb::kSlotRead ? 2
                                                       : 3);
  const telemetry::HarvestStats& after = ring.collector.stats();
  EXPECT_EQ(after.failed_reads, before.failed_reads + 1);
  EXPECT_EQ(after.harvests, before.harvests);
  EXPECT_EQ(after.events, before.events);
  EXPECT_EQ(after.overwritten, before.overwritten);
  EXPECT_EQ(after.torn, before.torn);
  EXPECT_EQ(ring.Tail(), 6u);
  EXPECT_EQ(ring.tracer.events().size(), 6u);

  // The next (healthy) pass re-reads the same slots: nothing was lost or
  // duplicated by the failure.
  ASSERT_TRUE(ring.Harvest().ok());
  EXPECT_EQ(ring.collector.stats().events, 12u);
  EXPECT_EQ(ring.collector.stats().overwritten, 0u);
  EXPECT_EQ(ring.Tail(), 12u);
  ASSERT_EQ(ring.tracer.events().size(), 12u);
  for (std::size_t i = 0; i < 12; ++i) {
    EXPECT_EQ(ring.tracer.events()[i].ts, static_cast<sim::SimTime>(i + 1));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Verbs, CollectorAbort,
    ::testing::Values(FailingVerb::kHeaderRead, FailingVerb::kSlotRead,
                      FailingVerb::kWrapRead, FailingVerb::kFetchAdd));

// ---- end-to-end: control plane + sandbox + fault injector ----

bpf::Program SumProgram() {
  std::string src = "r0 = 0\n";
  for (int i = 1; i <= 20; ++i) src += "r0 += " + std::to_string(i) + "\n";
  src += "exit\n";
  bpf::Program prog;
  prog.name = "sum";
  auto insns = bpf::Assemble(src);
  EXPECT_TRUE(insns.ok()) << insns.status().ToString();
  prog.insns = std::move(insns).value();
  return prog;
}

struct TelemetryRig {
  sim::EventQueue events;
  rdma::Fabric fabric{events};
  std::unique_ptr<ControlPlane> cp;
  std::unique_ptr<fault::FaultInjector> injector;
  std::unique_ptr<Sandbox> sandbox;
  CodeFlow* flow = nullptr;
  Tracer tracer{events};

  TelemetryRig() {
    const rdma::NodeId cp_id = fabric.AddNode("cp", 128u << 20).id();
    cp = std::make_unique<ControlPlane>(events, fabric, cp_id);
    cp->SetTracer(&tracer);
    injector = std::make_unique<fault::FaultInjector>(events, fabric);
    injector->SetTracer(&tracer);
    SandboxConfig config;
    config.trace_ring_slots = 64;
    rdma::Node& node = fabric.AddNode("n0");
    sandbox = std::make_unique<Sandbox>(events, node, config);
    EXPECT_TRUE(sandbox->CtxInit().ok());
    auto reg = sandbox->CtxRegister();
    EXPECT_TRUE(reg.ok());
    const StatusOr<CodeFlow*> created =
        sim::RunToCompletion(events, cp->CreateCodeFlow(*sandbox, reg.value()));
    EXPECT_TRUE(created.ok()) << created.status().ToString();
    events.Run();
    if (created.ok()) flow = created.value();
  }

  void Deploy(int hook) {
    const StatusOr<core::InjectTrace> r =
        sim::RunToCompletion(events, cp->Inject(*flow, SumProgram(), hook));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    events.Run();
    sandbox->RefreshHookNow(hook);
  }

  void RunHook(int hook, int n) {
    Bytes packet(4, 0);
    for (int i = 0; i < n; ++i) {
      events.ScheduleAfter(sim::Micros(1), [] {});
      events.Run();
      ASSERT_TRUE(sandbox->ExecuteHook(hook, packet).ok());
    }
  }

  Status Harvest(Collector& collector) {
    const Status result =
        sim::RunToCompletion(events, cp->HarvestTrace(*flow, collector));
    events.Run();
    return result;
  }
};

// Minimal JSON syntax checker (objects, arrays, strings, numbers,
// true/false/null) — enough to prove the exporter's output parses.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}
  bool Valid() {
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return pos_ == s_.size();
  }

 private:
  bool Value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return Object();
      case '[': return Array();
      case '"': return String();
      case 't': return Literal("true");
      case 'f': return Literal("false");
      case 'n': return Literal("null");
      default: return Number();
    }
  }
  bool Object() {
    ++pos_;  // {
    SkipWs();
    if (Peek() == '}') { ++pos_; return true; }
    while (true) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (Peek() != ':') return false;
      ++pos_;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool Array() {
    ++pos_;  // [
    SkipWs();
    if (Peek() == ']') { ++pos_; return true; }
    while (true) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool String() {
    if (Peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      pos_ += s_[pos_] == '\\' ? 2 : 1;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;
    return true;
  }
  bool Number() {
    const std::size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool Literal(const char* lit) {
    const std::size_t len = std::string(lit).size();
    if (s_.compare(pos_, len, lit) != 0) return false;
    pos_ += len;
    return true;
  }
  char Peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void SkipWs() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }
  const std::string& s_;
  std::size_t pos_ = 0;
};

TEST(TelemetryE2E, InjectPhaseSpansSitWhereThePhasesRan) {
  TelemetryRig rig;
  rig.Deploy(0);
  std::map<std::string, const telemetry::TimelineEvent*> spans;
  for (const auto& ev : rig.tracer.events()) spans[ev.name] = &ev;
  for (const char* name :
       {"inject", "inject:link", "inject:transfer", "inject:commit"}) {
    ASSERT_TRUE(spans.count(name)) << name;
  }
  auto end = [](const telemetry::TimelineEvent* ev) {
    return ev->ts + ev->dur;
  };
  // The commit closes the inject, and the dispatch charge runs between
  // link and transfer.
  EXPECT_EQ(end(spans["inject:commit"]), end(spans["inject"]));
  EXPECT_EQ(spans["inject:commit"]->ts, end(spans["inject:transfer"]));
  EXPECT_EQ(spans["inject:transfer"]->ts,
            end(spans["inject:link"]) +
                rig.cp->config().cost.rdx_dispatch_overhead);
}

TEST(TelemetryE2E, OneTimelineCoversSpansRingEventsFaultsAndCounters) {
  TelemetryRig rig;
  rig.tracer.SetProcessName(static_cast<std::uint32_t>(rig.cp->self()),
                            "control-plane");
  rig.Deploy(0);
  rig.RunHook(0, 5);

  Collector collector(rig.tracer);
  ASSERT_TRUE(rig.Harvest(collector).ok());
  EXPECT_GE(collector.stats().events, 5u);

  // A fault instant lands on the same timeline (armed after the harvest
  // so the QP it kills is no longer needed).
  char plan[96];
  std::snprintf(plan, sizeof(plan), "qp_error node=%u at=%lld\n",
                rig.sandbox->node().id(),
                static_cast<long long>(rig.events.Now() + 1000));
  auto parsed = fault::ParseFaultPlan(plan);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_TRUE(rig.injector->Arm(parsed.value()).ok());
  rig.events.Run();

  telemetry::EmitFabricCounterEvents(rig.tracer, rig.fabric);

  // Every source is present in the merged timeline.
  bool saw_inject = false, saw_phase = false, saw_exec = false;
  bool saw_fault = false, saw_counter = false;
  for (const auto& ev : rig.tracer.events()) {
    saw_inject |= ev.name == "inject";
    saw_phase |= ev.name == "inject:transfer";
    saw_exec |= ev.name == "hook_exec:ebpf";
    saw_fault |= ev.name == "fault:qp_error";
    saw_counter |= ev.ph == 'C';
  }
  EXPECT_TRUE(saw_inject);
  EXPECT_TRUE(saw_phase);
  EXPECT_TRUE(saw_exec);
  EXPECT_TRUE(saw_fault);
  EXPECT_TRUE(saw_counter);

  // The export is syntactically valid JSON with monotonically
  // non-decreasing timestamps (the exporter sorts, so this holds for
  // every tid lane too).
  const std::string json = telemetry::ToChromeTraceJson(rig.tracer);
  EXPECT_TRUE(JsonChecker(json).Valid()) << json.substr(0, 400);
  EXPECT_NE(json.find("\"traceEvents\": ["), std::string::npos);
  EXPECT_NE(json.find("process_name"), std::string::npos);
  double last_ts = -1.0;
  std::size_t ts_count = 0;
  for (std::size_t at = json.find("\"ts\": "); at != std::string::npos;
       at = json.find("\"ts\": ", at + 6)) {
    const double ts = std::strtod(json.c_str() + at + 6, nullptr);
    EXPECT_GE(ts, last_ts) << "timestamps regress at offset " << at;
    last_ts = ts;
    ++ts_count;
  }
  EXPECT_EQ(ts_count, rig.tracer.events().size());
}

TEST(TelemetryE2E, HarvestUnderReadFaultsAccountsLossThenRecovers) {
  TelemetryRig rig;
  rig.Deploy(0);
  rig.RunHook(0, 8);
  const std::uint64_t emitted = rig.sandbox->trace_writer()->emitted();
  ASSERT_GE(emitted, 8u);

  // Drop every WR for a window covering the harvest: the header READ
  // fails, the pass aborts, the ring is untouched.
  char plan[128];
  std::snprintf(plan, sizeof(plan), "drop node=%u at=%lld for=50us p=1\n",
                rig.sandbox->node().id(),
                static_cast<long long>(rig.events.Now()));
  auto parsed = fault::ParseFaultPlan(plan);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_TRUE(rig.injector->Arm(parsed.value()).ok());

  Collector collector(rig.tracer);
  EXPECT_FALSE(rig.Harvest(collector).ok());
  EXPECT_GE(collector.stats().failed_reads, 1u);
  EXPECT_EQ(collector.stats().events, 0u);

  // Heal: wait out the window, reconnect the errored QP, harvest again.
  // Every emitted event arrives exactly once — the failed pass neither
  // lost nor duplicated anything.
  rig.events.ScheduleAfter(sim::Micros(100), [] {});
  rig.events.Run();
  const Status reconnected =
      sim::RunToCompletion(rig.events, rig.cp->ReconnectCodeFlow(*rig.flow));
  ASSERT_TRUE(reconnected.ok()) << reconnected.ToString();
  rig.events.Run();
  ASSERT_TRUE(rig.Harvest(collector).ok());
  EXPECT_EQ(collector.stats().events, emitted);
  EXPECT_EQ(collector.stats().overwritten, 0u);
  EXPECT_EQ(collector.stats().torn, 0u);

  std::size_t exec_events = 0;
  for (const auto& ev : rig.tracer.events()) {
    exec_events += ev.name == "hook_exec:ebpf";
  }
  EXPECT_EQ(exec_events, 8u);
}

TEST(TelemetryE2E, TelemetryOffPublishesNoRingAndHarvestRefuses) {
  sim::EventQueue events;
  rdma::Fabric fabric{events};
  const rdma::NodeId cp_id = fabric.AddNode("cp", 128u << 20).id();
  ControlPlane cp(events, fabric, cp_id);
  SandboxConfig config;
  config.telemetry = false;
  rdma::Node& node = fabric.AddNode("n0");
  Sandbox sandbox(events, node, config);
  ASSERT_TRUE(sandbox.CtxInit().ok());
  EXPECT_EQ(sandbox.trace_writer(), nullptr);

  const StatusOr<CodeFlow*> created = sim::RunToCompletion(
      events, cp.CreateCodeFlow(sandbox, sandbox.CtxRegister().value()));
  ASSERT_TRUE(created.ok());
  events.Run();
  CodeFlow* flow = created.value();
  EXPECT_EQ(flow->remote_view().trace_addr, 0u);

  Tracer tracer(events);
  Collector collector(tracer);
  const Status result =
      sim::RunToCompletion(events, cp.HarvestTrace(*flow, collector));
  EXPECT_EQ(result.code(), StatusCode::kFailedPrecondition);
}

// ---- metrics registry ----

TEST(Metrics, RegistrySnapshotIsValidJsonWithStableKeys) {
  MetricsRegistry reg;
  reg.Count("rdma.ops", 7);
  reg.SetGauge("cache.hit_rate", 0.5);
  reg.Hist("latency").Add(10);
  reg.Hist("latency").Add(20);
  const std::string json = reg.SnapshotJson();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"rdma.ops\""), std::string::npos);
  EXPECT_NE(json.find("\"cache.hit_rate\""), std::string::npos);
  EXPECT_NE(json.find("\"latency\""), std::string::npos);
  EXPECT_EQ(reg.counter("rdma.ops"), 7u);
  EXPECT_EQ(reg.counter("missing"), 0u);
}

TEST(Metrics, SandboxControlPlaneAndCollectorExport) {
  TelemetryRig rig;
  rig.Deploy(0);
  rig.RunHook(0, 3);
  Collector collector(rig.tracer);
  ASSERT_TRUE(rig.Harvest(collector).ok());

  MetricsRegistry reg;
  telemetry::CaptureFabricMetrics(reg, rig.fabric);
  rig.sandbox->ExportMetrics(reg, "n0");
  rig.cp->ExportMetrics(reg);
  collector.ExportMetrics(reg);

  EXPECT_EQ(reg.counter("n0.executions"), 3u);
  EXPECT_GE(reg.counter("n0.trace.emitted"), 3u);
  EXPECT_EQ(reg.counter("cp.codeflows"), 1u);
  EXPECT_GE(reg.counter("telemetry.harvests"), 1u);
  EXPECT_GE(reg.counter("telemetry.events"), 3u);
  EXPECT_TRUE(JsonChecker(reg.SnapshotJson()).Valid());
}

TEST(Metrics, SmallOpFastPathCountersExported) {
  TelemetryRig rig;
  rig.Deploy(0);
  rig.RunHook(0, 3);

  MetricsRegistry reg;
  telemetry::CaptureFabricMetrics(reg, rig.fabric);
  const std::string json = reg.SnapshotJson();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  // The fast-path counters are always present (zero or not), so
  // dashboards can rely on the keys existing.
  for (const char* key :
       {"rdma.qp.inline_wrs", "rdma.qp.unsignaled", "rdma.cq.coalesced",
        "rdma.mtt.hits", "rdma.mtt.misses", "rdma.mtt.invalidations"}) {
    EXPECT_NE(json.find(std::string("\"") + key + "\""), std::string::npos)
        << "missing counter " << key;
  }
  // A deploy + hook executions drive control-plane WRITEs through the
  // inline fast path and warm the MTT.
  EXPECT_GT(reg.counter("rdma.qp.inline_wrs"), 0u);
  EXPECT_GT(reg.counter("rdma.mtt.hits"), 0u);
  EXPECT_GT(reg.counter("rdma.mtt.misses"), 0u);
}

}  // namespace
}  // namespace rdx
