// Telemetry overhead: the data-plane cost of trace-ring emission on the
// healthy path. Every hook execution emits one fixed-size ring event
// whose cost (cost.trace_emit_cycles) is charged to the serving CPU, so
// the on/off delta shows up directly in the virtual clock. The bench
// runs the same deploy + closed-loop KV window with telemetry off and
// on, reports the virtual-time overhead (budget: <= 2%), then harvests
// the ring agentlessly and writes the merged chrome://tracing JSON as an
// end-to-end demo of the telemetry subsystem.
#include "bench/bench_util.h"
#include "bpf/proggen.h"
#include "kvstore/kvstore.h"
#include "telemetry/collector.h"
#include "telemetry/metrics.h"
#include "telemetry/trace_export.h"

using namespace rdx;

namespace {

struct Rig {
  sim::EventQueue events;
  std::unique_ptr<rdma::Fabric> fabric;
  rdma::NodeId cp_node = 0;
  std::unique_ptr<core::ControlPlane> cp;
  std::unique_ptr<kvstore::KvStore> store;
  core::CodeFlow* flow = nullptr;

  explicit Rig(bool telemetry) {
    fabric = std::make_unique<rdma::Fabric>(events);
    cp_node = fabric->AddNode("cp", 128u << 20).id();
    cp = std::make_unique<core::ControlPlane>(events, *fabric, cp_node);
    rdma::Node& node = fabric->AddNode("kv-node", 64u << 20);
    kvstore::StoreConfig config;
    config.cores = 1;
    config.telemetry = telemetry;
    store = std::make_unique<kvstore::KvStore>(events, node, config);
    auto reg = store->sandbox().CtxRegister();
    if (!reg.ok()) std::abort();
    flow = bench::Must(sim::RunToCompletion(
        events, cp->CreateCodeFlow(store->sandbox(), reg.value())));
    events.Run();
  }

  void Deploy(const bpf::Program& prog, int hook) {
    bench::Must(sim::RunToCompletion(events, cp->Inject(*flow, prog, hook)));
    events.Run();
    store->sandbox().RefreshHookNow(hook);
  }

  // `n` closed-loop requests (each runs the attached hook).
  void RunRequests(int n) {
    for (int i = 0; i < n; ++i) {
      kvstore::Command command;
      command.type = (i % 4 == 0) ? kvstore::CommandType::kSet
                                  : kvstore::CommandType::kGet;
      command.key = "key" + std::to_string(i % 32);
      command.value = "v";
      bool done = false;
      store->Execute(command, [&](StatusOr<std::string> r) {
        if (!r.ok()) std::abort();
        done = true;
      });
      while (!done && !events.Empty()) events.Step();
    }
  }

  // Virtual time of one healthy deploy + `n` hook-running requests.
  sim::Duration MeasureWindow(const bpf::Program& prog, int n) {
    const sim::SimTime t0 = events.Now();
    Deploy(prog, 0);
    RunRequests(n);
    return events.Now() - t0;
  }
};

}  // namespace

int main() {
  bench::PrintHeader(
      "Telemetry overhead: trace-ring emission on the healthy path",
      "DESIGN.md telemetry (wait-free ring emit, agentless harvest; "
      "budget: <= 2% virtual-clock overhead)");

  const int kRequests = bench::ScaledIters(4000, 100);
  bpf::Program prog = bpf::GenerateProgram({.target_insns = 1300, .seed = 3});

  Rig off(/*telemetry=*/false);
  const double off_ns = static_cast<double>(off.MeasureWindow(prog, kRequests));

  Rig on(/*telemetry=*/true);
  telemetry::Tracer tracer(on.events);
  on.cp->SetTracer(&tracer);
  tracer.SetProcessName(static_cast<std::uint32_t>(on.cp_node),
                        "control-plane");
  tracer.SetProcessName(static_cast<std::uint32_t>(on.flow->node()),
                        "kv-node");
  const double on_ns = static_cast<double>(on.MeasureWindow(prog, kRequests));
  const double overhead_pct = (on_ns - off_ns) / off_ns * 100.0;

  bench::PrintRow({"telemetry", "vclock_ms", "ns_per_req"});
  bench::PrintRow({"off", bench::Fmt(off_ns / 1e6, 3),
                   bench::Fmt(off_ns / kRequests, 1)});
  bench::PrintRow({"on", bench::Fmt(on_ns / 1e6, 3),
                   bench::Fmt(on_ns / kRequests, 1)});
  std::printf("    healthy-path overhead: %.2f%% (budget 2%%)\n",
              overhead_pct);

  // ---- agentless harvest + chrome://tracing export demo ----
  telemetry::Collector collector(tracer);
  if (!sim::RunToCompletion(on.events, on.cp->HarvestTrace(*on.flow, collector))
           .ok()) {
    std::abort();
  }
  on.events.Run();
  telemetry::EmitFabricCounterEvents(tracer, *on.fabric);

  telemetry::MetricsRegistry registry;
  telemetry::CaptureFabricMetrics(registry, *on.fabric);
  on.store->sandbox().ExportMetrics(registry, "node1.sandbox");
  on.cp->ExportMetrics(registry);
  collector.ExportMetrics(registry);

  const char* trace_path = "telemetry_trace.json";
  if (!telemetry::WriteChromeTrace(tracer, trace_path).ok()) std::abort();
  const telemetry::TraceRingWriter* ring = on.store->sandbox().trace_writer();
  std::printf(
      "    ring: %llu emitted, %llu dropped; harvested %llu events "
      "(%llu overwritten, %llu torn)\n",
      static_cast<unsigned long long>(ring ? ring->emitted() : 0),
      static_cast<unsigned long long>(ring ? ring->dropped() : 0),
      static_cast<unsigned long long>(collector.stats().events),
      static_cast<unsigned long long>(collector.stats().overwritten),
      static_cast<unsigned long long>(collector.stats().torn));
  std::printf("    wrote %zu timeline events to %s (chrome://tracing)\n",
              tracer.events().size(), trace_path);

  bench::Json json;
  json.Add("requests", static_cast<std::uint64_t>(kRequests))
      .Add("vclock_off_ns", off_ns, 0)
      .Add("vclock_on_ns", on_ns, 0)
      .Add("overhead_pct", overhead_pct, 3)
      .Add("ring_emitted", ring ? ring->emitted() : 0)
      .Add("ring_dropped", ring ? ring->dropped() : 0)
      .Add("harvested_events", collector.stats().events)
      .Add("timeline_events",
           static_cast<std::uint64_t>(tracer.events().size()));
  bench::PrintBenchJson("telemetry_overhead", json, &on.events);
  return 0;
}
