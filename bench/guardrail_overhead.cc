// Healthy-path cost of the runtime guardrails (§5): the HealthBlock
// accounting runs on every hook execution, so its overhead must be
// negligible when extensions behave. Measures wall-clock ns/exec with
// guardrails on vs off for a representative 1.3K-insn program, then the
// containment side: sim-time latency from a rogue deployment to its
// remote quarantine (agentless poll -> CAS), and the execution count the
// local fail-safe needs to contain a crash loop on its own.
#include <chrono>

#include "bench/bench_util.h"
#include "bpf/proggen.h"
#include "core/reliability.h"

using namespace rdx;

namespace {

struct Rig {
  sim::EventQueue events;
  std::unique_ptr<rdma::Fabric> fabric;
  std::unique_ptr<core::ControlPlane> cp;
  std::unique_ptr<core::Sandbox> sandbox;
  core::CodeFlow* flow = nullptr;

  explicit Rig(const core::SandboxConfig& config) {
    fabric = std::make_unique<rdma::Fabric>(events);
    const rdma::NodeId cp_id = fabric->AddNode("cp", 128u << 20).id();
    cp = std::make_unique<core::ControlPlane>(events, *fabric, cp_id);
    rdma::Node& node = fabric->AddNode("target", 64u << 20);
    sandbox = std::make_unique<core::Sandbox>(events, node, config);
    if (!sandbox->CtxInit().ok()) std::abort();
    auto reg = sandbox->CtxRegister();
    if (!reg.ok()) std::abort();
    flow = bench::Must(
        sim::RunToCompletion(events, cp->CreateCodeFlow(*sandbox, reg.value())));
    events.Run();
  }

  void Inject(const bpf::Program& prog, int hook) {
    bench::Must(sim::RunToCompletion(events, cp->Inject(*flow, prog, hook)));
    events.Run();
    sandbox->RefreshHookNow(hook);
  }
};

// Wall-clock ns per ExecuteHook over `iters` runs of a healthy program.
double MeasureExecNs(bool guardrails, int iters) {
  core::SandboxConfig config;
  config.guardrails = guardrails;
  Rig rig(config);
  rig.Inject(bpf::GenerateProgram({.target_insns = 1300, .seed = 3}), 0);

  Bytes packet(64, 0xab);
  // Warm the decoded-image cache before timing.
  for (int i = 0; i < 100; ++i) (void)rig.sandbox->ExecuteHook(0, packet);
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) {
    auto r = rig.sandbox->ExecuteHook(0, packet);
    if (!r.ok()) std::abort();
  }
  const auto t1 = std::chrono::steady_clock::now();
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                 .count()) /
         iters;
}

}  // namespace

int main() {
  bench::PrintHeader("Runtime guardrail overhead + containment latency",
                     "§5 guardrails (health accounting / quarantine)");

  const int kIters = bench::ScaledIters(20000, 200);
  const double ns_off = MeasureExecNs(/*guardrails=*/false, kIters);
  const double ns_on = MeasureExecNs(/*guardrails=*/true, kIters);
  const double overhead_pct = (ns_on - ns_off) / ns_off * 100.0;

  bench::PrintRow({"guardrails", "ns_per_exec"});
  bench::PrintRow({"off", bench::Fmt(ns_off, 1)});
  bench::PrintRow({"on", bench::Fmt(ns_on, 1)});
  std::printf("    healthy-path overhead: %.1f%%\n", overhead_pct);

  // ---- remote containment latency (sim time) ----
  // A crash-looping image lands at t_rogue; steady traffic exposes it and
  // the monitor (1 ms poll) quarantines it over RDMA. Local fail-safe is
  // disabled so the measurement isolates the agentless path.
  core::SandboxConfig config;
  config.max_consecutive_failures = 0;
  Rig rig(config);
  rig.Inject(bpf::GenerateProgram({.target_insns = 64, .seed = 5}), 0);
  Bytes packet(64, 0);
  (void)rig.sandbox->ExecuteHook(0, packet);  // establish last-good

  rig.Inject(bpf::GenerateRogueProgram({.kind = bpf::RogueKind::kTrapLoop}),
             0);
  const sim::SimTime t_rogue = rig.events.Now();
  for (int i = 1; i <= 100; ++i) {
    rig.events.ScheduleAt(t_rogue + sim::Micros(50) * i, [&rig] {
      rig.sandbox->RefreshHookNow(0);
      Bytes p(64, 0);
      (void)rig.sandbox->ExecuteHook(0, p);
    });
  }
  core::HealthMonitor monitor(*rig.cp);
  monitor.Watch(*rig.flow);
  monitor.Start();
  rig.events.ScheduleAt(t_rogue + sim::Millis(20),
                        [&monitor] { monitor.Stop(); });
  rig.events.Run();
  if (monitor.records().empty() || !monitor.records()[0].quarantined) {
    std::abort();
  }
  const double containment_us =
      static_cast<double>(monitor.records()[0].at - t_rogue) / 1000.0;
  std::printf("    rogue deploy -> remote quarantine: %.1f us (poll %lld us)\n",
              containment_us,
              static_cast<long long>(monitor.policy().poll_period / 1000));

  // ---- local fail-safe containment ----
  core::SandboxConfig local_config;  // default K = 4
  Rig local(local_config);
  local.Inject(bpf::GenerateProgram({.target_insns = 64, .seed = 5}), 0);
  (void)local.sandbox->ExecuteHook(0, packet);
  local.Inject(bpf::GenerateRogueProgram({.kind = bpf::RogueKind::kTrapLoop}),
               0);
  int failed_execs = 0;
  while (local.sandbox->stats().failsafe_detaches == 0) {
    (void)local.sandbox->ExecuteHook(0, packet);
    ++failed_execs;
    if (failed_execs > 1000) std::abort();
  }
  std::printf("    local fail-safe contained after %d failed executions\n",
              failed_execs);

  bench::Json json;
  json.Add("iters", kIters)
      .Add("exec_ns_guardrails_off", ns_off, 1)
      .Add("exec_ns_guardrails_on", ns_on, 1)
      .Add("healthy_path_overhead_pct", overhead_pct, 2)
      .Add("remote_containment_us", containment_us, 1)
      .Add("monitor_poll_us",
           static_cast<std::uint64_t>(monitor.policy().poll_period / 1000))
      .Add("failsafe_executions_to_contain",
           static_cast<std::uint64_t>(failed_execs));
  bench::PrintBenchJson("guardrail_overhead", json, &local.events);
  return 0;
}
