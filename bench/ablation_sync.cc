// Ablation (§3.5): the three remote synchronization primitives toggled
// independently. Three sub-measurements per configuration:
//   inject_us    injection path time (compile excluded — steady state)
//   visible_us   commit -> CPU visibility with a *passive* data plane
//                (no polling; discovery via cache eviction or flush)
//   torn         executions that observed a torn image while an *active*
//                data plane raced an in-place update
#include "bench/bench_util.h"
#include "bpf/proggen.h"

using namespace rdx;

namespace {

struct SyncOutcome {
  double inject_us = 0;
  double visible_us = 0;
  std::uint64_t torn = 0;
};

SyncOutcome RunConfig(bool use_tx, bool use_cc_event, bool use_lock,
                      std::uint64_t seed) {
  sim::EventQueue events;
  rdma::Fabric fabric(events);
  const rdma::NodeId cp_id = fabric.AddNode("cp", 128u << 20).id();
  core::ControlPlaneConfig config;
  config.use_tx = use_tx;
  config.use_cc_event = use_cc_event;
  config.use_lock = use_lock;
  config.chunk_bytes = 1024;
  core::ControlPlane cp(events, fabric, cp_id, config);

  rdma::Node& node = fabric.AddNode("node");
  core::SandboxConfig sandbox_config;
  sandbox_config.seed = seed;
  core::Sandbox sandbox(events, node, sandbox_config);
  if (!sandbox.CtxInit().ok()) std::abort();
  auto reg = sandbox.CtxRegister();
  core::CodeFlow* flow =
      sim::RunToCompletion(events, cp.CreateCodeFlow(sandbox, reg.value()))
          .value();
  events.Run();

  bpf::Program v1 = bpf::GenerateProgram({.target_insns = 4000, .seed = 1});
  bpf::Program v2 = bpf::GenerateProgram({.target_insns = 2500, .seed = 2});
  SyncOutcome outcome;

  // ---- (a) injection latency + passive visibility on hook 1 ----
  {
    const core::InjectTrace trace =
        bench::Must(sim::RunToCompletion(events, cp.Inject(*flow, v2, 1)));
    outcome.inject_us =
        sim::ToMicros(trace.total - trace.validate - trace.jit);
    // Passive data plane: just let the scheduled visibility event fire.
    const sim::SimTime committed = events.Now();
    while (sandbox.VisibleVersion(1) == 0 && !events.Empty()) events.Step();
    outcome.visible_us = sim::ToMicros(events.Now() - committed);
  }

  // ---- (b) torn-image executions on hook 0 (active data plane) ----
  {
    if (!sim::RunToCompletion(events, cp.Inject(*flow, v1, 0)).ok()) {
      std::abort();
    }
    sandbox.ScheduleHookRefresh(0, 0);
    events.RunUntil(events.Now());

    const std::uint64_t v1_version = sandbox.VisibleVersion(0);
    Bytes packet(8, 1);
    bool injected = false;
    sim::Start(cp.Inject(*flow, v2, 0), [&](StatusOr<core::InjectTrace> r) {
      if (!r.ok()) std::abort();
      injected = true;
    });
    // Active executor: coherently re-reads the hook every 500 ns and
    // executes, racing the in-flight update.
    while ((!injected || sandbox.VisibleVersion(0) == v1_version) &&
           !events.Empty()) {
      events.RunUntil(events.Now() + 500);
      sandbox.ScheduleHookRefresh(0, 0);
      events.RunUntil(events.Now());
      if (!sandbox.ExecuteHook(0, packet).ok()) ++outcome.torn;
    }
  }
  return outcome;
}

}  // namespace

int main() {
  bench::PrintHeader(
      "Sync-primitive ablation: rdx_tx / rdx_cc_event / rdx_mutual_excl",
      "Section 3.5 (each primitive addresses one hazard: atomicity, "
      "visibility, mutual exclusion)");
  bench::PrintRow(
      {"tx", "cc_event", "lock", "inject_us", "visible_us", "torn"});

  struct Config {
    bool tx, cc, lock;
  };
  constexpr Config kConfigs[] = {
      {false, false, false},  // vanilla RDMA
      {true, false, false},   // + atomic commit
      {true, true, false},    // + coherence flush (the RDX default)
      {true, true, true},     // + sandbox lock
  };
  for (const Config& config : kConfigs) {
    Summary inject_us, visible_us;
    std::uint64_t torn = 0;
    const std::uint64_t seeds =
        static_cast<std::uint64_t>(bench::ScaledIters(10, 1));
    for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
      const SyncOutcome outcome =
          RunConfig(config.tx, config.cc, config.lock, seed);
      inject_us.Add(outcome.inject_us);
      visible_us.Add(outcome.visible_us);
      torn += outcome.torn;
    }
    auto onoff = [](bool b) { return std::string(b ? "on" : "off"); };
    bench::PrintRow({onoff(config.tx), onoff(config.cc), onoff(config.lock),
                     bench::Fmt(inject_us.mean(), 1),
                     bench::Fmt(visible_us.mean(), 1),
                     bench::FmtInt(torn)});
  }
  std::printf(
      "\nshape check: without tx the data plane observes torn images; "
      "without cc_event visibility is 100s of us; the lock adds ~2 RTTs "
      "of latency and nothing else in the uncontended case.\n");
  return 0;
}
